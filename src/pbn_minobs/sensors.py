"""Minimum measurement selection.

Adding the measurement y = x_v separates exactly the pairs whose states
differ in variable v, so pair (i, j) is separated by x_v exactly when bit
n - v of (i - 1) XOR (j - 1) is set.  A set of measurements, read as the mask
of those bits, separates a set of pairs exactly when it shares a bit with
each of their distinct XOR values.  One search covers every case: it tries
all masks of one size at once, in ascending size, and returns every mask of
the first size that separates all the values.  ``min_cover`` runs it on the
columns of a truth matrix; ``global_min_sensors`` computes the shared core's
values and tests them once per size, so each candidate adds only the values
of its anchor pairs.  The global optimum is the smallest cover over all
candidate sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce
from itertools import combinations

import numpy as np

from .analysis import AnalysisReport, distinguishable_split
from .errors import InfeasibleCoverError
from .model import PbnModel, assignment_table
from .partition import StateSet, folded_pairs, pair_split, partition_states
from .stp import LogicalMatrix, khatri_rao


def single_variable_output(m_idx: int, n: int) -> LogicalMatrix:
    """Output matrix of the measurement y = x_m: column k reads bit m of state k."""
    if not 1 <= m_idx <= n:
        raise ValueError(f"variable index {m_idx} out of range [1, {n}]")
    # Row 1 reads x_m = 1, which is bit n - m of k - 1 clear.
    return LogicalMatrix._own(2, 1 + ((np.arange(1 << n, dtype=np.int64) >> (n - m_idx)) & 1))


def distinguishable_under(m_idx: int, n: int) -> StateSet:
    """All pairs (i, j) separated by measuring x_m, i.e. whose bit m differs.

    Mirror-closed and diagonal-free by construction.
    """
    reading = single_variable_output(m_idx, n).col_index
    return StateSet(4**n, (reading[:, None] != reading[None, :]).reshape(-1))


@dataclass(frozen=True, eq=False)
class TruthMatrix:
    """Rows are state variables, columns the target pairs in ascending order.

    ``bits`` is a read-only copy of the given grid as an ``n`` x
    ``len(column_states)`` bool array; entry (m-1, c-1) is set iff measuring
    x_m separates the pair in column c.
    """

    n: int
    column_states: tuple[int, ...]
    bits: np.ndarray

    def __post_init__(self):
        grid = np.array(self.bits, dtype=bool, order="C")
        expected = (self.n, len(self.column_states))
        if grid.shape != expected:
            raise ValueError(f"truth matrix grid has shape {grid.shape}, expected {expected}")
        grid.setflags(write=False)
        object.__setattr__(self, "bits", grid)

    def column(self, c: int) -> np.ndarray:
        if not 1 <= c <= len(self.column_states):
            raise ValueError(f"column {c} out of range")
        return self.bits[:, c - 1].copy()


def truth_matrix(target: StateSet, n: int) -> TruthMatrix:
    """Build the variable-vs-pair separation matrix for a target set.

    The target is folded to canonical representatives and sorted; a diagonal
    pair is rejected because no added measurement can ever separate it.
    """
    states, first, second = folded_pairs(target, n)
    if not states.size:
        raise ValueError("target set is empty")
    diagonal = np.flatnonzero(first == second)
    if diagonal.size:
        z, i = states[diagonal[0]], first[diagonal[0]]
        raise ValueError(
            f"pair state {z} = ({i}, {i}) is diagonal; no measurement can separate it"
        )
    table = assignment_table(n)
    grid = (table[first - 1] != table[second - 1]).T
    return TruthMatrix(n=n, column_states=tuple(states.tolist()), bits=grid)


def _separations(states: np.ndarray, n: int) -> np.ndarray:
    """The distinct values (i - 1) XOR (j - 1) of the pairs at 0-based ``states``, ascending."""
    seen = np.zeros(1 << n, dtype=bool)
    seen[(states >> n) ^ (states & ((1 << n) - 1))] = True
    return seen.nonzero()[0]


@cache
def _subsets(n: int, r: int) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """The r-variable sets in lexicographic order: as masks (bit n - v for x_v) and as tuples."""
    combos = list(combinations(range(1, n + 1), r))
    masks = np.array([sum(1 << (n - v) for v in combo) for combo in combos], dtype=np.int64)
    return masks, combos


def _separating(masks: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Which variable-set ``masks`` share a bit with every one of ``values``."""
    return np.logical_and.reduce(masks[:, None] & values, axis=1)


class _CoverSearch:
    """Every smallest variable set separating ``shared`` values plus a few more.

    Values and variable sets are bit masks as in the module docstring.  Each
    size tests all its masks in one numpy step.  The ``shared`` values are
    tested once per size for every search, which then tests only the masks
    that pass them.
    """

    def __init__(self, n: int, shared: np.ndarray):
        self.n = n
        self.shared = shared
        self.passing: dict[int, tuple[np.ndarray, list[tuple[int, ...]]]] = {}

    def _passing(self, r: int) -> tuple[np.ndarray, list[tuple[int, ...]]]:
        """The r-variable sets that separate the shared values, as masks and as tuples."""
        if r not in self.passing:
            masks, combos = _subsets(self.n, r)
            keep = _separating(masks, self.shared).nonzero()[0]
            self.passing[r] = masks[keep], [combos[k] for k in keep.tolist()]
        return self.passing[r]

    def covers(self, values: np.ndarray) -> tuple[tuple[int, ...], ...]:
        """The variable sets of the smallest size that separate ``values`` and the shared ones."""
        for r in range(1, self.n + 1):
            masks, combos = self._passing(r)
            if combos:
                hits = _separating(masks, values).nonzero()[0]
                if hits.size:
                    return tuple(combos[k] for k in hits.tolist())
        raise InfeasibleCoverError("a pair is not separated by any state variable")


def min_cover(phi: TruthMatrix) -> tuple[tuple[int, ...], ...]:
    """Every minimum-cardinality variable set whose rows OR to all-ones.

    Exact search in ascending cardinality, lexicographic within one size; an
    uncoverable column raises with the offending pair named.
    """
    # Column c as the mask with bit n - m set iff entry (m, c) is: a separation value.
    columns = (1 << np.arange(phi.n - 1, -1, -1, dtype=np.int64)) @ phi.bits
    uncovered = np.flatnonzero(columns == 0)
    if uncovered.size:
        z = phi.column_states[uncovered[0]]
        try:
            i, j = pair_split(z, phi.n)
            where = f"{z} = ({i}, {j})"
        except ValueError:
            where = str(z)
        raise InfeasibleCoverError(
            f"pair state {where} is not separated by any state variable"
        )
    return _CoverSearch(phi.n, np.unique(columns)).covers(np.zeros(0, dtype=np.int64))


@dataclass(frozen=True)
class SensorPlan:
    """All minimum measurement sets, per candidate and globally.

    ``per_candidate[k]`` holds every smallest measurement set that separates
    the report's ``candidates[k]``, all of one size.  ``optima`` pairs a
    candidate position with a measurement set of globally minimum size;
    ``suggested`` is the lexicographically smallest of those.
    ``extended_observable`` records the re-verification under the original
    output stacked with the suggested measurements.
    """

    per_candidate: tuple[tuple[tuple[int, ...], ...], ...]
    min_size: int
    optima: tuple[tuple[int, tuple[int, ...]], ...]
    suggested: tuple[int, tuple[int, ...]]
    extended_observable: bool


def extend_output(model: PbnModel, measurements) -> PbnModel:
    """New model whose output stacks the old one with y = x_j per measurement."""
    added = tuple(measurements)
    mats = [model.output] + [single_variable_output(j, model.n) for j in added]
    combined = reduce(khatri_rao, mats)
    return PbnModel(
        n=model.n,
        q=model.q + len(added),
        transitions=model.transitions,
        output=combined,
        probs=model.probs,
    )


def global_min_sensors(report: AnalysisReport) -> SensorPlan:
    """Minimum measurements over every candidate of ``report``, with re-verification.

    ``report`` is ``minimal_targets(model)``; its system holds the model, and
    the re-verification reuses that system.
    """
    if report.observable:
        raise ValueError("model is already observable; nothing to add")
    model = report.system.model
    n = model.n
    core = report.core
    search = _CoverSearch(n, _separations(core.bits.nonzero()[0], n))
    # No candidate lacks a cover: its pairs (i, j) have i < j, and distinct states
    # differ in some variable.  Each candidate is the core plus its anchor pairs.
    per_candidate = tuple(
        search.covers(_separations((cand - core).bits.nonzero()[0], n))
        for cand in report.candidates
    )
    min_size = min(len(covers[0]) for covers in per_candidate)
    optima = tuple(
        (pos, cover)
        for pos, covers in enumerate(per_candidate)
        if len(covers[0]) == min_size
        for cover in covers
    )
    suggested = min(optima, key=lambda item: (item[1], item[0]))
    extended = extend_output(model, suggested[1])
    # The added outputs leave the pair dynamics alone, so the report's system serves.
    _, witness = distinguishable_split(report.system, partition_states(extended))
    return SensorPlan(
        per_candidate=per_candidate,
        min_size=min_size,
        optima=optima,
        suggested=suggested,
        extended_observable=not witness,
    )
