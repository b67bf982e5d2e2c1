"""Minimum measurement selection.

Adding the measurement y = x_m separates exactly the pairs whose states
differ in bit m.  For each candidate target set a truth matrix records which
variable separates which pair; an exact ascending-cardinality search over row
subsets yields every minimum cover, and the global optimum is the smallest
cover over all candidate sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations

import numpy as np

from .analysis import AnalysisReport, distinguishable_split
from .errors import InfeasibleCoverError
from .model import PbnModel, Var, assignment_table, structure_matrix
from .partition import StateSet, folded_pairs, pair_split, partition_states
from .stp import LogicalMatrix, khatri_rao


def single_variable_output(m_idx: int, n: int) -> LogicalMatrix:
    """Output matrix of the measurement y = x_m: column k reads bit m of state k."""
    if not 1 <= m_idx <= n:
        raise ValueError(f"variable index {m_idx} out of range [1, {n}]")
    return structure_matrix(Var(m_idx), n)


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


def min_cover(phi: TruthMatrix) -> tuple[tuple[int, ...], ...]:
    """Every minimum-cardinality variable set whose rows OR to all-ones.

    Exact search in ascending cardinality, lexicographic within one size; an
    uncoverable column raises with the offending pair named.
    """
    width = len(phi.column_states)
    # Row m as an integer whose bit c is set iff entry (m, c) is.
    packed = np.packbits(phi.bits, axis=1, bitorder="little")
    masks = [int.from_bytes(row.tobytes(), "little") for row in packed]
    full = (1 << width) - 1
    everything = reduce(lambda a, b: a | b, masks, 0)
    if everything != full:
        uncovered = full & ~everything
        missing = (uncovered & -uncovered).bit_length() - 1
        z = phi.column_states[missing]
        try:
            i, j = pair_split(z, phi.n)
            where = f"{z} = ({i}, {j})"
        except ValueError:
            where = str(z)
        raise InfeasibleCoverError(
            f"pair state {where} is not separated by any state variable"
        )
    for r in range(1, phi.n + 1):
        found = []
        for combo in combinations(range(phi.n), r):
            covered = 0
            for row in combo:
                covered |= masks[row]
            if covered == full:
                found.append(tuple(v + 1 for v in combo))
        if found:
            return tuple(found)
    raise AssertionError("unreachable: the full row set always covers")


@dataclass(frozen=True)
class CandidateCover:
    """Cover search outcome for one candidate target set."""

    target: StateSet
    covers: tuple[tuple[int, ...], ...]
    size: int


@dataclass(frozen=True)
class SensorPlan:
    """All minimum measurement sets, per candidate and globally.

    ``optima`` pairs a candidate position (0-based into ``per_candidate``)
    with a measurement set of globally minimum size; ``suggested`` is the
    lexicographically smallest of those.  ``extended_observable`` records
    the re-verification under the original output stacked with the
    suggested measurements.
    """

    per_candidate: tuple[CandidateCover, ...]
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


def global_min_sensors(report: AnalysisReport, model: PbnModel) -> SensorPlan:
    """Minimum measurements over every candidate target set, with re-verification.

    ``report`` is ``minimal_targets(model)``; the re-verification reuses its system.
    """
    if report.observable:
        raise ValueError("model is already observable; nothing to add")
    if report.system.model != model:
        raise ValueError("the report was computed for a different model")
    per_candidate = []
    # No candidate lacks a cover: truth_matrix keeps only pairs (i, j) with i < j,
    # and distinct states differ in some variable, so every column has a set bit.
    for cand in report.candidates:
        covers = min_cover(truth_matrix(cand, model.n))
        per_candidate.append(CandidateCover(cand, covers, len(covers[0])))
    min_size = min(c.size for c in per_candidate)
    optima = tuple(
        (pos, cover)
        for pos, c in enumerate(per_candidate)
        if c.size == min_size
        for cover in c.covers
    )
    suggested = min(optima, key=lambda item: (item[1], item[0]))
    extended = extend_output(model, suggested[1])
    # The added outputs leave the pair dynamics alone, so the report's system serves.
    _, witness = distinguishable_split(report.system, partition_states(extended))
    return SensorPlan(
        per_candidate=tuple(per_candidate),
        min_size=min_size,
        optima=optima,
        suggested=suggested,
        extended_observable=not witness,
    )
