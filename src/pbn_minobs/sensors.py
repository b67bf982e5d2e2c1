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

from .analysis import AnalysisReport, is_observable
from .errors import InfeasibleCoverError
from .model import PbnModel
from .partition import StateSet, folded_pairs, pair_split
from .stp import BooleanMatrix, LogicalMatrix, khatri_rao


def single_variable_output(m_idx: int, n: int) -> LogicalMatrix:
    """Output matrix of the measurement y = x_m: column k reads bit m of state k."""
    if not 1 <= m_idx <= n:
        raise ValueError(f"variable index {m_idx} out of range [1, {n}]")
    idx = np.arange(1 << n)
    raw = (idx >> (n - m_idx)) & 1
    return LogicalMatrix(2, raw + 1)


def distinguishable_under(m_idx: int, n: int) -> StateSet:
    """All pairs (i, j) separated by measuring x_m, i.e. whose bit m differs.

    Mirror-closed and diagonal-free by construction.
    """
    if not 1 <= m_idx <= n:
        raise ValueError(f"variable index {m_idx} out of range [1, {n}]")
    idx = np.arange(1 << n)
    raw = (idx >> (n - m_idx)) & 1
    differs = raw[:, None] != raw[None, :]
    return StateSet.from_bool_array(differs.reshape(-1))


@dataclass(frozen=True)
class TruthMatrix:
    """Rows are state variables, columns the target pairs in ascending order.

    Bit (m, c) is set iff measuring x_m separates the pair in column c.
    """

    n: int
    column_states: tuple[int, ...]
    bits: BooleanMatrix

    def column(self, c: int) -> np.ndarray:
        if not 1 <= c <= len(self.column_states):
            raise ValueError(f"column {c} out of range")
        return self.bits.bits[:, c - 1].copy()


def truth_matrix(target: StateSet, n: int) -> TruthMatrix:
    """Build the variable-vs-pair separation matrix for a target set.

    The target is folded to canonical representatives and sorted; a diagonal
    pair is rejected because no added measurement can ever separate it.
    """
    listing = folded_pairs(target, n)
    if not listing:
        raise ValueError("target set is empty")
    for z, i, j in listing:
        if i == j:
            raise ValueError(
                f"pair state {z} = ({i}, {j}) is diagonal; no measurement can separate it"
            )
    states, first, second = np.array(listing, dtype=np.int64).T
    shifts = n - np.arange(1, n + 1)[:, None]
    grid = ((first - 1) >> shifts) & 1 != ((second - 1) >> shifts) & 1
    return TruthMatrix(n=n, column_states=tuple(states.tolist()), bits=BooleanMatrix(grid))


def min_cover(phi: TruthMatrix) -> tuple[tuple[int, ...], ...]:
    """Every minimum-cardinality variable set whose rows OR to all-ones.

    Exact search in ascending cardinality, lexicographic within one size; an
    uncoverable column raises with the offending pair named.
    """
    width = len(phi.column_states)
    masks = phi.bits.row_masks()
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
    truth: TruthMatrix | None
    covers: tuple[tuple[int, ...], ...]
    size: int | None
    infeasible_reason: str | None = None


@dataclass(frozen=True)
class SensorPlan:
    """All minimum measurement sets, per candidate and globally.

    ``optima`` pairs a candidate position (0-based into ``per_candidate``)
    with a measurement set of globally minimum size; ``suggested`` is the
    lexicographically smallest of those.  ``extended_output`` stacks the
    original output with the suggested measurements, and
    ``extended_observable`` records the re-verification under it.
    """

    per_candidate: tuple[CandidateCover, ...]
    min_size: int
    optima: tuple[tuple[int, tuple[int, ...]], ...]
    suggested: tuple[int, tuple[int, ...]]
    extended_output: LogicalMatrix
    extended_observable: bool
    diagnostics: tuple[str, ...] = ()


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
    """Minimum measurements over every candidate target set, with re-verification."""
    if report.observable:
        raise ValueError("model is already observable; nothing to add")
    per_candidate: list[CandidateCover] = []
    diagnostics: list[str] = []
    for cand in report.candidates:
        try:
            phi = truth_matrix(cand, model.n)
            covers = min_cover(phi)
        except InfeasibleCoverError as exc:
            diagnostics.append(f"candidate {sorted(cand.indices())} skipped: {exc}")
            per_candidate.append(
                CandidateCover(cand, None, (), None, infeasible_reason=str(exc))
            )
            continue
        per_candidate.append(CandidateCover(cand, phi, covers, len(covers[0])))
    feasible = [c for c in per_candidate if c.size is not None]
    if not feasible:
        raise InfeasibleCoverError("no candidate target set admits a measurement cover")
    min_size = min(c.size for c in feasible)
    optima = tuple(
        (pos, cover)
        for pos, c in enumerate(per_candidate)
        if c.size == min_size
        for cover in c.covers
    )
    suggested = min(optima, key=lambda item: (item[1], item[0]))
    extended = extend_output(model, suggested[1])
    extended_observable, _ = is_observable(extended)
    return SensorPlan(
        per_candidate=tuple(per_candidate),
        min_size=min_size,
        optima=optima,
        suggested=suggested,
        extended_output=extended.output,
        extended_observable=extended_observable,
        diagnostics=tuple(diagnostics),
    )
