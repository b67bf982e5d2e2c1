"""Finding the minimal sets of pairs that must become output-distinguishable.

Pipeline: classify which indistinguishable pairs already reach the
distinguishable region robustly; the rest must be handled.  Pairs that can
hit the diagonal in one step, and positive-probability fixed points, must be
separated directly.  Whatever remains is reduced through its maximum
invariant set and an exhaustive minimal-subset search, yielding all candidate
target sets whose separation restores observability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .augmented import AugmentedSystem, build_augmented
from .errors import ResourceLimitError
from .model import PbnModel
from .partition import (
    Partition,
    StateSet,
    canonicalize,
    diagonal_set,
    mirror_close,
    partition_states,
)
from .reachability import robust_reach

DEFAULT_SUBSET_CAP = 20


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the target-set search produces, canonical representatives only.

    ``candidates`` lists every minimal pair-state set whose separation makes
    the network observable; it is empty exactly when the network already is.
    """

    partition: Partition
    observable: bool
    witness: StateSet
    distinguishable: StateSet
    indistinguishable: StateSet
    one_step_diagonal: StateSet
    fixed_points: StateSet
    core: StateSet
    core_target: StateSet
    core_reach: StateSet
    residual: StateSet
    invariant_set: StateSet
    invariant_anchors: tuple[StateSet, ...]
    second_residual: StateSet
    second_anchors: tuple[StateSet, ...]
    candidates: tuple[StateSet, ...]
    subset_cap: int = field(default=DEFAULT_SUBSET_CAP)


def _distinguishable_split(aug: AugmentedSystem, part: Partition) -> tuple[StateSet, StateSet]:
    """(already-distinguishable, still-indistinguishable) split of s1."""
    n = aug.model.n
    covered = robust_reach(mirror_close(part.s2, n), aug).union
    reach_in_s1 = part.s1 & covered
    return reach_in_s1, part.s1 - reach_in_s1


def is_observable(model: PbnModel) -> tuple[bool, StateSet]:
    """Observability flag plus the indistinguishable pairs as a witness."""
    aug = build_augmented(model)
    part = partition_states(model)
    _, witness = _distinguishable_split(aug, part)
    return not witness, witness


def one_step_to_diagonal(states: StateSet, aug: AugmentedSystem) -> StateSet:
    """Members of ``states`` that can hit a diagonal pair in one step."""
    return StateSet(aug.pair_count, aug.pre_any(diagonal_set(aug.model.n).bits) & states.bits)


def positive_prob_fixed_points(states: StateSet, aug: AugmentedSystem) -> StateSet:
    """Members of ``states`` fixed by some positive-probability subnetwork."""
    fixed = (aug.successors == np.arange(aug.pair_count)).any(axis=0)
    return StateSet(aug.pair_count, fixed & states.bits)


def maximum_invariant_set(constraint: StateSet, aug: AugmentedSystem) -> StateSet:
    """Largest subset no positive-probability transition can leave.

    Deletes states whose support escapes the current set until stable (the
    greatest fixpoint inside ``constraint``).
    """
    current = constraint.bits
    while True:
        refined = current & aug.pre_all(current)
        if np.array_equal(refined, current):
            return StateSet(aug.pair_count, refined)
        current = refined


def minimal_anchor_sets(
    invariant: StateSet,
    aug: AugmentedSystem,
    external_target: StateSet,
    cap: int = DEFAULT_SUBSET_CAP,
) -> tuple[StateSet, ...]:
    """Minimal subsets G of ``invariant`` whose separation drags the rest along.

    A subset qualifies when every other member robustly reaches the
    mirror-closed union of G and ``external_target``.  Enumeration runs in
    ascending cardinality (then lexicographic), so supersets of kept sets are
    skipped and the result is an antichain.
    """
    members = invariant.indices()
    count = len(members)
    if count == 0:
        return ()
    if count > cap:
        raise ResourceLimitError(
            f"subset enumeration over {count} states exceeds the cap {cap}; "
            "reduce the network or raise the cap"
        )
    n = aug.model.n
    # Superset tests on small frozensets are cheaper than on StateSets.
    kept: list[frozenset[int]] = []
    anchors: list[StateSet] = []
    for r in range(1, count + 1):
        for combo in combinations(members, r):
            chosen = frozenset(combo)
            if any(k <= chosen for k in kept):
                continue
            guess = StateSet.from_indices(invariant.universe, combo)
            target = mirror_close(guess | external_target, n)
            if (invariant - guess).issubset(robust_reach(target, aug).union):
                kept.append(chosen)
                anchors.append(guess)
    return tuple(anchors)


def candidate_sufficient(candidate: StateSet, aug: AugmentedSystem, part: Partition) -> bool:
    """Does separating ``candidate`` make every indistinguishable pair distinguishable?"""
    n = aug.model.n
    marked = mirror_close(candidate | part.s2, n)
    return part.s1.issubset(robust_reach(marked, aug).union | marked)


def minimal_targets(model: PbnModel, subset_cap: int = DEFAULT_SUBSET_CAP) -> AnalysisReport:
    """Run the full target-set search and return every minimal candidate."""
    aug = build_augmented(model)
    part = partition_states(model)
    n = model.n
    universe = aug.pair_count
    empty = StateSet.empty(universe)

    distinguishable, indist = _distinguishable_split(aug, part)
    observable = not indist

    diag_hitters = one_step_to_diagonal(indist, aug)
    fixed = positive_prob_fixed_points(indist, aug)
    core = diag_hitters | fixed
    core_target = core | part.s2

    def report(**kwargs) -> AnalysisReport:
        base = dict(
            partition=part,
            observable=observable,
            witness=indist,
            distinguishable=distinguishable,
            indistinguishable=indist,
            one_step_diagonal=diag_hitters,
            fixed_points=fixed,
            core=core,
            core_target=core_target,
            core_reach=empty,
            residual=empty,
            invariant_set=empty,
            invariant_anchors=(),
            second_residual=empty,
            second_anchors=(),
            candidates=(),
            subset_cap=subset_cap,
        )
        base.update(kwargs)
        return AnalysisReport(**base)

    if observable:
        return report()

    core_reach = robust_reach(mirror_close(core_target, n), aug).union
    residual = indist - (core | core_reach)
    if not residual:
        return report(core_reach=core_reach, candidates=(core,))

    invariant = canonicalize(maximum_invariant_set(mirror_close(residual, n), aug), n)
    anchors = minimal_anchor_sets(invariant, aug, core_target, cap=subset_cap)

    widened = robust_reach(mirror_close(core_target | invariant, n), aug).union
    second_residual = residual - (invariant | widened)

    anchor_choices = anchors if anchors else (empty,)
    if not second_residual:
        return report(
            core_reach=core_reach,
            residual=residual,
            invariant_set=invariant,
            invariant_anchors=anchors,
            candidates=tuple(core | a for a in anchor_choices),
        )

    second_anchors = minimal_anchor_sets(
        second_residual, aug, core_target | invariant | widened, cap=subset_cap
    )
    second_choices = second_anchors if second_anchors else (empty,)
    candidates = tuple(core | a | b for a in anchor_choices for b in second_choices)
    return report(
        core_reach=core_reach,
        residual=residual,
        invariant_set=invariant,
        invariant_anchors=anchors,
        second_residual=second_residual,
        second_anchors=second_anchors,
        candidates=candidates,
    )
