"""Finding the minimal sets of pairs that must become output-distinguishable.

Pipeline: classify which indistinguishable pairs already reach the
distinguishable region robustly; the rest must be handled.  Pairs that can
hit the diagonal in one step, and positive-probability fixed points, must be
separated directly.  Whatever remains is reduced through its maximum
invariant set and a minimal anchor search, yielding all candidate target
sets whose separation restores observability.

Every exit of a searched set is already settled.  The invariant set folds a
maximum invariant set, so it has none.  A second-residual successor is never
diagonal (one-step diagonal hitters are core); outside the closure it lies in
s2, the core, the invariant set or a mirror-closed reach union inside widened,
so in the second search's own target.  Every member of either set keeps a
successor inside its closure, so each set has a cycle.  An anchor set is then
exactly a set of residual pairs that breaks every cycle of the successor
graph once each pair is identified with its mirror.  Every cycle lies inside
one strongly connected component (Tarjan, SIAM J. Comput. 1972), so the
minimal anchor sets are the products of each cyclic component's minimal
cycle-breaking sets, and the subset cap bounds each such component's size.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, combinations, product
from math import prod
from operator import or_

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
from .stp import check_size

DEFAULT_SUBSET_CAP = 20


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the target-set search produces, canonical representatives only.

    ``candidates`` lists every minimal pair-state set whose separation makes
    the network observable; it is empty exactly when the network already is.
    ``system`` is the paired system the search ran on, for later stages of
    the same command to reuse.
    """

    system: AugmentedSystem = field(compare=False, repr=False)
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


def distinguishable_split(aug: AugmentedSystem, part: Partition) -> tuple[StateSet, StateSet]:
    """(already-distinguishable, still-indistinguishable) split of ``part``'s s1."""
    n = aug.model.n
    covered = robust_reach(mirror_close(part.s2, n), aug).union
    reach_in_s1 = part.s1 & covered
    return reach_in_s1, part.s1 - reach_in_s1


def is_observable(model: PbnModel) -> tuple[bool, StateSet]:
    """Observability flag plus the indistinguishable pairs as a witness."""
    aug = build_augmented(model)
    part = partition_states(model)
    _, witness = distinguishable_split(aug, part)
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
    invariant: StateSet, aug: AugmentedSystem, cap: int = DEFAULT_SUBSET_CAP
) -> tuple[StateSet, ...]:
    """Minimal subsets G of ``invariant`` whose separation drags the rest along.

    ``invariant`` holds canonical i < j pairs whose exits are all settled,
    as in :func:`minimal_targets`.  G then qualifies exactly when it breaks
    every cycle of the mirror-folded successor graph on ``invariant``, so
    the answer is the product of each cyclic strongly connected component's
    minimal cycle-breaking sets, in ascending cardinality and then
    lexicographic order; it is ``()`` when no component is cyclic.  ``cap``
    bounds each such component's size.  Raises ValueError for a set over
    another pair space or holding a diagonal or mirrored pair.
    """
    if invariant.universe != aug.pair_count:
        raise ValueError(f"universe mismatch: {invariant.universe} vs {aug.pair_count}")
    components = _cyclic_components(invariant, aug, cap)
    if not components:
        return ()
    per_component = [
        [[members[v] for v in _bits(chosen)] for chosen in _minimal_cycle_breakers(succ)]
        for members, succ in components
    ]
    check_size(prod(len(c) for c in per_component), invariant.universe, "anchor sets")
    anchors = sorted(
        (sorted(chain.from_iterable(choice)) for choice in product(*per_component)),
        key=lambda combo: (len(combo), combo),
    )
    return tuple(StateSet.from_indices(invariant.universe, combo) for combo in anchors)


def _cyclic_components(
    invariant: StateSet, aug: AugmentedSystem, cap: int
) -> list[tuple[list[int], list[int]]]:
    """Cyclic SCCs of the successor graph on ``invariant``, each pair folded with its mirror.

    Each component is (its 1-based pair indices, the successor bitmask of
    each of its states over their positions in that list); successors
    outside the mirror closure are dropped.  Raises ValueError when a member
    is not a canonical i < j pair, and ResourceLimitError as soon as a
    cyclic component has more than ``cap`` states.
    """
    n = aug.model.n
    size = 1 << n
    states = np.flatnonzero(invariant.bits)
    first, second = states >> n, states & (size - 1)
    if (first >= second).any():
        raise ValueError("anchor search needs canonical i < j pairs")
    position = np.full(aug.pair_count, -1, dtype=np.int32)
    position[states] = position[second * size + first] = np.arange(states.size)
    # Row v holds member v's successors as member positions, -1 outside the closure.
    heads = position[aug.successors[:, states]].T
    edges, degree = array("i", heads.tobytes()), heads.shape[1]

    def successors(v: int) -> array:
        return edges[v * degree : (v + 1) * degree]

    components = []
    for comp in _strongly_connected(edges, degree):
        if len(comp) == 1 and comp[0] not in successors(comp[0]):
            continue
        if len(comp) > cap:
            raise ResourceLimitError(
                f"anchor search: a strongly connected component of {len(comp)} "
                f"residual states exceeds the cap {cap}; reduce the network or raise the cap"
            )
        local = {v: k for k, v in enumerate(comp)}
        masks = [reduce(or_, (1 << local[w] for w in successors(v) if w in local), 0) for v in comp]
        components.append(([int(states[v]) + 1 for v in comp], masks))
    return components


def _strongly_connected(edges: array, degree: int):
    """Yield the SCCs of a graph by Tarjan's algorithm, without recursion.

    The successors of state v are ``edges[v*degree:(v+1)*degree]``, where -1
    stands for no successor.  Every per-state table is a flat array, so
    memory stays linear and compact.
    """
    count = len(edges) // degree
    index = array("i", [-1]) * count
    low = array("i", [0]) * count
    on_stack = bytearray(count)
    stack = array("i")
    # The DFS path: each state, its next unread edge and its place on the stack.
    path, next_edge, base = array("i"), array("q"), array("i")
    counter = 0

    def visit(v: int) -> None:
        nonlocal counter
        index[v] = low[v] = counter
        counter += 1
        path.append(v)
        next_edge.append(v * degree)
        base.append(len(stack))
        stack.append(v)
        on_stack[v] = 1

    for root in range(count):
        if index[root] >= 0:
            continue
        visit(root)
        while path:
            v = path[-1]
            e, end = next_edge[-1], (v + 1) * degree
            while e < end and (edges[e] < 0 or index[edges[e]] >= 0):
                w = edges[e]
                if w >= 0 and on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
                e += 1
            if e < end:
                next_edge[-1] = e + 1
                visit(edges[e])
                continue
            path.pop()
            next_edge.pop()
            start = base.pop()
            if path and low[v] < low[path[-1]]:
                low[path[-1]] = low[v]
            if low[v] == index[v]:
                component = stack[start:]
                del stack[start:]
                for w in component:
                    on_stack[w] = 0
                yield component


def _minimal_cycle_breakers(succ: list[int]) -> list[int]:
    """Every inclusion-minimal vertex set whose removal leaves the graph acyclic.

    Vertices are bit positions and ``succ[v]`` is the successor bitmask of
    v.  Subsets are tried in ascending size and supersets of kept sets are
    skipped; once every subset of one size is skipped, all larger ones are.
    """
    everything = (1 << len(succ)) - 1
    vertices = [1 << v for v in range(len(succ))]
    kept: list[int] = []
    for r in range(1, len(succ) + 1):
        tried = False
        for combo in combinations(vertices, r):
            chosen = sum(combo)
            if any(k & chosen == k for k in kept):
                continue
            tried = True
            if _acyclic(succ, everything & ~chosen):
                kept.append(chosen)
        if not tried:
            break
    return kept


def _acyclic(succ: list[int], alive: int) -> bool:
    """Kahn's algorithm on the subgraph induced by the bitmask ``alive``."""
    indegree = {v: 0 for v in _bits(alive)}
    for v in indegree:
        for w in _bits(succ[v] & alive):
            indegree[w] += 1
    ready = [v for v, d in indegree.items() if d == 0]
    removed = 0
    while ready:
        v = ready.pop()
        removed += 1
        for w in _bits(succ[v] & alive):
            indegree[w] -= 1
            if indegree[w] == 0:
                ready.append(w)
    return removed == len(indegree)


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def candidate_sufficient(candidate: StateSet, aug: AugmentedSystem, part: Partition) -> bool:
    """Does separating ``candidate`` make every indistinguishable pair distinguishable?"""
    n = aug.model.n
    marked = mirror_close(candidate | part.s2, n)
    return part.s1.issubset(robust_reach(marked, aug).union | marked)


def minimal_targets(model: PbnModel, subset_cap: int = DEFAULT_SUBSET_CAP) -> AnalysisReport:
    """Run the full target-set search and return every minimal candidate."""
    if subset_cap < 0:
        raise ValueError(f"subset cap must be nonnegative, got {subset_cap}")
    aug = build_augmented(model)
    part = partition_states(model)
    n = model.n
    universe = aug.pair_count
    empty = StateSet.empty(universe)

    distinguishable, indist = distinguishable_split(aug, part)
    diag_hitters = one_step_to_diagonal(indist, aug)
    fixed = positive_prob_fixed_points(indist, aug)
    core = diag_hitters | fixed
    core_target = core | part.s2

    core_reach = residual = invariant = second_residual = empty
    anchors = second_anchors = candidates = ()
    if indist:
        core_reach = robust_reach(mirror_close(core_target, n), aug).union
        residual = indist - (core | core_reach)
        if residual:
            invariant = canonicalize(maximum_invariant_set(mirror_close(residual, n), aug), n)
            anchors = minimal_anchor_sets(invariant, aug, cap=subset_cap)
            # With no invariant set, the widened target is core_reach's own target.
            widened = (
                robust_reach(mirror_close(core_target | invariant, n), aug).union
                if invariant
                else core_reach
            )
            second_residual = residual - (invariant | widened)
            if second_residual:
                second_anchors = minimal_anchor_sets(second_residual, aug, cap=subset_cap)
        anchor_choices = anchors or (empty,)
        second_choices = second_anchors or (empty,)
        check_size(len(anchor_choices) * len(second_choices), universe, "candidate sets")
        candidates = tuple(core | a | b for a in anchor_choices for b in second_choices)

    return AnalysisReport(
        system=aug,
        partition=part,
        observable=not indist,
        witness=indist,
        distinguishable=distinguishable,
        indistinguishable=indist,
        one_step_diagonal=diag_hitters,
        fixed_points=fixed,
        core=core,
        core_target=core_target,
        core_reach=core_reach,
        residual=residual,
        invariant_set=invariant,
        invariant_anchors=anchors,
        second_residual=second_residual,
        second_anchors=second_anchors,
        candidates=candidates,
        subset_cap=subset_cap,
    )
