"""Finding the minimal sets of pairs that must become output-distinguishable.

Pipeline: classify which indistinguishable pairs already reach the
distinguishable region robustly; the rest must be handled.  Pairs that can
hit the diagonal in one step, and positive-probability fixed points, must be
separated directly.  Whatever remains is reduced through its maximum
invariant set and a minimal anchor search, yielding all candidate target
sets whose separation restores observability.

Every set here is an i <= j half (see :mod:`.partition`); the reaches and the
invariant set read their inputs' mirror closures.  Every exit of a searched
set is already settled.  The invariant set is the i < j half of a maximum
invariant set, so it has none.  A second-residual successor is never diagonal
(one-step diagonal hitters are core); outside the closure it lies in the
mirror closure of s2, the core, the invariant set or widened, so in the
second search's own target.  Every member of either set keeps a successor
inside its closure, so each set has a cycle.  An anchor set is then exactly a
set of residual pairs that breaks every cycle of the successor graph once
each pair is identified with its mirror.  Every cycle lies inside one
strongly connected component (Tarjan, SIAM J. Comput. 1972), so the minimal
anchor sets are the products of each cyclic component's minimal
cycle-breaking sets, and the subset cap bounds each such component's size.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, combinations, islice, product
from math import prod
from operator import or_

import numpy as np

from .augmented import AugmentedSystem, build_augmented
from .errors import ResourceLimitError
from .model import PbnModel
from .partition import Partition, StateSet, partition_states
from .reachability import robust_reach
from .stp import check_size

DEFAULT_SUBSET_CAP = 20

# Cycle-breaker subsets are tested in blocks whose temporaries hold at most
# this many mask entries (512 KB of int64), so a component at any cap stays small.
BREAKER_BLOCK = 1 << 16

# Members whose successors the core, the invariant set and the anchor graph read at
# once: k x 2^16 intp successors (2 MB at k = 4), not k x |members|.
MEMBER_BLOCK = 1 << 16


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the target-set search produces, each set an i <= j half.

    ``candidates`` lists every minimal pair-state set whose separation makes
    the network observable; it is empty exactly when the network already is.
    ``system`` is the paired system the search ran on, and ``system.model``
    the model: later stages of the same command read both from here.
    """

    system: AugmentedSystem = field(compare=False, repr=False)
    partition: Partition
    observable: bool
    distinguishable: StateSet
    indistinguishable: StateSet
    one_step_diagonal: StateSet
    fixed_points: StateSet
    core: StateSet
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
    covered = robust_reach(part.s2, aug).union
    reach_in_s1 = part.s1 & covered
    return reach_in_s1, part.s1 - reach_in_s1


def is_observable(model: PbnModel) -> tuple[bool, StateSet]:
    """Observability flag plus the indistinguishable pairs as a witness."""
    aug = build_augmented(model)
    part = partition_states(model)
    _, witness = distinguishable_split(aug, part)
    return not witness, witness


def _members(states: StateSet, aug: AugmentedSystem) -> np.ndarray:
    """0-based members of ``states``; ValueError for a set over another pair space."""
    if states.universe != aug.pair_count:
        raise ValueError(f"universe mismatch: {states.universe} vs {aug.pair_count}")
    return states.bits.nonzero()[0]


def _each_block(z: np.ndarray, aug: AugmentedSystem, test) -> np.ndarray:
    """``test(successors, block)`` of the states ``z``, read ``MEMBER_BLOCK`` states at a time.

    ``test`` maps the k x |block| successors of a block to one entry per
    state; an empty ``z`` is one empty block, so the result keeps its dtype.
    """
    blocks = [z[start : start + MEMBER_BLOCK] for start in range(0, max(z.size, 1), MEMBER_BLOCK)]
    return np.concatenate([test(aug.successors(block), block) for block in blocks])


def one_step_to_diagonal(states: StateSet, aug: AugmentedSystem) -> StateSet:
    """Members of ``states`` that can hit a diagonal pair in one step."""
    z = _members(states, aug)
    step = aug.maps.shape[1] + 1  # pair i * 2^n + j is diagonal when it is a multiple of 2^n + 1
    hit = _each_block(z, aug, lambda succ, _: (np.remainder(succ, step, out=succ) == 0).any(axis=0))
    return StateSet.from_indices(aug.pair_count, z[hit] + 1)


def positive_prob_fixed_points(states: StateSet, aug: AugmentedSystem) -> StateSet:
    """Members of ``states`` fixed by some positive-probability subnetwork."""
    z = _members(states, aug)
    fixed = _each_block(z, aug, lambda succ, block: (succ == block).any(axis=0))
    return StateSet.from_indices(aug.pair_count, z[fixed] + 1)


def maximum_invariant_set(constraint: StateSet, aug: AugmentedSystem) -> StateSet:
    """``constraint``'s part of the largest set no positive-probability transition can leave.

    The greatest fixpoint inside the mirror closure of ``constraint``, which
    is mirror-closed in turn.  Each round tests the i <= j members of the
    current set and removes those with a successor outside it, together
    with their mirrors, until every member stays.
    """
    z = _members(constraint, aug)
    n = aug.model.n
    size = 1 << n
    inside = np.zeros(aug.pair_count, dtype=bool)
    inside[z] = inside[((z & (size - 1)) << n) | (z >> n)] = True
    z = np.triu(inside.reshape(size, size)).reshape(-1).nonzero()[0]  # the i <= j members
    while True:
        stays = _each_block(z, aug, lambda succ, _: inside[succ].all(axis=0))
        if stays.all():
            return StateSet._own(inside & constraint.bits)
        gone = z[~stays]
        inside[gone] = inside[((gone & (size - 1)) << n) | (gone >> n)] = False
        z = z[stays]


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
    components = _cyclic_components(invariant, aug, cap)
    if not components:
        return ()
    per_component = [
        [[members[v] for v in _bits(chosen)] for chosen in _minimal_cycle_breakers(succ)]
        for members, succ in components
    ]
    check_size(prod(map(len, per_component)), invariant.universe, "anchor search: anchor sets")
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
    each of its states over their positions in that list); successors are
    folded to their i <= j halves and found among the ascending members by
    binary search, and those outside the mirror closure are dropped.  Raises
    ValueError when a member is not a canonical i < j pair, and
    ResourceLimitError as soon as a cyclic component has more than ``cap`` states.
    """
    n = aug.model.n
    size = 1 << n
    states = _members(invariant, aug)
    if ((states >> n) >= (states & (size - 1))).any():
        raise ValueError("anchor search needs canonical i < j pairs")

    def positions(succ: np.ndarray, _) -> np.ndarray:
        np.minimum(succ, ((succ & (size - 1)) << n) | (succ >> n), out=succ)  # the i <= j halves
        at = np.searchsorted(states, succ)
        at[states.take(at, mode="clip") != succ] = -1
        return at.T.astype(np.int32)

    # Row v holds member v's successors as member positions, -1 outside the closure.
    edges, degree = array("i", _each_block(states, aug, positions).tobytes()), aug.maps.shape[0]

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
    v.  Subsets are tried in ascending size, all of one size together in
    blocks of bitmasks; supersets of kept sets are skipped, and once every
    subset of one size is skipped, all larger ones are.
    """
    size = len(succ)
    # A mask of 64 or more vertices does not fit int64: such masks are Python ints.
    dtype = np.int64 if size < 64 else object
    bit = 1 << np.arange(size).astype(dtype)
    heads = np.array(succ, dtype=dtype)
    everything = (1 << size) - 1
    kept = np.zeros(0, dtype=dtype)
    for r in range(1, size + 1):
        subsets = map(sum, combinations(bit.tolist(), r))
        rows = max(1, BREAKER_BLOCK // (size + kept.size))
        found, tried = [], False
        while (chosen := np.fromiter(islice(subsets, rows), dtype=dtype)).size:
            if kept.size:
                chosen = chosen[~((chosen[:, None] & kept) == kept).any(axis=1)]
            if chosen.size:
                tried = True
                found.append(chosen[_acyclic(everything ^ chosen, heads, bit)])
        if not tried:
            break
        kept = np.concatenate([kept, *found])
    return kept.tolist()


def _acyclic(alive: np.ndarray, heads: np.ndarray, bit: np.ndarray) -> np.ndarray:
    """Which vertex bitmasks in ``alive`` induce an acyclic subgraph.

    Every round removes each set's sinks (live vertices whose successor mask
    ``heads[v]`` misses the set) at once; a set is acyclic when this empties it.
    """
    while True:
        sinks = ((alive[:, None] & bit) != 0) & ((alive[:, None] & heads) == 0)
        gone = sinks @ bit
        if not gone.any():
            return alive == 0
        alive = alive ^ gone


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
    marked = candidate | part.s2
    return part.s1.issubset(robust_reach(marked, aug).union | marked)


def _warm_reach(target: StateSet, start: StateSet, aug: AugmentedSystem) -> StateSet:
    """``robust_reach(target, aug).union``, given ``start``, the union of a reach from a subset.

    A robust attractor grows with its target: for T1 <= T2 and start =
    reach(T1), reach(T2) = reach(T2 | start), so the states of ``start``
    count as arrived before the first layer.  This holds for the mirror
    closures that the reach reads, so i <= j halves may stand for them.
    """
    return robust_reach(target | start, aug).union | (start - target)


def minimal_targets(model: PbnModel, subset_cap: int = DEFAULT_SUBSET_CAP) -> AnalysisReport:
    """Run the full target-set search and return every minimal candidate."""
    if subset_cap < 0:
        raise ValueError(f"subset cap must be nonnegative, got {subset_cap}")
    aug = build_augmented(model)
    part = partition_states(model)
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
        # The targets are nested (s2, then core_target, then core_target | invariant),
        # so each reach starts from the union of the one before.  The s2 union is
        # off the diagonal and outside s2, so it is distinguishable.
        core_reach = _warm_reach(core_target, distinguishable, aug)
        residual = indist - (core | core_reach)
        if residual:
            invariant = maximum_invariant_set(residual, aug)
            anchors = minimal_anchor_sets(invariant, aug, cap=subset_cap)
            # With no invariant set, the widened target is core_reach's own target.
            widened = (
                _warm_reach(core_target | invariant, core_reach, aug) if invariant else core_reach
            )
            second_residual = residual - (invariant | widened)
            if second_residual:
                second_anchors = minimal_anchor_sets(second_residual, aug, cap=subset_cap)
        anchor_choices = anchors or (empty,)
        second_choices = second_anchors or (empty,)
        count = len(anchor_choices) * len(second_choices)
        check_size(count, universe, "anchor search: candidate sets")
        candidates = tuple(core | a | b for a in anchor_choices for b in second_choices)

    return AnalysisReport(
        system=aug,
        partition=part,
        observable=not indist,
        distinguishable=distinguishable,
        indistinguishable=indist,
        one_step_diagonal=diag_hitters,
        fixed_points=fixed,
        core=core,
        core_reach=core_reach,
        residual=residual,
        invariant_set=invariant,
        invariant_anchors=anchors,
        second_residual=second_residual,
        second_anchors=second_anchors,
        candidates=candidates,
        subset_cap=subset_cap,
    )
