"""Probability-one reachability over the pair space.

A pair state robustly reaches a target when every switching sequence over the
positive-probability subnetworks drives it into the (accumulated) target in a
bounded number of steps.  The "probability = 1" test is support containment,
never floating-point summation against 1.0.

The dynamics commute with the mirror (i, j) -> (j, i), so a pair robustly
reaches a mirror-closed target exactly when its mirror does.
:func:`robust_reach` therefore reads its target as the target's mirror closure
and returns i <= j halves, the one form of a pair-space set (see
:mod:`.partition`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .augmented import AugmentedSystem
from .model import PbnModel
from .partition import StateSet


@dataclass(frozen=True)
class ReachResult:
    """Per-step layers of newly arriving states plus their union.

    Each layer is an ascending int64 array of the 0-based indices of the i <= j
    pairs arriving at that step; ``union`` is the i <= j set of every layer.
    """

    layers: tuple[np.ndarray, ...]
    union: StateSet
    steps: int


def one_step_robust(target: StateSet, aug: AugmentedSystem, exclude: StateSet) -> StateSet:
    """States outside ``exclude`` whose entire one-step support lies in ``target``.

    This is the one-step robust set of the paper's robust set reachability:
    the states that reach ``target`` with probability one in one step.
    :func:`robust_reach` does not call it; it is the reference that
    ``test_layers_match_one_step_sweeps_on_random_models`` compares each
    ``robust_reach`` layer against.
    """
    if target.universe != aug.pair_count or exclude.universe != aug.pair_count:
        raise ValueError("state sets must live in the augmented pair space")
    z = (~exclude.bits).nonzero()[0]
    stays = target.bits[aug.successors(z)].all(axis=0)
    return StateSet.from_indices(aug.pair_count, z[stays] + 1)


def robust_reach(target: StateSet, aug: AugmentedSystem) -> ReachResult:
    """Layered probability-one reachable set of ``target``.

    Layer k holds the states arriving in exactly k steps once earlier layers
    and the target itself count as arrived; iteration stops at the first
    empty layer.

    ``target`` is read as its mirror closure: a pair and its mirror arrive
    together, so only the i <= j pairs are pending, each arriving pair marks
    its mirror too (pair i * 2^n + j swaps its halves to j * 2^n + i), and
    the layers and the union hold the i <= j half.

    Each pending state watches one successor, as SAT solvers watch literals:
    first its row-0 successor, later the smallest successor that had not
    arrived when the state was last tested.  A layer reads each watch once
    and tests all k successors only of the states whose watch has arrived.
    Each test after the first is set off by the arrival of a successor that
    had not arrived at the test before, so a state is fully tested at most k
    times.  The arrived successors of a tested state read as a sentinel cell
    that never arrives, so the new watch is the sentinel exactly when every
    successor has arrived: then the state arrives, and it keeps watching the
    sentinel.  Arrived states are dropped from the pending list once they
    make up half of it.
    """
    if target.universe != aug.pair_count:
        raise ValueError("state sets must live in the augmented pair space")
    n = aug.model.n
    size = 1 << n
    sentinel = size * size
    arrived = np.zeros(sentinel + 1, dtype=bool)
    closed = arrived[:sentinel].reshape(size, size)
    grid = target.bits.reshape(size, size)
    np.logical_or(grid, grid.T, out=closed)
    ranks = np.arange(size)
    pending = ranks[:, None] <= ranks
    np.greater(pending, closed, out=pending)
    pending = pending.reshape(-1).nonzero()[0]  # the i <= j pairs outside the closure
    watch = aug.successors(pending, slice(1))[0]
    gone = 0  # pending states that have arrived
    layers: list[np.ndarray] = []
    # Subsets are taken through index arrays: numpy's boolean-mask selection
    # is several times slower on masks with a random pattern.  A 1-D mask's
    # ``nonzero`` skips the microseconds of ``np.flatnonzero``'s wrappers.
    for _ in range(pending.size):  # a layer takes at least one pending state
        ready = arrived[watch].nonzero()[0]  # positions in ``pending``
        if not ready.size:
            break
        layer = pending[ready]
        succ = aug.successors(layer)
        np.putmask(succ, arrived[succ], sentinel)
        watch[ready] = succ = succ.min(axis=0)  # the sentinel where every successor has arrived
        keep = (succ == sentinel).nonzero()[0]
        if not keep.size:
            break
        layer = layer[keep]
        arrived[layer] = arrived[((layer & (size - 1)) << n) | (layer >> n)] = True
        layers.append(layer)
        gone += layer.size
        if 2 * gone >= pending.size:
            keep = (watch != sentinel).nonzero()[0]
            pending, watch, gone = pending[keep], watch[keep], 0
    union = arrived[:sentinel]
    union[:] = False
    for layer in layers:
        union[layer] = True
    return ReachResult(layers=tuple(layers), union=StateSet._own(union), steps=len(layers))


def robust_reach_oracle(target: StateSet, model: PbnModel) -> StateSet:
    """Slow reference for :func:`robust_reach`, by a different route.

    Shrinks the complement of the target to the region from which some
    switching sequence avoids the target forever; whatever cannot avoid it
    robustly reaches it; the avoid set shrinks each round until it is stable.
    Works on plain Python sets with successors looked up straight from the
    model's transition matrices.
    """
    size = model.state_count
    pair_count = size * size
    if target.universe != pair_count:
        raise ValueError("target must live in the pair space of the model")

    active_cols = [model.transitions[v].col_index for v in model.active]

    def successors(z: int) -> list[int]:
        i, j = divmod(z - 1, size)
        return [int((cols[i] - 1) * size + cols[j]) for cols in active_cols]

    target_idx = set(target.indices())
    avoid = {z for z in range(1, pair_count + 1) if z not in target_idx}
    while True:
        keep = {z for z in avoid if any(s in avoid for s in successors(z))}
        if keep == avoid:
            break
        avoid = keep
    reaches = [z for z in range(1, pair_count + 1) if z not in target_idx and z not in avoid]
    return StateSet.from_indices(pair_count, reaches)
