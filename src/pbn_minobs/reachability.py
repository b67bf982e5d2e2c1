"""Probability-one reachability over the pair space.

A pair state robustly reaches a target when every switching sequence over the
positive-probability subnetworks drives it into the (accumulated) target in a
bounded number of steps.  The "probability = 1" test is support containment,
never floating-point summation against 1.0.
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

    Each layer is an ascending int64 array of 0-based pair indices; the layer
    sizes add up to ``len(union)``.
    """

    layers: tuple[np.ndarray, ...]
    union: StateSet
    steps: int


def one_step_robust(target: StateSet, aug: AugmentedSystem, exclude: StateSet) -> StateSet:
    """States outside ``exclude`` whose entire one-step support lies in ``target``."""
    if target.universe != aug.pair_count or exclude.universe != aug.pair_count:
        raise ValueError("state sets must live in the augmented pair space")
    return StateSet(aug.pair_count, aug.pre_all(target.bits) & ~exclude.bits)


def robust_reach(target: StateSet, aug: AugmentedSystem) -> ReachResult:
    """Layered probability-one reachable set of ``target``.

    Layer k holds the states arriving in exactly k steps once earlier layers
    and the target itself count as arrived; iteration stops at the first
    empty layer.

    Each pending state watches one successor, as SAT solvers watch literals:
    first its row-0 successor, later the first successor in row order that
    had not arrived when the state was last tested.  A layer reads each
    watch once and tests all k successors only of the states whose watch has
    arrived.  A failed test moves the watch to a later row, so a state is
    fully tested at most k times.  Arrived states watch a sentinel cell that
    never arrives and are dropped from the pending list once they make up
    half of it.
    """
    if target.universe != aug.pair_count:
        raise ValueError("state sets must live in the augmented pair space")
    sentinel = aug.pair_count
    arrived = np.zeros(sentinel + 1, dtype=bool)
    arrived[:sentinel] = target.bits
    pending = np.flatnonzero(~target.bits)
    watch = aug.successors[0][pending]
    gone = 0  # pending states that have arrived
    layers: list[np.ndarray] = []
    # Subsets are taken through index arrays: numpy's boolean-mask selection
    # is several times slower on masks with a random pattern.
    for _ in range(pending.size):  # a layer takes at least one pending state
        ready = np.flatnonzero(arrived[watch])  # positions in ``pending``
        if not ready.size:
            break
        layer = pending[ready]
        succ = aug.successors.take(layer, axis=1)
        inside = arrived[succ]
        # The first successor not yet arrived (row 0 where all have: those pass).
        watch[ready] = succ[inside.argmin(axis=0), np.arange(layer.size)]
        keep = np.flatnonzero(inside.all(axis=0))
        if not keep.size:
            break
        ready, layer = ready[keep], layer[keep]
        watch[ready] = sentinel
        arrived[layer] = True
        layers.append(layer)
        gone += layer.size
        if 2 * gone >= pending.size:
            keep = np.flatnonzero(watch != sentinel)
            pending, watch, gone = pending[keep], watch[keep], 0
    union = arrived[:sentinel]
    union &= ~target.bits
    return ReachResult(layers=tuple(layers), union=StateSet._own(union), steps=len(layers))


def robust_reach_oracle(target: StateSet, model: PbnModel, depth_cap: int) -> StateSet:
    """Slow reference for :func:`robust_reach`, by a different route.

    Shrinks the complement of the target to the region from which some
    switching sequence avoids the target forever; whatever cannot avoid it
    robustly reaches it.  Works on plain Python sets with successors looked
    up straight from the model's transition matrices.
    """
    size = model.state_count
    pair_count = size * size
    if target.universe != pair_count:
        raise ValueError("target must live in the pair space of the model")
    if depth_cap < pair_count:
        raise ValueError(f"depth_cap {depth_cap} is below the pair count {pair_count}")

    active_cols = [model.transitions[v].col_index for v in model.active]

    def successors(z: int) -> list[int]:
        i, j = divmod(z - 1, size)
        return [int((cols[i] - 1) * size + cols[j]) for cols in active_cols]

    target_idx = set(target.indices())
    avoid = {z for z in range(1, pair_count + 1) if z not in target_idx}
    for _ in range(depth_cap):
        keep = {z for z in avoid if any(s in avoid for s in successors(z))}
        if keep == avoid:
            break
        avoid = keep
    reaches = [z for z in range(1, pair_count + 1) if z not in target_idx and z not in avoid]
    return StateSet.from_indices(pair_count, reaches)
