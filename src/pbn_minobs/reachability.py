"""Probability-one reachability over the pair space.

A pair state robustly reaches a target when every switching sequence over the
positive-probability subnetworks drives it into the (accumulated) target in a
bounded number of steps.  The "probability = 1" test is support containment,
never floating-point summation against 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .augmented import AugmentedSystem
from .model import PbnModel
from .partition import StateSet


@dataclass(frozen=True)
class ReachResult:
    """Per-step layers of newly arriving states plus their union."""

    layers: tuple[StateSet, ...]
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
    """
    layers: list[StateSet] = []
    arrived = target
    while True:
        layer = one_step_robust(arrived, aug, arrived)
        if not layer:
            break
        layers.append(layer)
        arrived = arrived | layer
    return ReachResult(layers=tuple(layers), union=arrived - target, steps=len(layers))


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
