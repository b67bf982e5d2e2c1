"""Stochastic and exhaustive checks of pair distinguishability.

Both network copies always share one switching draw per step.  Randomness
comes from numpy's default generator (PCG64); trial t of an estimate uses the
substream seeded with seed + t, so runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError
from .model import PbnModel
from .partition import StateSet, pair_index

DEFAULT_STEP_BUDGET = 10**7


@dataclass(frozen=True)
class Trajectory:
    """One sampled run: states x(0..T), outputs y(0..T), switches sigma(0..T-1)."""

    states: tuple[int, ...]
    outputs: tuple[int, ...]
    switches: tuple[int, ...]
    seed: int


def _draw_switch(model: PbnModel, cumulative: np.ndarray, rng: np.random.Generator) -> int:
    v = int(np.searchsorted(cumulative, rng.random(), side="right"))
    v = min(v, model.m - 1)
    while model.probs[v] <= 0.0:
        v -= 1
    return v


def sample_trajectory(model: PbnModel, x0: int, horizon: int, seed: int) -> Trajectory:
    """Run the network ``horizon`` steps from state ``x0``; switches are i.i.d.

    ``horizon`` must fit the step budget.
    """
    if not 1 <= x0 <= model.state_count:
        raise ValueError(f"state {x0} out of range [1, {model.state_count}]")
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    if horizon > DEFAULT_STEP_BUDGET:
        raise ResourceLimitError(
            f"trajectory needs {horizon} steps, over the budget {DEFAULT_STEP_BUDGET}; "
            "lower the horizon"
        )
    rng = np.random.default_rng(seed)
    cumulative = np.cumsum(model.probs)
    states = [x0]
    switches = []
    for _ in range(horizon):
        v = _draw_switch(model, cumulative, rng)
        switches.append(v + 1)
        states.append(model.transitions[v].column(states[-1]))
    outputs = [model.output.column(s) for s in states]
    return Trajectory(tuple(states), tuple(outputs), tuple(switches), seed)


def estimate_distinguishability(
    model: PbnModel, x0: int, x0_other: int, horizon: int, trials: int, seed: int
) -> float:
    """Fraction of shared-switching runs whose output sequences differ by ``horizon``.

    ``horizon * trials`` must fit the step budget, for every pair alike.
    """
    for x in (x0, x0_other):
        if not 1 <= x <= model.state_count:
            raise ValueError(f"state {x} out of range [1, {model.state_count}]")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    if horizon * trials > DEFAULT_STEP_BUDGET:
        raise ResourceLimitError(
            f"simulation needs up to {horizon} x {trials} = {horizon * trials} steps, "
            f"over the budget {DEFAULT_STEP_BUDGET}; lower the horizon or the trial count"
        )
    out = model.output.col_index
    if x0 == x0_other:
        return 0.0
    if out[x0 - 1] != out[x0_other - 1]:
        return 1.0
    cumulative = np.cumsum(model.probs)
    hits = 0
    for t in range(trials):
        rng = np.random.default_rng(seed + t)
        a, b = x0, x0_other
        for _ in range(horizon):
            v = _draw_switch(model, cumulative, rng)
            a = model.transitions[v].column(a)
            b = model.transitions[v].column(b)
            if out[a - 1] != out[b - 1]:
                hits += 1
                break
            if a == b:
                break
    return hits / trials


def pairs_distinguishable_within(model: PbnModel, horizon: int) -> StateSet:
    """Pairs whose outputs differ at some step <= ``horizon`` under every switching.

    Computed over all pair states at once: a pair qualifies now, or all of
    its one-step images qualify within one step less.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    size = model.state_count
    out = model.output.col_index
    base = (out[:, None] != out[None, :]).reshape(-1)
    succ = []
    for v in model.active:
        col = model.transitions[v].col_index
        succ.append((((col - 1) * size)[:, None] + (col - 1)[None, :]).ravel())
    current = base.copy()
    for _ in range(horizon):
        step = current[succ[0]]
        for row in succ[1:]:
            step &= current[row]
        grown = base | step
        if np.array_equal(grown, current):
            break
        current = grown
    return StateSet.from_bool_array(current)


def exhaustive_distinguishability(
    model: PbnModel,
    x0: int,
    x0_other: int,
    horizon: int,
    budget: int = DEFAULT_STEP_BUDGET,
) -> bool:
    """Whether every length-``horizon`` switching sequence separates the outputs.

    Only positive-probability subnetworks participate.  The check is memoized
    over pair states: at most min(horizon, 4^n) sweeps of every active pair
    map, and that step count must fit the budget.
    """
    for x in (x0, x0_other):
        if not 1 <= x <= model.state_count:
            raise ValueError(f"state {x} out of range [1, {model.state_count}]")
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    k = len(model.active)
    pair_count = model.state_count**2
    cost = min(max(horizon, 1), pair_count) * pair_count * k
    if cost > budget:
        raise ResourceLimitError(
            f"exhaustive check needs about {cost} pair-state steps, "
            f"over the budget {budget}; use the reachability analysis instead"
        )
    separated = pairs_distinguishable_within(model, horizon)
    return pair_index(x0, x0_other, model.n) in separated
