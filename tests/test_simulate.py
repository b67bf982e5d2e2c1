import numpy as np
import pytest

from pbn_minobs import (
    ResourceLimitError,
    build_augmented,
    estimate_distinguishability,
    exhaustive_distinguishability,
    extend_output,
    mirror_close,
    pair_index,
    pairs_distinguishable_within,
    partition_states,
    robust_reach,
    sample_trajectory,
)
from pbn_minobs.simulate import DEFAULT_STEP_BUDGET

from conftest import random_model


def test_trajectory_fixed_state_stays_put(apoptosis):
    for seed in (0, 1, 99):
        traj = sample_trajectory(apoptosis, 4, horizon=12, seed=seed)
        assert traj.states == (4,) * 13
        assert traj.outputs == (2,) * 13


def test_trajectory_horizon_zero(apoptosis):
    traj = sample_trajectory(apoptosis, 2, horizon=0, seed=5)
    assert traj.states == (2,)
    assert traj.switches == ()
    assert traj.outputs == (apoptosis.output.column(2),)


def test_trajectory_deterministic_under_single_subnetwork():
    rng = np.random.default_rng(71)
    model = random_model(rng, m=1)
    runs = [sample_trajectory(model, 1, horizon=10, seed=s).states for s in (1, 2, 3)]
    assert runs[0] == runs[1] == runs[2]


def test_trajectory_reproducible_and_consistent(apoptosis):
    a = sample_trajectory(apoptosis, 2, horizon=40, seed=123)
    b = sample_trajectory(apoptosis, 2, horizon=40, seed=123)
    assert a == b
    for t, v in enumerate(a.switches):
        assert apoptosis.transitions[v - 1].column(a.states[t]) == a.states[t + 1]
    for s, y in zip(a.states, a.outputs):
        assert apoptosis.output.column(s) == y


def test_trajectory_never_uses_zero_probability_subnetwork():
    rng = np.random.default_rng(72)
    base = random_model(rng, n=2, m=3, allow_zero_probs=False)
    from pbn_minobs import PbnModel

    model = PbnModel(
        n=base.n,
        q=base.q,
        transitions=base.transitions,
        output=base.output,
        probs=(0.4, 0.6, 0.0),
    )
    for seed in range(10):
        traj = sample_trajectory(model, 1, horizon=50, seed=seed)
        assert 3 not in traj.switches


def test_estimate_edge_cases(apoptosis):
    assert estimate_distinguishability(apoptosis, 3, 3, 10, 50, 0) == 0.0
    # (1,2) differs at time zero.
    assert estimate_distinguishability(apoptosis, 1, 2, 0, 50, 0) == 1.0


def test_estimate_fixed_point_pair_stays_below_one(apoptosis):
    est = estimate_distinguishability(apoptosis, 1, 4, horizon=20, trials=1000, seed=7)
    assert est < 1.0
    repeat = estimate_distinguishability(apoptosis, 1, 4, horizon=20, trials=1000, seed=7)
    assert est == repeat


def test_exhaustive_examples(apoptosis):
    # (3,6) maps deterministically to (4,5), indistinguishable through step 1.
    assert not exhaustive_distinguishability(apoptosis, 3, 6, horizon=1)
    assert exhaustive_distinguishability(apoptosis, 1, 2, horizon=0)
    extended = extend_output(apoptosis, (2, 1))
    assert exhaustive_distinguishability(extended, 2, 3, horizon=2)


def test_exhaustive_budget(apoptosis):
    # The memoized fixpoint costs 256 steps at horizon 1, though only 4 sequences exist.
    for horizon in (64, 1):
        with pytest.raises(ResourceLimitError, match="budget"):
            exhaustive_distinguishability(apoptosis, 1, 4, horizon=horizon, budget=100)


def test_exhaustive_matches_reachability_analysis():
    rng = np.random.default_rng(73)
    for _ in range(30):
        model = random_model(rng, n=int(rng.integers(2, 5)))
        aug = build_augmented(model)
        part = partition_states(model)
        pairs = model.state_count**2
        separated = pairs_distinguishable_within(model, pairs)
        analytic = robust_reach(mirror_close(part.s2, model.n), aug).union
        for z in part.s1.indices():
            assert (z in separated) == (z in analytic)


def test_monte_carlo_sanity_on_bundled_model(apoptosis):
    # Pairs that separate robustly must estimate at essentially one even with
    # a long horizon and many trials; on this model those are the pairs whose
    # outputs already differ, so the estimate is exactly one.
    horizon = apoptosis.state_count**2
    part = partition_states(apoptosis)
    for z in tuple(part.s2.indices())[:4]:
        i, j = (z - 1) // 8 + 1, (z - 1) % 8 + 1
        est = estimate_distinguishability(apoptosis, i, j, horizon, trials=10_000, seed=3)
        assert est >= 0.99


def test_monte_carlo_agrees_with_analysis():
    rng = np.random.default_rng(74)
    checked = 0
    for _ in range(20):
        model = random_model(rng, n=2)
        aug = build_augmented(model)
        part = partition_states(model)
        analytic = robust_reach(mirror_close(part.s2, model.n), aug).union
        horizon = model.state_count**2
        for z in (part.s1 & analytic).indices():
            i, j = (z - 1) // model.state_count + 1, (z - 1) % model.state_count + 1
            est = estimate_distinguishability(model, i, j, horizon, trials=400, seed=11)
            assert est == 1.0  # robust separation leaves no escaping sequence
            checked += 1
        if checked > 8:
            break
    assert checked


def test_invalid_inputs(apoptosis):
    with pytest.raises(ValueError):
        sample_trajectory(apoptosis, 9, 5, 0)
    with pytest.raises(ValueError):
        estimate_distinguishability(apoptosis, 0, 1, 5, 10, 0)
    with pytest.raises(ValueError):
        estimate_distinguishability(apoptosis, 1, 2, 5, 0, 0)
    with pytest.raises(ValueError):
        exhaustive_distinguishability(apoptosis, 1, 65, 5)
    with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
        sample_trajectory(apoptosis, 1, 5, -1)
    for pair in ((1, 2), (2, 3), (2, 2)):
        with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
            estimate_distinguishability(apoptosis, *pair, 5, 10, -1)


def test_estimate_step_budget_refuses_every_pair_alike(apoptosis):
    # Pairs (3,3) and (1,2) return at once and (2,3) runs trials; each is
    # refused before any of that once horizon * trials passes the budget.
    trials = 1000
    horizon = DEFAULT_STEP_BUDGET // trials
    assert estimate_distinguishability(apoptosis, 3, 3, horizon, trials, 0) == 0.0
    assert estimate_distinguishability(apoptosis, 1, 2, horizon, trials, 0) == 1.0
    for pair in ((3, 3), (1, 2), (2, 3)):
        with pytest.raises(ResourceLimitError, match=f"{horizon + 1} x {trials}.*budget"):
            estimate_distinguishability(apoptosis, *pair, horizon + 1, trials, 0)
        with pytest.raises(ResourceLimitError, match=str(2**63)):
            estimate_distinguishability(apoptosis, *pair, 1, 2**63, 0)


def test_trajectory_step_budget(apoptosis, monkeypatch):
    with pytest.raises(ResourceLimitError, match=f"{10**30} steps.*budget {DEFAULT_STEP_BUDGET}"):
        sample_trajectory(apoptosis, 1, 10**30, 0)
    monkeypatch.setattr("pbn_minobs.simulate.DEFAULT_STEP_BUDGET", 50)
    assert len(sample_trajectory(apoptosis, 2, 50, 0).states) == 51
    with pytest.raises(ResourceLimitError, match="51 steps, over the budget 50"):
        sample_trajectory(apoptosis, 2, 51, 0)
