import math
import tracemalloc

import numpy as np
import pytest

from pbn_minobs import (
    LogicalMatrix,
    PbnModel,
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
from pbn_minobs import simulate
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


def test_exhaustive_budget():
    # n = 11 with three positive subnetworks: the memoized fixpoint costs
    # 4^11 x 3 > 10^7 steps at horizon 1, though only 3 sequences exist.
    size = 1 << 11
    model = PbnModel(
        n=11,
        q=1,
        transitions=(LogicalMatrix.identity(size),) * 3,
        output=LogicalMatrix(2, np.arange(size) % 2 + 1),
        probs=(0.2, 0.3, 0.5),
    )
    for horizon, cost in ((64, 64 * 4**11 * 3), (1, 4**11 * 3)):
        message = f"about {cost} pair-state steps, over the budget {DEFAULT_STEP_BUDGET};"
        with pytest.raises(ResourceLimitError, match=message):
            exhaustive_distinguishability(model, 1, 4, horizon=horizon)


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


# The exact separation probability, by propagating a pair through the paper's
# expected pair map: an oracle for robust_reach's layers and for the estimate.


def _separated(model):
    """0-based pair states whose outputs differ, as a 4^n bool array."""
    out = model.output.col_index
    return (out[:, None] != out).reshape(-1)


def _first_empty_support(aug, separated, z):
    """The first step at which every switching sequence from pair ``z`` has separated it.

    Separated pairs leave the support.  None when the support is never empty:
    it repeats (so cycles) or stays non-empty through 4^n steps.
    """
    support, seen = np.array([z]), set()
    for step in range(1, aug.pair_count + 1):
        support = np.unique(aug.successors(support))
        support = support[~separated[support]]
        if not support.size:
            return step
        if support.tobytes() in seen:
            return None
        seen.add(support.tobytes())
    return None


def _exact_separation(model, aug, separated, z, horizon):
    """P_T for T = 0..horizon: the probability that pair ``z``'s outputs differ by step T.

    Mass is absorbed at separation and dropped where the two states merge.
    """
    size = model.state_count
    probs = np.array([model.probs[v] for v in model.active])
    succ = aug.successors(np.arange(size * size))
    mass = np.zeros(size * size)
    mass[z] = 1.0
    absorbed = [float(separated[z])]
    for _ in range(horizon):
        weights = (probs[:, None] * mass).ravel()
        mass = np.bincount(succ.ravel(), weights=weights, minlength=size * size)
        absorbed.append(absorbed[-1] + mass[separated].sum())
        mass[separated] = 0.0
        mass[:: size + 1] = 0.0  # the diagonal: merged states never separate
    return absorbed


def _oracle_models():
    rng = np.random.default_rng(2027)
    for _ in range(40):
        model = random_model(rng, n=int(rng.integers(2, 5)))
        yield model, build_augmented(model), partition_states(model)


def test_first_empty_support_is_the_robust_reach_layer():
    in_union = outside = 0
    for model, aug, part in _oracle_models():
        layer_of = {}
        for step, layer in enumerate(robust_reach(part.s2, aug).layers, start=1):
            layer_of.update(dict.fromkeys(layer.tolist(), step))
        separated = _separated(model)
        size = model.state_count
        for z in range(size * size):
            if z // size <= z % size and not separated[z]:  # each output-equal i <= j pair
                assert _first_empty_support(aug, separated, z) == layer_of.get(z), z
                in_union += z in layer_of
                outside += z not in layer_of
    assert in_union > 100 and outside > 100


def _bernstein_bound(p, trials, failure=1e-6):
    """By Bernstein's inequality, the mean of ``trials`` Bernoulli(p) draws lies
    farther than this from p with probability below ``failure``."""
    log = math.log(2 / failure)
    return math.sqrt(2 * p * (1 - p) * log / trials) + 2 * log / (3 * trials)


def test_estimate_lies_within_a_binomial_bound_of_the_exact_probability():
    trials, horizons = 400, (1, 2, 3, 5, 8)
    exact_ones = inside = 0
    for model, aug, part in _oracle_models():
        separated = _separated(model)
        size = model.state_count
        for z in part.s1.indices()[:6]:
            z -= 1
            exact = _exact_separation(model, aug, separated, z, max(horizons))
            emptied = _first_empty_support(aug, separated, z)
            for horizon in horizons:
                p = exact[horizon]
                est = estimate_distinguishability(
                    model, z // size + 1, z % size + 1, horizon, trials, seed=horizon
                )
                if emptied is not None and emptied <= horizon:
                    assert abs(p - 1.0) < 1e-9 and est == 1.0, (z, horizon)
                    exact_ones += 1
                    continue
                if p == 0.0:
                    assert est == 0.0, (z, horizon)
                assert abs(est - p) <= _bernstein_bound(p, trials), (z, horizon, est, p)
                inside += 0.0 < p < 1.0
    assert exact_ones > 50 and inside > 50


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


def test_estimate_horizon_zero_sets_up_no_substream(apoptosis):
    # An output-equal distinct pair at horizon 0 passes the budget for any
    # trial count (0 x trials = 0) and must return without drawing.
    assert estimate_distinguishability(apoptosis, 1, 4, 0, 2**63, 0) == 0.0


def _reference_switch(model, cumulative, rng):
    """One generator call and the clip-and-step-back switch rule."""
    v = min(int(np.searchsorted(cumulative, rng.random(), side="right")), model.m - 1)
    while model.probs[v] <= 0.0:
        v -= 1
    return v


def _reference_trajectory_states(model, x0, horizon, seed):
    rng = np.random.default_rng(seed)
    cumulative = np.cumsum(model.probs)
    states, switches = [x0], []
    for _ in range(horizon):
        v = _reference_switch(model, cumulative, rng)
        switches.append(v + 1)
        states.append(model.transitions[v].column(states[-1]))
    return tuple(states), tuple(switches)


def test_trajectory_matches_per_step_loop(apoptosis):
    rng = np.random.default_rng(75)
    dead = random_model(rng, n=3, m=4, allow_zero_probs=False)
    dead = PbnModel(dead.n, dead.q, dead.transitions, dead.output, (0.0, 0.5, 0.0, 0.5))
    models = (apoptosis, random_model(rng, n=4, m=3, allow_zero_probs=False), dead)
    for model in models:
        for seed in range(50):
            traj = sample_trajectory(model, 1 + seed % model.state_count, 30, seed)
            assert (traj.states, traj.switches) == _reference_trajectory_states(
                model, 1 + seed % model.state_count, 30, seed
            )


SEED_EDGES = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96 + 7, 2**128 - 1, 2**128,
              2**200 + 12345)


def _assert_substreams(base, count):
    words = simulate._seed_words(base, count)
    uniforms = simulate._uniforms(*simulate._advance(simulate._pcg_states(base, count), 64))
    for t in range(count):
        expected = np.random.SeedSequence(base + t).generate_state(4, np.uint64)
        assert np.array_equal(words[:, t], expected), base + t
        assert np.array_equal(uniforms[:, t], np.random.default_rng(base + t).random(64)), base + t


def test_bulk_seeds_match_numpy_generators():
    for s in SEED_EDGES:
        _assert_substreams(s, 1)
    for s in np.random.default_rng(76).integers(0, 2**63, 500):
        _assert_substreams(int(s), 1)
    # One call whose seeds cross 2^64, 2^128 (where a fifth entropy word
    # appears) and 2^160.
    for edge in (2**64, 2**128, 2**160):
        _assert_substreams(edge - 3, 6)


def _reference_loop(model, x0, x0_other, horizon, trials, seed):
    """The plain per-trial loop on an output-equal distinct pair, one
    default_rng(seed + t) generator per trial: (separated trials, steps run)."""
    out = model.output.col_index
    cumulative = np.cumsum(model.probs)
    hits = steps = 0
    for t in range(trials):
        rng = np.random.default_rng(seed + t)
        a, b = x0, x0_other
        for _ in range(horizon):
            steps += 1
            v = _reference_switch(model, cumulative, rng)
            a = model.transitions[v].column(a)
            b = model.transitions[v].column(b)
            if out[a - 1] != out[b - 1]:
                hits += 1
                break
            if a == b:
                break
    return hits, steps


def _reference_estimate(model, x0, x0_other, horizon, trials, seed):
    """The per-trial loop's estimate, with the estimator's answers for equal
    states and output-different pairs."""
    out = model.output.col_index
    if x0 == x0_other:
        return 0.0
    if out[x0 - 1] != out[x0_other - 1]:
        return 1.0
    return _reference_loop(model, x0, x0_other, horizon, trials, seed)[0] / trials


def _equal_output_pairs(model):
    out = model.output.col_index
    return [
        (i, j)
        for i in range(1, model.state_count + 1)
        for j in range(i + 1, model.state_count + 1)
        if out[i - 1] == out[j - 1]
    ]


def _lazy_cycle(n):
    """A rotation taken with probability 0.01, else the identity: with a
    one-state output, far pairs take thousands of steps to separate."""
    size = 1 << n
    states = np.arange(1, size + 1)
    return PbnModel(
        n=n,
        q=1,
        transitions=(LogicalMatrix(size, states), LogicalMatrix(size, np.roll(states, 1))),
        output=LogicalMatrix(2, np.where(states == 1, 2, 1)),
        probs=(0.99, 0.01),
    )


def test_estimate_matches_per_trial_loop():
    rng = np.random.default_rng(77)
    checked = strict = 0
    while checked < 300:
        model = random_model(rng, n=int(rng.integers(1, 6)), m=int(rng.integers(1, 5)))
        pairs = _equal_output_pairs(model)
        if not pairs:
            continue
        i, j = pairs[int(rng.integers(len(pairs)))]
        horizon, trials = int(rng.integers(0, 101)), int(rng.integers(1, 701))
        seed = int(rng.integers(0, 2**63)) if checked % 10 else 2**128 - int(rng.integers(1, 700))
        expected = _reference_estimate(model, i, j, horizon, trials, seed)
        assert estimate_distinguishability(model, i, j, horizon, trials, seed) == expected
        checked += 1
        strict += 0.0 < expected < 1.0
    assert strict > 30
    # Past two full 1024-step blocks, trials that span a chunk boundary, and
    # blocks of 9 and 10 steps clipped by the cell cap at 7114 and 6520 live
    # trials.
    model = _lazy_cycle(5)
    for (i, j), horizon, trials in (
        ((32, 31), 2500, 20),
        ((2, 5), 12, simulate._CHUNK + 40),
        ((2, 5), 40, simulate._CHUNK),
    ):
        expected = _reference_estimate(model, i, j, horizon, trials, 5)
        assert 0.0 < expected < 1.0
        assert estimate_distinguishability(model, i, j, horizon, trials, 5) == expected


def test_estimate_draws_at_most_twice_the_steps_trials_run(monkeypatch):
    # Blocks of 2, 4, 8, ... steps: a trial that ends at step s has drawn
    # fewer than 2s + 2 steps when its block ends.
    advance = simulate._advance
    drawn = 0

    def counting_advance(state, k):
        nonlocal drawn
        drawn += k * state.shape[1]
        return advance(state, k)

    monkeypatch.setattr(simulate, "_advance", counting_advance)
    rng = np.random.default_rng(78)
    checked = 0
    while checked < 60:
        model = random_model(rng, n=int(rng.integers(1, 6)))
        pairs = _equal_output_pairs(model)
        if not pairs:
            continue
        i, j = pairs[int(rng.integers(len(pairs)))]
        horizon, trials = int(rng.integers(1, 60)), int(rng.integers(1, 400))
        seed = int(rng.integers(0, 2**63))
        hits, steps = _reference_loop(model, i, j, horizon, trials, seed)
        drawn = 0
        assert estimate_distinguishability(model, i, j, horizon, trials, seed) == hits / trials
        # _pcg_states takes one seeding step per trial.
        assert drawn - trials <= 2 * steps + 2 * trials, (drawn - trials, steps, trials)
        checked += 1


def test_estimate_memory_does_not_grow_with_trials(apoptosis):
    tracemalloc.start()
    try:
        est = estimate_distinguishability(apoptosis, 2, 3, 1, 10**7, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 < est < 1.0
    assert peak < 64 * 2**20, peak
    # A slice of the same substreams, mid-run, against the plain loop.
    start = 5 * 10**6
    assert estimate_distinguishability(apoptosis, 2, 3, 1, 10**5, start) == _reference_estimate(
        apoptosis, 2, 3, 1, 10**5, start
    )
