import numpy as np
import pytest

from pbn_minobs import (
    LogicalMatrix,
    PbnModel,
    StateSet,
    build_augmented,
    mirror_close,
    one_step_robust,
    pair_index,
    partition_states,
    robust_reach,
    robust_reach_oracle,
)

from conftest import random_model


def test_one_step_full_target_returns_everything(apoptosis):
    aug = build_augmented(apoptosis)
    full = StateSet.full(aug.pair_count)
    empty = StateSet.empty(aug.pair_count)
    assert one_step_robust(full, aug, empty) == full
    assert one_step_robust(empty, aug, empty) == empty


def test_one_step_support_containment_example(apoptosis):
    aug = build_augmented(apoptosis)
    part = partition_states(apoptosis)
    extra = StateSet.from_indices(64, [24, 29, 31, 36, 52])
    target = mirror_close(part.s2 | extra, 3)
    result = one_step_robust(target, aug, target)
    assert 7 in result
    assert set(aug.q_matrix.column_support(7)) == {8, 24, 36, 52}


def test_reach_of_distinguishable_region_is_empty(apoptosis):
    aug = build_augmented(apoptosis)
    part = partition_states(apoptosis)
    result = robust_reach(mirror_close(part.s2, 3), aug)
    assert not result.union
    assert result.steps == 0


def test_reach_of_core_target_covers_the_rest(apoptosis):
    aug = build_augmented(apoptosis)
    part = partition_states(apoptosis)
    core = StateSet.from_indices(64, [4, 5, 14, 24, 29, 31])
    result = robust_reach(mirror_close(core | part.s2, 3), aug)
    for z in (7, 11, 16, 22, 48):
        assert z in result.union


def test_layers_are_disjoint_and_exclude_target(apoptosis):
    aug = build_augmented(apoptosis)
    part = partition_states(apoptosis)
    core = StateSet.from_indices(64, [4, 5, 14, 24, 29, 31])
    target = mirror_close(core | part.s2, 3)
    result = robust_reach(target, aug)
    assert result.steps == len(result.layers) <= aug.pair_count
    seen = StateSet.empty(aug.pair_count)
    for layer in result.layers:
        layer = StateSet.from_indices(aug.pair_count, layer + 1)
        assert layer
        assert layer.isdisjoint(target)
        assert layer.isdisjoint(seen)
        seen = seen | layer
    assert seen == result.union


def test_single_subnetwork_degenerates_to_orbit_basin():
    # Deterministic dynamics: reach of an absorbing set is its forward basin.
    rng = np.random.default_rng(41)
    for _ in range(20):
        model = random_model(rng, m=1)
        aug = build_augmented(model)
        size = model.state_count
        pairs = size * size
        col = model.transitions[0].col_index

        def pair_step(z):
            i, j = divmod(z - 1, size)
            return int((col[i] - 1) * size + col[j])

        seeds = rng.integers(1, pairs + 1, size=3)
        target = mirror_close(StateSet.from_indices(pairs, (int(s) for s in seeds)), model.n)
        basin = []
        for z in range(1, pairs + 1):
            if z in target:
                continue
            cur, steps = z, 0
            while cur not in target and steps <= pairs:
                cur = pair_step(cur)
                steps += 1
            if cur in target:
                basin.append(z)
        assert robust_reach(target, aug).union == StateSet.from_indices(pairs, basin)


def test_oracle_agrees_on_random_models():
    rng = np.random.default_rng(42)
    for _ in range(40):
        model = random_model(rng, n=int(rng.integers(2, 5)))
        aug = build_augmented(model)
        part = partition_states(model)
        pairs = model.state_count**2
        targets = [mirror_close(part.s2, model.n)]
        raw = rng.integers(1, pairs + 1, size=max(2, pairs // 16))
        targets.append(mirror_close(StateSet.from_indices(pairs, (int(z) for z in raw)), model.n))
        for target in targets:
            assert robust_reach(target, aug).union == robust_reach_oracle(
                target, model, depth_cap=pairs
            )


def test_monotone_and_idempotent():
    rng = np.random.default_rng(43)
    for _ in range(20):
        model = random_model(rng, n=3)
        aug = build_augmented(model)
        pairs = model.state_count**2
        small_raw = rng.integers(1, pairs + 1, size=4)
        small = mirror_close(StateSet.from_indices(pairs, (int(z) for z in small_raw)), model.n)
        extra_raw = rng.integers(1, pairs + 1, size=4)
        big = small | mirror_close(
            StateSet.from_indices(pairs, (int(z) for z in extra_raw)), model.n
        )
        reach_small = robust_reach(small, aug)
        reach_big = robust_reach(big, aug)
        assert reach_small.union.issubset(reach_big.union | big)
        again = robust_reach(small | reach_small.union, aug)
        assert not again.union - (reach_small.union | small)


def test_escaping_branch_excludes_predecessors():
    # The target pair (1,2) is fixed by the first subnetwork but escapes to
    # the absorbing pair (1,3) under the second; the predecessor (1,4) whose
    # arrival needs the fixed branch therefore never arrives robustly.
    t1 = LogicalMatrix(4, [1, 2, 3, 2])
    t2 = LogicalMatrix(4, [1, 3, 3, 3])
    model = PbnModel(
        n=2,
        q=1,
        transitions=(t1, t2),
        output=LogicalMatrix(2, [1, 1, 1, 1]),
        probs=(0.5, 0.5),
    )
    aug = build_augmented(model)
    z = pair_index(1, 2, 2)
    assert aug.q_matrix.diagonal_entry(z) == pytest.approx(0.5)
    union = robust_reach(StateSet.from_indices(16, [z]), aug).union
    assert pair_index(1, 4, 2) not in union
    assert pair_index(1, 3, 2) not in union
    assert not union


def test_oracle_depth_cap_validated(apoptosis):
    target = StateSet.from_indices(64, [2])
    with pytest.raises(ValueError):
        robust_reach_oracle(target, apoptosis, depth_cap=10)


def _reference_layers(target, aug):
    """Layers by repeated full one-step sweeps, as 0-based index arrays."""
    layers, arrived = [], target
    while True:
        layer = one_step_robust(arrived, aug, arrived)
        if not layer:
            return layers
        layers.append(np.flatnonzero(layer.bits))
        arrived = arrived | layer


def _check_layers(target, aug):
    """Assert that ``robust_reach`` gives the reference layers; return its result."""
    result = robust_reach(target, aug)
    expected = _reference_layers(target, aug)
    assert result.steps == len(result.layers) == len(expected)
    seen = target.bits.copy()
    for layer, ref in zip(result.layers, expected):
        assert layer.dtype == np.int64
        assert np.array_equal(layer, ref)
        assert layer.size and (np.diff(layer) > 0).all()
        assert not seen[layer].any()
        seen[layer] = True
    assert sum(layer.size for layer in result.layers) == len(result.union)
    assert result.union == StateSet(aug.pair_count, seen) - target
    return result


def test_layers_match_one_step_sweeps_on_random_models():
    rng = np.random.default_rng(44)
    layered = 0
    for _ in range(240):
        model = random_model(rng, n=int(rng.integers(2, 6)))
        aug = build_augmented(model)
        pairs = aug.pair_count
        raw = rng.integers(1, pairs + 1, size=int(rng.integers(1, pairs // 4 + 2)))
        targets = [
            mirror_close(partition_states(model).s2, model.n),
            StateSet.from_indices(pairs, raw),  # seldom mirror-closed
        ]
        for target in targets:
            layered += bool(_check_layers(target, aug).steps)
    assert layered >= 200


def test_empty_and_full_targets_have_no_layers():
    rng = np.random.default_rng(45)
    for _ in range(30):
        aug = build_augmented(random_model(rng))
        for target in (StateSet.empty(aug.pair_count), StateSet.full(aug.pair_count)):
            result = _check_layers(target, aug)
            assert result.steps == 0 and not result.union


def _with_probs(model, probs):
    return PbnModel(
        n=model.n, q=model.q, transitions=model.transitions, output=model.output, probs=probs
    )


def test_layers_with_one_positive_probability_row():
    # k = 1: every state has one successor, so the watch is the whole test.
    rng = np.random.default_rng(46)
    layered = 0
    for t in range(60):
        model = random_model(rng, n=int(rng.integers(2, 6)), m=int(rng.integers(1, 4)))
        probs = np.zeros(model.m)
        probs[t % model.m] = 1.0
        aug = build_augmented(_with_probs(model, tuple(probs.tolist())))
        assert aug.successors.shape[0] == 1
        pairs = aug.pair_count
        raw = rng.integers(1, pairs + 1, size=int(rng.integers(1, pairs // 4 + 2)))
        for target in (mirror_close(partition_states(model).s2, model.n),
                       StateSet.from_indices(pairs, raw)):
            layered += bool(_check_layers(target, aug).steps)
    assert layered >= 50


def test_layers_with_zero_probability_subnetworks():
    # Zero-probability subnetworks have no successor row, so they never hold a state back.
    rng = np.random.default_rng(47)
    layered = 0
    for _ in range(60):
        model = random_model(rng, n=int(rng.integers(2, 6)), m=4, allow_zero_probs=False)
        live = rng.random(4) < 0.5
        live[int(rng.integers(0, 4))] = True
        weights = np.where(live, rng.random(4) + 0.1, 0.0)
        zeroed = _with_probs(model, tuple((weights / weights.sum()).tolist()))
        aug = build_augmented(zeroed)
        assert aug.successors.shape[0] == live.sum()
        pairs = aug.pair_count
        raw = rng.integers(1, pairs + 1, size=int(rng.integers(1, pairs // 4 + 2)))
        for target in (mirror_close(partition_states(model).s2, model.n),
                       StateSet.from_indices(pairs, raw)):
            layered += bool(_check_layers(target, aug).steps)
            assert robust_reach(target, aug).union == robust_reach_oracle(
                target, zeroed, depth_cap=pairs
            )
    assert layered >= 50


def test_reach_rejects_target_from_another_universe(apoptosis):
    aug = build_augmented(apoptosis)
    with pytest.raises(ValueError):
        robust_reach(StateSet.from_indices(16, [2]), aug)
