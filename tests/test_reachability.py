import tracemalloc
from collections import Counter

import numpy as np
import pytest

from pbn_minobs import (
    AugmentedSystem,
    LogicalMatrix,
    PbnModel,
    StateSet,
    build_augmented,
    mirror_close,
    one_step_robust,
    pair_index,
    pair_map,
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
    assert set(aug.q_matrix.column_dict(7)) == {8, 24, 36, 52}


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
    assert seen == _canonical(result.union, 3)


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
        union = robust_reach(target, aug).union
        assert mirror_close(union, model.n) == StateSet.from_indices(pairs, basin)


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
            union = robust_reach(target, aug).union
            assert mirror_close(union, model.n) == robust_reach_oracle(target, model)


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
    assert aug.q_matrix.entry(z, z) == pytest.approx(0.5)
    union = robust_reach(mirror_close(StateSet.from_indices(16, [z]), 2), aug).union
    assert pair_index(1, 4, 2) not in union
    assert pair_index(1, 3, 2) not in union
    assert not union


def _reference_layers(target, aug):
    """Layers by repeated full one-step sweeps, as 0-based index arrays."""
    layers, arrived = [], target
    while True:
        layer = one_step_robust(arrived, aug, arrived)
        if not layer:
            return layers
        layers.append(np.flatnonzero(layer.bits))
        arrived = arrived | layer


def _canonical(states, n):
    """The i <= j half of ``states``."""
    size = 1 << n
    upper = np.arange(size)[:, None] <= np.arange(size)
    return StateSet(states.universe, states.bits & upper.reshape(-1))


def _canonical_layer(layer, n):
    """The i <= j half of an ascending array of 0-based pair indices."""
    return layer[(layer >> n) <= (layer & ((1 << n) - 1))]


def _check_layers(target, aug):
    """Assert that ``robust_reach`` gives the canonical halves of the reference layers.

    Returns its result.
    """
    n = aug.model.n
    result = robust_reach(target, aug)
    expected = [_canonical_layer(ref, n) for ref in _reference_layers(target, aug)]
    assert result.steps == len(result.layers) == len(expected)
    seen = target.bits.copy()
    for layer, ref in zip(result.layers, expected):
        assert layer.dtype == np.int64
        assert np.array_equal(layer, ref)
        assert layer.size and (np.diff(layer) > 0).all()
        assert not seen[layer].any()
        seen[layer] = True
    canonical_union = _canonical(result.union, n)
    assert sum(layer.size for layer in result.layers) == len(canonical_union)
    assert canonical_union == StateSet(aug.pair_count, seen) - target
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
            mirror_close(StateSet.from_indices(pairs, raw), model.n),
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
        assert aug.maps.shape[0] == 1
        pairs = aug.pair_count
        raw = rng.integers(1, pairs + 1, size=int(rng.integers(1, pairs // 4 + 2)))
        for target in (mirror_close(partition_states(model).s2, model.n),
                       mirror_close(StateSet.from_indices(pairs, raw), model.n)):
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
        assert aug.maps.shape[0] == live.sum()
        pairs = aug.pair_count
        raw = rng.integers(1, pairs + 1, size=int(rng.integers(1, pairs // 4 + 2)))
        for target in (mirror_close(partition_states(model).s2, model.n),
                       mirror_close(StateSet.from_indices(pairs, raw), model.n)):
            layered += bool(_check_layers(target, aug).steps)
            union = robust_reach(target, aug).union
            assert mirror_close(union, model.n) == robust_reach_oracle(target, zeroed)
    assert layered >= 50


def test_reach_rejects_target_from_another_universe(apoptosis):
    aug = build_augmented(apoptosis)
    with pytest.raises(ValueError):
        robust_reach(StateSet.from_indices(16, [2]), aug)


def _stored_array_layers(target, model):
    """Layers by full sweeps over a stored k x 4^n successor array of the pair maps."""
    stored = np.stack([pair_map(model.transitions[v]).col_index - 1 for v in model.active])
    arrived, layers = target.bits.copy(), []
    while True:
        layer = np.flatnonzero(~arrived & arrived[stored].all(axis=0))
        if not layer.size:
            return layers
        layers.append(layer)
        arrived[layer] = True


def test_layers_from_the_maps_match_a_stored_successor_array():
    rng = np.random.default_rng(48)
    layered = 0
    for _ in range(220):
        model = random_model(rng, n=int(rng.integers(1, 6)), m=int(rng.integers(1, 5)))
        aug = build_augmented(model)
        pairs = aug.pair_count
        raw = rng.integers(1, pairs + 1, size=int(rng.integers(1, pairs // 4 + 2)))
        for target in (mirror_close(partition_states(model).s2, model.n),
                       mirror_close(StateSet.from_indices(pairs, raw), model.n)):
            result = robust_reach(target, aug)
            expected = _stored_array_layers(target, model)
            assert len(result.layers) == len(expected)
            for layer, ref in zip(result.layers, expected):
                assert np.array_equal(layer, _canonical_layer(ref, model.n))
            assert mirror_close(result.union, model.n) == robust_reach_oracle(target, model)
            layered += bool(result.steps)
    assert layered >= 200


def test_quotient_reach_matches_both_references_on_random_models():
    # Every layer is the i <= j half of the full-space layer, by one-step sweeps
    # and by a stored successor array; the union is the oracle's.
    rng = np.random.default_rng(2020)
    seen = {"one row": 0, "zero probability": 0, "layered": 0}
    for t in range(320):
        model = random_model(rng, n=1 + t % 6, m=1 if t % 5 == 0 else int(rng.integers(2, 5)))
        aug = build_augmented(model)
        seen["one row"] += aug.maps.shape[0] == 1
        seen["zero probability"] += aug.maps.shape[0] < model.m
        pairs = aug.pair_count
        raw = rng.integers(1, pairs + 1, size=int(rng.integers(1, pairs // 4 + 2)))
        for target in (mirror_close(partition_states(model).s2, model.n),
                       mirror_close(StateSet.from_indices(pairs, raw), model.n)):
            result = robust_reach(target, aug)
            for references in (_reference_layers(target, aug), _stored_array_layers(target, model)):
                assert len(result.layers) == len(references)
                for layer, ref in zip(result.layers, references):
                    assert np.array_equal(layer, _canonical_layer(ref, model.n))
            assert mirror_close(result.union, model.n) == robust_reach_oracle(target, model)
            seen["layered"] += bool(result.steps)
    assert seen["one row"] >= 64 and seen["zero probability"] >= 60, seen
    assert seen["layered"] >= 400, seen


def test_reach_reads_any_target_as_its_mirror_closure():
    # A random set, and a mirror closure with one member above or below the
    # diagonal toggled without its mirror: the set, its closure and the
    # closure's i <= j half give the same layers and union, an i <= j half.
    rng = np.random.default_rng(2021)
    mixed = 0
    for _ in range(200):
        model = random_model(rng, n=int(rng.integers(1, 5)))
        aug = build_augmented(model)
        n, pairs = model.n, aug.pair_count
        bits = rng.random(pairs) < rng.choice([0.05, 0.5, 0.95])
        for target in (StateSet(pairs, bits), _flip_one(bits, n, rng)):
            closed = mirror_close(target, n)
            mixed += closed != target
            first, *others = (robust_reach(t, aug) for t in (target, _canonical(closed, n), closed))
            for other in others:
                assert other.steps == first.steps
                assert all(map(np.array_equal, other.layers, first.layers))
                assert other.union == first.union
            assert _canonical(first.union, n) == first.union
            assert mirror_close(first.union, n) == robust_reach_oracle(closed, model)
    assert mixed >= 250


def _flip_one(bits, n, rng):
    """The mirror closure of ``bits`` with one off-diagonal member toggled, not its mirror."""
    size = 1 << n
    grid = bits.reshape(size, size)
    closed = grid | grid.T
    i, j = rng.choice(size, 2, replace=False)
    closed[i, j] = not closed[i, j]
    return StateSet(size * size, closed.reshape(-1))


def test_build_and_reach_never_make_a_k_by_pair_space_array():
    # The workload family (k = 4 subnetworks, q = 2 outputs) at n = 7: one
    # k x 4^n int64 array alone would take 512 KiB.
    rng = np.random.default_rng(49)
    for _ in range(5):
        model = random_model(rng, n=7, m=4, q=2, allow_zero_probs=False)
        target = mirror_close(partition_states(model).s2, model.n)
        tracemalloc.start()
        try:
            result = robust_reach(target, build_augmented(model))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.steps
        assert peak < 4 * 4**7 * np.dtype(np.int64).itemsize, peak


def test_reach_holds_no_array_beyond_pending_and_watch():
    # Two listed pairs at n = 10 leave nearly every i <= j pair pending.  The
    # pending and watch arrays and their setup peak at 4.25 units of 8 bytes
    # per i <= j pair; a third pending-sized array, such as stored mirror
    # indices, would take it to 5.25.
    model = random_model(np.random.default_rng(10), n=10, m=4, q=2, allow_zero_probs=False)
    aug = build_augmented(model)
    target = StateSet.from_indices(aug.pair_count, [2, 3])
    tracemalloc.start()
    try:
        robust_reach(target, aug)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = model.state_count
    unit = np.dtype(np.int64).itemsize * size * (size + 1) // 2
    assert peak <= 4.75 * unit, peak / unit


def _swapping_map(rng, size):
    """A state map that swaps random disjoint pairs of states and fixes the rest."""
    image = np.arange(size)
    moved = rng.permutation(size)[: 2 * int(rng.integers(1, size // 2 + 1))].reshape(-1, 2)
    image[moved[:, 0]], image[moved[:, 1]] = moved[:, 1], moved[:, 0]
    return LogicalMatrix(size, image + 1)


def test_reach_fully_tests_each_pending_state_at_most_k_times(monkeypatch):
    # A full test reads all k successors of a state; the watch reads only row 0.
    tests = Counter()
    full_read = AugmentedSystem.successors

    def counted(self, z, rows=slice(None)):
        if rows == slice(None):
            tests.update(z.tolist())
        return full_read(self, z, rows)

    monkeypatch.setattr(AugmentedSystem, "successors", counted)
    rng = np.random.default_rng(2024)
    seen = {"swapping": 0, "zero probability": 0, "retested": 0, "k tests": 0}
    for t in range(200):
        model = random_model(rng, n=2 + t % 5, m=int(rng.integers(1, 5)))
        if t % 2:
            swaps = _swapping_map(rng, model.state_count)
            model = PbnModel(n=model.n, q=model.q, transitions=(swaps, *model.transitions[1:]),
                             output=model.output, probs=model.probs)
        aug = build_augmented(model)
        k, size = aug.maps.shape
        states = np.arange(size)
        back = np.take_along_axis(aug.maps, aug.maps, axis=1) == states  # f(f(i)) = i
        seen["swapping"] += bool((back & (aug.maps != states)).any())
        seen["zero probability"] += k < model.m
        pairs = aug.pair_count
        raw = rng.integers(1, pairs + 1, size=int(rng.integers(1, pairs // 4 + 2)))
        for target in (partition_states(model).s2, StateSet.from_indices(pairs, raw)):
            tests.clear()
            result = robust_reach(target, aug)
            most = max(tests.values(), default=0)
            assert most <= k
            seen["retested"] += most > 1
            seen["k tests"] += most == k > 1
            closed = mirror_close(target, model.n)
            assert mirror_close(result.union, model.n) == robust_reach_oracle(closed, model)
    assert seen["swapping"] >= 100 and seen["zero probability"] >= 30, seen
    assert seen["retested"] >= 80 and seen["k tests"] >= 30, seen
