import time
import tracemalloc

import numpy as np
import pytest

from pbn_minobs import (
    LogicalMatrix,
    ResourceLimitError,
    StateSet,
    StochasticMatrix,
    build_augmented,
    expected_transition,
    khatri_rao,
    mirror_index,
    one_step_robust,
    one_step_to_diagonal,
    pair_index,
    pair_map,
    pair_split,
    positive_prob_fixed_points,
    stp,
)

from conftest import Q_COLUMNS_EXPECTED, random_model
from test_acceptance import Q_BUILD_BUDGET_S


def weighted_sum(maps, weights):
    """``StochasticMatrix`` of logical matrices that share one shape."""
    return StochasticMatrix(maps[0].rows, np.stack([m.col_index - 1 for m in maps]), weights)


def literal_pair_expectation(model):
    """Expectation of the paired system via the dense dummy-operator product."""
    size = model.state_count
    m = model.m
    l_dense = np.hstack([t.dense() for t in model.transitions])
    first = stp(l_dense, np.kron(np.eye(m * size), np.ones((1, size))))
    second = stp(l_dense, np.kron(np.eye(m), np.ones((1, size))))
    f_dense = khatri_rao(first, second)
    q_dense = stp(f_dense, np.array(model.probs).reshape(-1, 1))
    return f_dense, q_dense


def test_expected_q_columns(apoptosis):
    aug = build_augmented(apoptosis)
    for j, expected in Q_COLUMNS_EXPECTED.items():
        got = aug.q_matrix.column_dict(j)
        assert set(got) == set(expected)
        for row, prob in expected.items():
            assert got[row] == pytest.approx(prob, abs=1e-12)


def test_pair_maps_share_the_switching_signal(apoptosis):
    aug = build_augmented(apoptosis)
    size = apoptosis.state_count
    for base in apoptosis.transitions:
        pm = pair_map(base)
        for i in (1, 3, 8):
            for j in (2, 5, 7):
                z = pair_index(i, j, apoptosis.n)
                assert pair_split(pm.column(z), apoptosis.n) == (
                    base.column(i),
                    base.column(j),
                )
    assert aug.pair_count == size * size


def test_index_arithmetic_matches_literal_product():
    rng = np.random.default_rng(21)
    for _ in range(100):
        model = random_model(rng, n=int(rng.integers(2, 5)), m=int(rng.integers(1, 4)))
        aug = build_augmented(model)
        f_dense, q_dense = literal_pair_expectation(model)
        pairs = model.state_count**2
        for v, t in enumerate(model.transitions):
            block = f_dense[:, v * pairs : (v + 1) * pairs]
            assert np.array_equal(block, pair_map(t).dense())
        assert np.allclose(aug.q_matrix.dense(), q_dense, atol=1e-12)
        from_maps = weighted_sum([pair_map(t) for t in model.transitions], model.probs)
        for z in range(1, pairs + 1):
            assert aug.q_matrix.column_dict(z) == from_maps.column_dict(z)
        assert np.array_equal(aug.q_matrix.dense(), from_maps.dense())


def test_diagonal_columns_stay_diagonal():
    rng = np.random.default_rng(22)
    for _ in range(40):
        model = random_model(rng)
        aug = build_augmented(model)
        size = model.state_count
        for i in range(1, size + 1):
            z = pair_index(i, i, model.n)
            for row in aug.q_matrix.column_dict(z):
                a, b = pair_split(row, model.n)
                assert a == b


def test_mirror_equivariance():
    rng = np.random.default_rng(23)
    for _ in range(40):
        model = random_model(rng)
        aug = build_augmented(model)
        pairs = model.state_count**2
        cols = rng.integers(1, pairs + 1, size=12)
        for z in cols:
            mirrored = mirror_index(int(z), model.n)
            col = aug.q_matrix.column_dict(int(z))
            mcol = aug.q_matrix.column_dict(mirrored)
            assert mcol == {mirror_index(r, model.n): p for r, p in col.items()}


def test_marginalizing_second_copy_gives_single_step_matrix():
    rng = np.random.default_rng(24)
    for _ in range(25):
        model = random_model(rng)
        aug = build_augmented(model)
        px = expected_transition(model)
        size = model.state_count
        for j in range(1, size + 1):
            z = pair_index(j, j, model.n)
            marginal = np.zeros(size)
            for row, prob in aug.q_matrix.column_dict(z).items():
                a, _ = pair_split(row, model.n)
                marginal[a - 1] += prob
            expected_col = np.zeros(size)
            for row, prob in px.column_dict(j).items():
                expected_col[row - 1] = prob
            assert np.allclose(marginal, expected_col, atol=1e-12)


def test_expected_transition_examples(apoptosis):
    px = expected_transition(apoptosis)
    assert px.column_dict(1) == pytest.approx({1: 0.07, 3: 0.63, 5: 0.03, 7: 0.27}, abs=1e-12)
    assert px.column_dict(4) == {4: pytest.approx(1.0, abs=1e-12)}

    single = random_model(np.random.default_rng(25), m=1)
    px_single = expected_transition(single)
    for j in range(1, single.state_count + 1):
        assert px_single.column_dict(j) == {single.transitions[0].column(j): 1.0}


def test_zero_probability_subnetworks_excluded_from_support(apoptosis):
    model = random_model(np.random.default_rng(26), n=3, m=3, allow_zero_probs=False)
    probs = (0.5, 0.5, 0.0)
    from pbn_minobs import PbnModel

    model = PbnModel(
        n=model.n, q=model.q, transitions=model.transitions, output=model.output, probs=probs
    )
    aug = build_augmented(model)
    dead = model.transitions[2]
    size = model.state_count
    for z in range(1, size * size + 1):
        i, j = pair_split(z, model.n)
        dead_target = pair_index(dead.column(i), dead.column(j), model.n)
        support = aug.q_matrix.column_dict(z)
        live = {
            pair_index(t.column(i), t.column(j), model.n)
            for t, p in zip(model.transitions, probs)
            if p > 0
        }
        assert set(support) == live
        if dead_target not in live:
            assert dead_target not in support


def test_q_matrix_columns_sum_to_one_and_merged_maps_densify(apoptosis):
    aug = build_augmented(apoptosis)

    dense_like = weighted_sum([LogicalMatrix(2, [1, 2]), LogicalMatrix(2, [2, 1])], [0.5, 0.5])

    assert np.allclose(aug.q_matrix.dense().sum(axis=0), 1.0, atol=1e-9)
    assert dense_like.dense().tolist() == [[0.5, 0.5], [0.5, 0.5]]


def test_column_sums_validated():
    with pytest.raises(ValueError, match="sums to"):
        weighted_sum([LogicalMatrix(2, [1, 2])], [0.5])


def test_member_operators_match_column_support():
    rng = np.random.default_rng(71)
    picks = np.random.default_rng(73)  # the excluded sets, so the models stay those of rng 71
    for _ in range(220):
        model = random_model(rng)
        aug = build_augmented(model)
        inside = rng.random(aug.pair_count) < rng.random()
        exclude = picks.random(aug.pair_count) < picks.random()
        states = StateSet(aug.pair_count, inside)
        diagonal = one_step_to_diagonal(states, aug)
        fixed = positive_prob_fixed_points(states, aug)
        robust = one_step_robust(states, aug, StateSet(aug.pair_count, exclude))
        diagonal_pairs = {pair_index(i, i, model.n) for i in range(1, model.state_count + 1)}
        for z in range(1, aug.pair_count + 1):
            keys = aug.q_matrix.column_dict(z)
            member = bool(inside[z - 1])
            assert (z in diagonal) == (member and any(w in diagonal_pairs for w in keys))
            assert (z in fixed) == (member and z in keys)
            assert (z in robust) == (not exclude[z - 1] and all(inside[w - 1] for w in keys))


def test_successors_from_the_maps_are_the_positive_probability_pair_maps():
    rng = np.random.default_rng(72)
    for _ in range(240):
        model = random_model(rng, n=int(rng.integers(1, 6)), m=int(rng.integers(1, 5)))
        aug = build_augmented(model)
        k, size = len(model.active), model.state_count
        assert aug.maps.shape == (k, size) and aug.maps.dtype == np.intp
        assert not aug.maps.flags.writeable and not aug.shifted.flags.writeable
        assert np.array_equal(aug.shifted, aug.maps << model.n)
        pairs = np.arange(aug.pair_count)
        succ = aug.successors(pairs)
        assert succ.shape == (k, size * size) and succ.dtype == np.intp
        picked = rng.integers(0, aug.pair_count, size=int(rng.integers(0, 40)))
        for row, v in enumerate(model.active):
            expected = pair_map(model.transitions[v]).col_index - 1
            assert np.array_equal(succ[row], expected)
            assert np.array_equal(aug.successors(picked, slice(row, row + 1))[0], expected[picked])


def test_q_matrix_is_built_on_first_access_within_budget(apoptosis):
    aug = build_augmented(apoptosis)
    # The system holds its model, the k x 2^n maps and the maps shifted by n;
    # nothing sized by the pair space.
    assert set(vars(aug)) == {"model", "maps", "shifted"}
    assert aug.shifted.shape == aug.maps.shape
    assert aug.q_matrix is aug.q_matrix

    def time_q_build():
        fresh = build_augmented(apoptosis)
        start = time.perf_counter()
        fresh.q_matrix
        return time.perf_counter() - start

    best = min(time_q_build() for _ in range(5))
    assert best < Q_BUILD_BUDGET_S, f"q_matrix build took {best * 1000:.2f} ms"


def reference_weighted_sum(maps, weights):
    """Per-column dict of summed weights, adding contributions in map order."""
    columns = []
    for j in range(maps[0].cols):
        acc: dict[int, float] = {}
        for m, w in zip(maps, weights):
            if w > 0.0:
                r = int(m.col_index[j])
                acc[r] = acc.get(r, 0.0) + w
        columns.append(acc)
    return columns


def test_weighted_maps_match_per_column_reference():
    rng = np.random.default_rng(73)
    for _ in range(320):
        model = random_model(rng)
        for base in (list(model.transitions), [pair_map(t) for t in model.transitions]):
            maps, weights = base, list(model.probs)
            if rng.random() < 0.5:
                # Split the first weight over a repeated map: every column collides.
                maps, weights = base + [base[0]], [weights[0] / 2, *weights[1:], weights[0] / 2]
            q = weighted_sum(maps, weights)
            expected = reference_weighted_sum(maps, weights)
            ref_dense = np.zeros((q.rows, q.cols))
            for j, acc in enumerate(expected, start=1):
                assert q.column_dict(j) == acc
                assert tuple(q.column_dict(j)) == tuple(sorted(acc))
                for r, value in acc.items():
                    ref_dense[r - 1, j - 1] = value
            assert np.array_equal(q.dense(), ref_dense)
        aug = build_augmented(model)
        rows = aug.successors(np.arange(aug.pair_count))
        succ_maps = [LogicalMatrix(aug.pair_count, row + 1) for row in rows]
        expected = reference_weighted_sum(succ_maps, [model.probs[v] for v in aug.active])
        ref_dense = np.zeros((aug.pair_count, aug.pair_count))
        for j, acc in enumerate(expected, start=1):
            assert aug.q_matrix.column_dict(j) == acc
            assert tuple(aug.q_matrix.column_dict(j)) == tuple(sorted(acc))
            for r, value in acc.items():
                ref_dense[r - 1, j - 1] = value
        assert np.array_equal(aug.q_matrix.dense(), ref_dense)


def test_weighted_maps_reject_bad_input():
    maps = [LogicalMatrix(2, [1, 2])] * 3
    for weights in ([float("nan"), 0.5, 0.5], [float("inf"), 0.0, 0.0], [0.5, 0.5, -0.3]):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            weighted_sum(maps, weights)


@pytest.mark.parametrize(
    "maps, weights, message",
    [
        ([0, 1], [1.0], "non-empty 2-D integer array"),
        ([[0.0, 1.0]], [1.0], "non-empty 2-D integer array"),
        (np.zeros((0, 2), dtype=int), [], "non-empty 2-D integer array"),
        ([[0, 1], [1, 0]], [1.0], "one weight per map"),
        ([[0, 1], [1, 0]], [1.0, np.nan], "finite and nonnegative"),
        ([[0, 1], [1, 0]], [1.5, -0.5], "finite and nonnegative"),
        ([[0, 1], [1, 0]], [0.5, 0.25], "sums to 0.75"),
        ([[0, 2]], [1.0], r"map rows must lie in \[0, 1\]"),
        ([[-1, 1]], [1.0], r"map rows must lie in \[0, 1\]"),
    ],
)
def test_stochastic_matrix_rejects_bad_maps(maps, weights, message):
    with pytest.raises(ValueError, match=message):
        StochasticMatrix(2, np.array(maps), weights)


def test_stochastic_matrix_never_aliases_a_callers_array():
    writable = np.array([[0, 1], [1, 1], [1, 0]])
    q = StochasticMatrix(2, writable, [0.5, 0.0, 0.5])
    writable[:] = 0
    assert q.column_dict(1) == {1: 0.5, 2: 0.5} and tuple(q.column_dict(2)) == (1, 2)
    frozen = np.array([[0, 1], [1, 0]])
    frozen.setflags(write=False)
    assert StochasticMatrix(2, frozen, [0.5, 0.5]).dense().tolist() == [[0.5, 0.5], [0.5, 0.5]]


def test_q_matrix_keeps_the_one_pair_map_array_it_builds():
    model = random_model(np.random.default_rng(74), n=7, m=4, allow_zero_probs=False)
    aug = build_augmented(model)
    expected = aug.successors(np.arange(aug.pair_count))
    tracemalloc.start()
    try:
        q = aug.q_matrix
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # q_matrix keeps the one k x 4^n array of pair maps it made (512 KiB here), not a copy.
    assert expected.nbytes <= held < expected.nbytes * 5 // 4, held
    assert q is aug.q_matrix


def test_q_matrix_checked_against_dimension_cap_on_first_read(apoptosis, monkeypatch):
    k, pairs = len(apoptosis.active), apoptosis.state_count**2
    monkeypatch.setenv("PBN_MINOBS_MAX_DIM", str(k * pairs - 1))
    aug = build_augmented(apoptosis)
    with pytest.raises(ResourceLimitError, match=f"pair expectation of size {k}x{pairs}"):
        aug.q_matrix
    monkeypatch.setenv("PBN_MINOBS_MAX_DIM", str(k * pairs))
    assert aug.q_matrix.cols == pairs


def test_dense_expectation_checked_against_dimension_cap(apoptosis, monkeypatch):
    monkeypatch.setenv("PBN_MINOBS_MAX_DIM", "1000")
    q = build_augmented(apoptosis).q_matrix
    with pytest.raises(ResourceLimitError, match="entry cap 1000"):
        q.dense()
