import numpy as np
import pytest

from pbn_minobs import (
    LogicalMatrix,
    build_augmented,
    expected_transition,
    khatri_rao,
    mirror_index,
    pair_index,
    pair_split,
    stp,
)

from conftest import Q_COLUMNS_EXPECTED, random_model


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
    for v, pm in enumerate(aug.maps):
        base = apoptosis.transitions[v]
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
        for v, pm in enumerate(aug.maps):
            block = f_dense[:, v * pairs : (v + 1) * pairs]
            assert np.array_equal(block, pm.dense())
        assert np.allclose(aug.q_matrix.dense(), q_dense, atol=1e-12)


def test_diagonal_columns_stay_diagonal():
    rng = np.random.default_rng(22)
    for _ in range(40):
        model = random_model(rng)
        aug = build_augmented(model)
        size = model.state_count
        for i in range(1, size + 1):
            z = pair_index(i, i, model.n)
            for row in aug.q_matrix.column_support(z):
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
        support = aug.q_matrix.column_support(z)
        live = {
            pair_index(t.column(i), t.column(j), model.n)
            for t, p in zip(model.transitions, probs)
            if p > 0
        }
        assert set(support) == live
        if dead_target not in live:
            assert dead_target not in support


def test_storage_switches_between_dense_and_sparse(apoptosis):
    aug = build_augmented(apoptosis)
    assert not aug.q_matrix.is_dense  # 64x64 with <=4 entries per column

    from pbn_minobs import StochasticMatrix

    dense_like = StochasticMatrix.from_weighted_maps(
        [LogicalMatrix(2, [1, 2]), LogicalMatrix(2, [2, 1])], [0.5, 0.5]
    )
    assert dense_like.is_dense  # every entry populated

    assert np.allclose(aug.q_matrix.dense().sum(axis=0), 1.0, atol=1e-9)


def test_column_sums_validated():
    from pbn_minobs import StochasticMatrix

    with pytest.raises(ValueError, match="sums to"):
        StochasticMatrix.from_weighted_maps([LogicalMatrix(2, [1, 2])], [0.5])


def test_pre_image_operators_match_column_support():
    rng = np.random.default_rng(71)
    for _ in range(220):
        model = random_model(rng)
        aug = build_augmented(model)
        inside = rng.random(aug.pair_count) < rng.random()
        pre_all = aug.pre_all(inside)
        pre_any = aug.pre_any(inside)
        for z in range(1, aug.pair_count + 1):
            hits = [bool(inside[w - 1]) for w in aug.column_support(z)]
            assert pre_all[z - 1] == all(hits)
            assert pre_any[z - 1] == any(hits)


def test_pair_output_is_built_on_first_access(apoptosis):
    aug = build_augmented(apoptosis)
    assert "pair_output" not in vars(aug)
    assert aug.pair_output is aug.pair_output
    assert aug.pair_output.rows == 4
