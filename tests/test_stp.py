import numpy as np
import pytest

from pbn_minobs import (
    LogicalMatrix,
    ModelFormatError,
    khatri_rao,
    kron,
    logical_compose,
    parse_model,
    stp,
)
from pbn_minobs.errors import ResourceLimitError

from conftest import APOPTOSIS_H, APOPTOSIS_L, APOPTOSIS_P


def random_logical(rng, rows=None, cols=None):
    rows = int(rows if rows is not None else rng.integers(1, 9))
    cols = int(cols if cols is not None else rng.integers(1, 9))
    return LogicalMatrix(rows, rng.integers(1, rows + 1, cols))


def test_stp_of_unit_vectors_concatenates():
    a = LogicalMatrix.delta(2, 1).dense()
    b = LogicalMatrix.delta(2, 2).dense()
    assert np.array_equal(stp(a, b), LogicalMatrix.delta(4, 2).dense())


def test_stp_identity_absorbs():
    rng = np.random.default_rng(1)
    m = rng.random((2, 5))
    assert np.allclose(stp(np.eye(2), m), m)


def test_stp_weighted_combination_of_subnetworks():
    l_dense = np.hstack([LogicalMatrix(8, cols).dense() for cols in APOPTOSIS_L])
    p = np.array(APOPTOSIS_P).reshape(-1, 1)
    px = stp(l_dense, p)
    assert px.shape == (8, 8)
    expected_col1 = np.zeros(8)
    for weight, row in zip((0.07, 0.63, 0.03, 0.27), (1, 3, 5, 7)):
        expected_col1[row - 1] = weight
    assert np.allclose(px[:, 0], expected_col1, atol=1e-12)


def test_stp_reduces_to_matrix_product_when_conforming():
    rng = np.random.default_rng(2)
    for _ in range(200):
        r, k, c = (int(x) for x in rng.integers(1, 9, 3))
        a = rng.random((r, k))
        b = rng.random((k, c))
        assert np.allclose(stp(a, b), a @ b, atol=1e-12)


def test_stp_associative_on_random_triples():
    rng = np.random.default_rng(3)
    for _ in range(200):
        dims = [int(x) for x in rng.integers(1, 9, 6)]
        a = rng.random((dims[0], dims[1]))
        b = rng.random((dims[2], dims[3]))
        c = rng.random((dims[4], dims[5]))
        left = stp(stp(a, b), c)
        right = stp(a, stp(b, c))
        assert left.shape == right.shape
        assert np.allclose(left, right, atol=1e-12)


def test_kron_identities():
    assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))
    out = kron(LogicalMatrix.delta(2, 2), LogicalMatrix.delta(2, 1))
    assert out == LogicalMatrix.delta(4, 3)


def test_kron_of_output_matrix_with_itself():
    h = LogicalMatrix(2, APOPTOSIS_H)
    k = kron(h, h)
    assert (k.rows, k.cols) == (4, 64)
    assert k.column(4) == 4


def test_khatri_rao_index_arithmetic():
    a = LogicalMatrix(2, [1, 2])
    b = LogicalMatrix(2, [1, 1])
    assert khatri_rao(a, b) == LogicalMatrix(4, [1, 3])


def test_khatri_rao_column_count_mismatch():
    with pytest.raises(ValueError):
        khatri_rao(LogicalMatrix(2, [1, 2]), LogicalMatrix(2, [1]))


def test_khatri_rao_diagonal_embedding():
    rng = np.random.default_rng(4)
    m = random_logical(rng, rows=4, cols=6)
    sq = khatri_rao(m, m)
    for c in range(1, m.cols + 1):
        i = m.column(c)
        assert sq.column(c) == (i - 1) * m.rows + i


def test_logical_compose_examples():
    neg = LogicalMatrix(2, [2, 1])
    assert logical_compose(neg, neg) == LogicalMatrix.identity(2)
    l1 = LogicalMatrix(8, APOPTOSIS_L[0])
    assert logical_compose(LogicalMatrix.identity(8), l1) == l1
    h = LogicalMatrix(2, APOPTOSIS_H)
    assert logical_compose(h, l1) == LogicalMatrix(2, [2, 2, 2, 2, 2, 2, 2, 1])


def test_logical_compose_dimension_mismatch():
    with pytest.raises(ValueError):
        logical_compose(LogicalMatrix(2, [1, 2]), LogicalMatrix(3, [1, 2, 3]))


def test_logical_ops_close_and_match_dense():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        a = random_logical(rng)
        b = random_logical(rng, rows=a.cols)
        composed = logical_compose(a, b)
        assert isinstance(composed, LogicalMatrix)
        assert np.allclose(composed.dense(), stp(a.dense(), b.dense()))
        kr_b = random_logical(rng, cols=a.cols)
        kr = khatri_rao(a, kr_b)
        assert isinstance(kr, LogicalMatrix)
        cols = [np.kron(a.dense()[:, c], kr_b.dense()[:, c]) for c in range(a.cols)]
        assert np.allclose(kr.dense(), np.stack(cols, axis=1))
        kk = kron(a, kr_b)
        assert isinstance(kk, LogicalMatrix)
        assert np.allclose(kk.dense(), np.kron(a.dense(), kr_b.dense()))


def test_dimension_cap_enforced(monkeypatch):
    monkeypatch.setenv("PBN_MINOBS_MAX_DIM", "100")
    with pytest.raises(ResourceLimitError):
        kron(np.ones((20, 20)), np.ones((20, 20)))
    with pytest.raises(ResourceLimitError):
        stp(np.ones((3, 64)), np.ones((48, 1)))


def test_logical_matrix_validation():
    with pytest.raises(ValueError):
        LogicalMatrix(2, [0, 1])
    with pytest.raises(ValueError):
        LogicalMatrix(2, [1, 3])


def test_logical_matrix_leaves_the_callers_array_writable():
    for a in (np.array([1, 2, 1]), np.arange(1, 7).reshape(2, 3).ravel()):
        mat = LogicalMatrix(2 * a.size, a)
        assert a.flags.writeable
        a[0] = 2
        assert mat.col_index[0] == 1
        assert not mat.col_index.flags.writeable


def test_logical_matrix_needs_integer_indices():
    for bad in ([1.7, 2.2], [1.0, float("nan")], [float("inf"), 1]):
        with pytest.raises(ValueError, match="must be integers"):
            LogicalMatrix(2, bad)
    assert LogicalMatrix(2, [1.0, 2.0]) == LogicalMatrix(2, np.array([1, 2], dtype=np.int32))
    assert LogicalMatrix(2, []).cols == 0
    for grid in (np.ones((2, 2), dtype=np.int64), np.ones((2, 2), dtype=np.int32)):
        with pytest.raises(ValueError, match="must be one-dimensional"):
            LogicalMatrix(2, grid)
    huge = "states: 1\noutputs: 1\nsubnetworks: 1\np: 1\n[net 1]\nL = delta2[1 %d]\n" % 10**30
    with pytest.raises(ModelFormatError, match="line 6: column indices must lie in"):
        parse_model(huge + "[output]\nH = delta2[1 2]\n")


@pytest.mark.parametrize("product", [kron, khatri_rao])
def test_logical_products_past_int64_indices_are_refused(product, monkeypatch):
    # Column 1 is delta_{2^80}^{2^64 + 2^40 + 1}: in int64 it wraps to 2^40 + 1,
    # which lies in range, so the product itself must refuse 2^63 rows or more.
    monkeypatch.setenv("PBN_MINOBS_MAX_DIM", str(10**30))
    a, b = LogicalMatrix(2**40, [2**24 + 2]), LogicalMatrix(2**40, [1])
    with pytest.raises(ValueError, match=f"of {2**80} rows exceeds 64-bit indices"):
        product(a, b)
    # Just below 2^63 rows every index still fits.
    big, two = LogicalMatrix(2**62 - 1, [2**62 - 1]), LogicalMatrix(2, [2])
    assert product(big, two).col_index.tolist() == [2**63 - 2]
    with pytest.raises(ValueError, match=f"of {2**63} rows"):
        product(LogicalMatrix(2**62, [1]), two)
