import numpy as np
import pytest

from pbn_minobs import (
    StateSet,
    diagonal_set,
    kron,
    mirror_close,
    mirror_index,
    pair_index,
    pair_split,
    partition_states,
)
from pbn_minobs.partition import folded_pairs

from conftest import S0_EXPECTED, S1_EXPECTED, S2_EXPECTED, random_model


def test_partition_of_bundled_model(apoptosis):
    part = partition_states(apoptosis)
    assert part.s0.indices() == S0_EXPECTED
    assert part.s1.indices() == S1_EXPECTED
    assert part.s2.indices() == S2_EXPECTED


def test_pair_39_is_output_equal(apoptosis):
    # Direct oracle for the membership of (5, 7): both states output class 2.
    h = apoptosis.output.col_index
    assert h[5 - 1] == h[7 - 1]
    assert pair_index(5, 7, 3) == 39
    assert 39 in partition_states(apoptosis).s1


def test_mirror_examples():
    assert mirror_index(29, 3) == 36  # (4,5) -> (5,4)
    assert mirror_index(31, 3) == 52  # (4,7) -> (7,4)
    for k in range(1, 65):
        assert mirror_index(mirror_index(k, 3), 3) == k
    for i in range(1, 9):
        z = pair_index(i, i, 3)
        assert mirror_index(z, 3) == z


def test_mirror_close_and_fold():
    s = StateSet.from_indices(64, [29, 31])
    closed = mirror_close(s, 3)
    assert closed.indices() == (29, 31, 36, 52)
    for folded in (closed, StateSet.from_indices(64, [36, 52])):
        z, i, j = folded_pairs(folded, 3)
        assert (z.tolist(), i.tolist(), j.tolist()) == ([29, 31], [4, 4], [5, 7])


def test_partition_invariants_on_random_outputs():
    rng = np.random.default_rng(31)
    for _ in range(60):
        model = random_model(rng, n=int(rng.integers(2, 7)), q=int(rng.integers(1, 4)))
        part = partition_states(model)
        n = model.n
        size = model.state_count
        universe = size * size

        full = (
            part.s0
            | part.s1
            | part.s2
            | mirror_close(part.s1, n)
            | mirror_close(part.s2, n)
        )
        assert full == StateSet.full(universe)
        assert part.s0.isdisjoint(part.s1 | part.s2)
        assert part.s1.isdisjoint(part.s2)
        assert len(part.s0) == size
        assert len(part.s1) + len(part.s2) == size * (size - 1) // 2
        assert part.s0 == diagonal_set(n)


def test_pair_output_matrix_splits_like_partition():
    rng = np.random.default_rng(32)
    for _ in range(25):
        model = random_model(rng)
        part = partition_states(model)
        k = kron(model.output, model.output)
        out_size = 1 << model.q
        n = model.n
        for z in mirror_close(part.s2, n).indices():
            w = k.column(z)
            a, b = pair_split(w, model.q)
            assert a != b
        for z in (part.s0 | mirror_close(part.s1, n)).indices():
            w = k.column(z)
            a, b = pair_split(w, model.q)
            assert a == b
        assert k.rows == out_size * out_size


def test_state_set_algebra():
    a = StateSet.from_indices(8, [1, 3, 5])
    b = StateSet.from_indices(8, [3, 4])
    assert (a | b).indices() == (1, 3, 4, 5)
    assert (a & b).indices() == (3,)
    assert (a - b).indices() == (1, 5)
    assert b.issubset(a | b)
    assert not a.issubset(b)
    assert len(a) == 3
    assert list(a) == [1, 3, 5]
    assert 5 in a and 2 not in a
    assert StateSet(a.universe, a.bits) == a


def test_state_set_guards():
    with pytest.raises(ValueError):
        StateSet.from_indices(4, [5])
    with pytest.raises(ValueError):
        StateSet(4, 1 << 4)
    with pytest.raises(ValueError):
        StateSet.from_indices(4, [1]) | StateSet.from_indices(8, [1])


def test_state_set_needs_integer_indices():
    for bad in ([1.7, 2.2], [1.0, float("nan")], np.array([2.5])):
        with pytest.raises(ValueError, match="must be integers"):
            StateSet.from_indices(10, bad)
    with pytest.raises(ValueError, match="must lie in"):
        StateSet.from_indices(10, [10**30])
    assert StateSet.from_indices(10, [1.0, 2.0]).indices() == (1, 2)
    assert StateSet.from_indices(10, (k for k in (3, 4))).indices() == (3, 4)
    assert StateSet.from_indices(10, np.array([5], dtype=np.int32)).indices() == (5,)
    for grid in (np.ones((2, 2), dtype=np.int64), np.ones((2, 2), dtype=np.int32)):
        with pytest.raises(ValueError, match="must be one-dimensional"):
            StateSet.from_indices(10, grid)


def test_pair_index_range_checks():
    with pytest.raises(ValueError):
        pair_index(0, 1, 2)
    with pytest.raises(ValueError):
        pair_split(17, 2)
    with pytest.raises(ValueError):
        mirror_index(0, 2)


def test_state_set_matches_frozenset():
    rng = np.random.default_rng(33)

    def draw(universe):
        members = frozenset(int(k) for k in np.flatnonzero(rng.random(universe) < rng.random()) + 1)
        return members, StateSet.from_indices(universe, members)

    for _ in range(320):
        universe = int(rng.integers(1, 71))
        fa, a = draw(universe)
        fb, b = draw(universe)
        assert (a | b).indices() == tuple(sorted(fa | fb))
        assert (a & b).indices() == tuple(sorted(fa & fb))
        assert (a - b).indices() == tuple(sorted(fa - fb))
        assert a.issubset(b) == (fa <= fb)
        assert (a & b).issubset(a)
        assert a.isdisjoint(b) == fa.isdisjoint(fb)
        assert (a - b).isdisjoint(b)
        assert len(a) == len(fa)
        assert bool(a) == bool(fa)
        assert list(a) == sorted(fa)
        for k in (0, 1, universe, universe + 1, int(rng.integers(1, universe + 1))):
            assert (k in a) == (k in fa)
        assert (a == b) == (fa == fb)
        twin = StateSet.from_indices(universe, sorted(fa))
        assert twin == a and hash(twin) == hash(a)
        bits = a.bits
        assert bits.dtype == bool and bits.shape == (universe,)
        assert StateSet(universe, bits) == a
        with pytest.raises(ValueError):
            bits[0] = not bits[0]
        assert a == twin


def test_state_set_copies_its_input():
    raw = np.zeros(10, dtype=bool)
    s = StateSet(10, raw)
    raw[3] = True
    assert not s
