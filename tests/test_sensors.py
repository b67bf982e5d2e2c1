from itertools import combinations

import numpy as np
import pytest

from pbn_minobs import (
    BooleanMatrix,
    InfeasibleCoverError,
    LogicalMatrix,
    ResourceLimitError,
    StateSet,
    distinguishable_under,
    extend_output,
    global_min_sensors,
    is_observable,
    kron,
    min_cover,
    minimal_targets,
    mirror_close,
    pair_index,
    single_variable_output,
    stp,
    truth_matrix,
)
from pbn_minobs.sensors import TruthMatrix

from conftest import COVERS_EXPECTED, PHI_EXPECTED, random_model


def reference_single_variable_output(m_idx, n):
    """The measurement matrix via the dense block formula."""
    left = kron(np.ones((1, 1 << (m_idx - 1))), np.eye(2))
    right = kron(np.eye(1 << m_idx), np.ones((1, 1 << (n - m_idx))))
    return stp(left, right)


def naive_min_covers(masks, width):
    """All minimum covers by full enumeration over every row subset."""
    full = (1 << width) - 1
    best: list[tuple[int, ...]] = []
    best_size = None
    for r in range(1, len(masks) + 1):
        if best_size is not None and r > best_size:
            break
        for combo in combinations(range(len(masks)), r):
            acc = 0
            for row in combo:
                acc |= masks[row]
            if acc == full:
                best.append(tuple(v + 1 for v in combo))
                best_size = r
        if best:
            break
    return tuple(best)


def test_single_variable_output_examples():
    assert single_variable_output(1, 3) == LogicalMatrix(2, [1, 1, 1, 1, 2, 2, 2, 2])
    assert single_variable_output(3, 3) == LogicalMatrix(2, [1, 2, 1, 2, 1, 2, 1, 2])
    assert single_variable_output(1, 1) == LogicalMatrix.identity(2)
    with pytest.raises(ValueError):
        single_variable_output(4, 3)


def test_single_variable_output_matches_block_formula():
    for n in range(1, 7):
        for m_idx in range(1, n + 1):
            dense = single_variable_output(m_idx, n).dense()
            assert np.array_equal(dense, reference_single_variable_output(m_idx, n))


def test_distinguishable_under_examples():
    # (1,4): bits (1,1,1) vs (1,0,0) differ in variables 2 and 3 only.
    assert 4 not in distinguishable_under(1, 3)
    assert 4 in distinguishable_under(2, 3)
    assert 4 in distinguishable_under(3, 3)
    # (4,5): bits (1,0,0) vs (0,1,1) differ everywhere.
    for m_idx in (1, 2, 3):
        assert 29 in distinguishable_under(m_idx, 3)
    for m_idx in (1, 2, 3):
        sep = distinguishable_under(m_idx, 3)
        for i in range(1, 9):
            assert pair_index(i, i, 3) not in sep


def test_distinguishable_under_matches_measurement_comparison():
    for n in range(1, 7):
        for m_idx in range(1, n + 1):
            h = single_variable_output(m_idx, n)
            sep = distinguishable_under(m_idx, n)
            for i in range(1, (1 << n) + 1):
                for j in range(1, (1 << n) + 1):
                    expected = h.column(i) != h.column(j)
                    assert (pair_index(i, j, n) in sep) == expected


def test_truth_matrix_of_core_target(apoptosis):
    target = StateSet.from_indices(64, [4, 5, 14, 24, 29, 31])
    phi = truth_matrix(target, 3)
    assert phi.column_states == (4, 5, 14, 24, 29, 31)
    assert phi.bits.bits.astype(int).tolist() == [list(row) for row in PHI_EXPECTED]


def test_truth_matrix_single_pair_differs_everywhere():
    z = pair_index(1, 8, 3)  # (1,1,1) vs (0,0,0)
    phi = truth_matrix(StateSet.from_indices(64, [z]), 3)
    assert phi.bits.bits.all()


def test_truth_matrix_rejects_diagonal_and_empty():
    with pytest.raises(ValueError, match="diagonal"):
        truth_matrix(StateSet.from_indices(64, [1]), 3)
    with pytest.raises(ValueError, match="empty"):
        truth_matrix(StateSet.empty(64), 3)


def test_truth_matrix_mirror_invariance():
    rng = np.random.default_rng(61)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        pairs = (1 << n) ** 2
        raw = [int(z) for z in rng.integers(1, pairs + 1, size=5)]
        raw = [z for z in raw if (z - 1) // (1 << n) != (z - 1) % (1 << n)]
        if not raw:
            continue
        target = StateSet.from_indices(pairs, raw)
        mirrored = mirror_close(target, n)
        a = truth_matrix(target, n)
        b = truth_matrix(mirrored, n)
        assert a.column_states == b.column_states
        assert a.bits == b.bits


def test_min_cover_on_core_target(apoptosis):
    target = StateSet.from_indices(64, [4, 5, 14, 24, 29, 31])
    covers = min_cover(truth_matrix(target, 3))
    assert covers == COVERS_EXPECTED


def test_min_cover_all_ones_row_wins_alone():
    bits = BooleanMatrix([[1, 1, 1], [1, 0, 1], [1, 1, 1]])
    phi = TruthMatrix(n=3, column_states=(2, 3, 4), bits=bits)
    assert min_cover(phi) == ((1,), (3,))


def test_min_cover_identity_needs_every_row():
    bits = BooleanMatrix(np.eye(4, dtype=bool))
    phi = TruthMatrix(n=4, column_states=(2, 3, 4, 5), bits=bits)
    assert min_cover(phi) == ((1, 2, 3, 4),)


def test_min_cover_infeasible_names_the_pair():
    bits = BooleanMatrix([[1, 0], [1, 0]])
    phi = TruthMatrix(n=2, column_states=(2, 3), bits=bits)
    with pytest.raises(InfeasibleCoverError, match="3"):
        min_cover(phi)


def test_min_cover_matches_naive_enumeration():
    rng = np.random.default_rng(62)
    for _ in range(120):
        rows = int(rng.integers(1, 13))
        width = int(rng.integers(1, 21))
        grid = rng.random((rows, width)) < 0.45
        column_states = tuple(range(2, 2 + width))
        phi = TruthMatrix(n=rows, column_states=column_states, bits=BooleanMatrix(grid))
        masks = phi.bits.row_masks()
        full = (1 << width) - 1
        acc = 0
        for mask in masks:
            acc |= mask
        if acc != full:
            with pytest.raises(InfeasibleCoverError):
                min_cover(phi)
            continue
        assert min_cover(phi) == naive_min_covers(masks, width)


def test_global_plan_on_bundled_model(apoptosis):
    report = minimal_targets(apoptosis)
    plan = global_min_sensors(report, apoptosis)
    assert plan.min_size == 2
    assert tuple(cover for _, cover in plan.optima) == COVERS_EXPECTED
    assert plan.suggested == (0, (1, 2))
    assert plan.extended_observable
    assert not plan.diagnostics
    extended = extend_output(apoptosis, plan.suggested[1])
    assert extended.q == 3
    assert extended.output == plan.extended_output


def test_global_plan_rejects_observable_models():
    rng = np.random.default_rng(63)
    model = random_model(rng, n=2)
    from pbn_minobs import PbnModel

    model = PbnModel(
        n=model.n,
        q=model.n,
        transitions=model.transitions,
        output=LogicalMatrix.identity(model.state_count),
        probs=model.probs,
    )
    report = minimal_targets(model)
    with pytest.raises(ValueError, match="already observable"):
        global_min_sensors(report, model)


def test_single_variable_plan():
    # One unobservable pair differing in exactly one variable: size-1 plan.
    from pbn_minobs import PbnModel

    model = PbnModel(
        n=2,
        q=1,
        transitions=(LogicalMatrix.identity(4),),
        output=LogicalMatrix(2, [1, 1, 2, 2]),  # cannot see variable 2
        probs=(1.0,),
    )
    report = minimal_targets(model)
    assert not report.observable
    plan = global_min_sensors(report, model)
    assert plan.min_size == 1
    assert all(cover == (2,) for _, cover in plan.optima)
    assert plan.extended_observable


def test_extension_closes_the_loop_on_random_models():
    rng = np.random.default_rng(64)
    seen = 0
    for _ in range(40):
        model = random_model(rng, n=int(rng.integers(2, 4)), q=1)
        try:
            report = minimal_targets(model, subset_cap=10)
        except ResourceLimitError:
            continue
        if report.observable:
            continue
        plan = global_min_sensors(report, model)
        seen += 1
        for pos, cover in plan.optima:
            flag, _ = is_observable(extend_output(model, cover))
            assert flag
    assert seen >= 5


def test_min_size_matches_direct_measurement_search():
    # Independent of the candidates: the smallest measurement sets V whose
    # extended output makes the model observable, all of them.
    rng = np.random.default_rng(66)
    checked = 0
    for _ in range(400):
        model = random_model(rng, n=int(rng.integers(2, 6)))
        try:
            report = minimal_targets(model, subset_cap=14)
        except ResourceLimitError:
            continue
        if report.observable:
            continue
        plan = global_min_sensors(report, model)
        variables = range(1, model.n + 1)
        direct = next(
            r
            for r in variables
            if any(is_observable(extend_output(model, v))[0] for v in combinations(variables, r))
        )
        assert plan.min_size == direct
        answers = {
            v for v in combinations(variables, direct) if is_observable(extend_output(model, v))[0]
        }
        assert {cover for _, cover in plan.optima} == answers
        checked += 1
    assert checked >= 100
