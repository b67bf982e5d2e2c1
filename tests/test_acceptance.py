"""Acceptance suite: every release criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print; tolerances are fixed here and nowhere else.
"""

import json
import time
from contextlib import contextmanager
from itertools import combinations

import numpy as np
import pytest

from pbn_minobs import (
    ResourceLimitError,
    StateSet,
    build_augmented,
    candidate_sufficient,
    exhaustive_distinguishability,
    extend_output,
    global_min_sensors,
    is_observable,
    min_cover,
    minimal_targets,
    mirror_close,
    pair_index,
    pairs_distinguishable_within,
    partition_states,
    robust_reach,
    robust_reach_oracle,
    stp,
    structure_matrix,
    truth_matrix,
)
from pbn_minobs.cli import EXIT_OK, main
from pbn_minobs.model import decode_state
from pbn_minobs.sensors import TruthMatrix

from conftest import (
    CORE_EXPECTED,
    COVERS_EXPECTED,
    MODEL_PATH,
    N1_EXPECTED,
    P_EXPECTED,
    PHI_EXPECTED,
    Q_COLUMNS_EXPECTED,
    S0_EXPECTED,
    S1_EXPECTED,
    S2_EXPECTED,
    random_expr,
    random_model,
)

PROB_TOL = 1e-12
STP_TOL = 1e-12
Q_BUILD_BUDGET_S = 0.010
ANALYZE_BUDGET_S = 1.0
SCALE_BUDGET_S = 30.0


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {label}")
        raise
    print(f"[PASS] criterion {num}: {label}")


def test_criterion_1_transition_matrix_columns(apoptosis):
    with criterion(1, "expectation-matrix columns exact to 1e-12, built in under 10 ms"):
        aug = build_augmented(apoptosis)
        for j, expected in Q_COLUMNS_EXPECTED.items():
            got = aug.q_matrix.column_dict(j)
            assert set(got) == set(expected), f"support mismatch in column {j}"
            for row, prob in expected.items():
                assert abs(got[row] - prob) <= PROB_TOL, f"column {j} row {row}"
        best = min(
            _timed(lambda: build_augmented(apoptosis)) for _ in range(5)
        )
        assert best < Q_BUILD_BUDGET_S, f"construction took {best * 1000:.2f} ms"


def _timed(thunk) -> float:
    start = time.perf_counter()
    thunk()
    return time.perf_counter() - start


def test_criterion_2_partition(apoptosis):
    with criterion(2, "pair-state partition matches the frozen lists"):
        part = partition_states(apoptosis)
        assert part.s0.indices() == S0_EXPECTED
        assert part.s2.indices() == S2_EXPECTED
        assert part.s1.indices() == S1_EXPECTED
        # Independent oracle: enumerate equal-output pairs directly.
        h = apoptosis.output.col_index
        enumerated = tuple(
            pair_index(i, j, apoptosis.n)
            for i in range(1, 9)
            for j in range(i + 1, 9)
            if h[i - 1] == h[j - 1]
        )
        assert part.s1.indices() == tuple(sorted(enumerated))
        assert 39 in part.s1
        print(
            "note: pair 39 = (5, 7) belongs to the indistinguishable set; "
            "states 5 and 7 share output class "
            f"{int(h[4])}, confirmed by direct enumeration"
        )


def test_criterion_3_target_pipeline(apoptosis):
    with criterion(3, "target pipeline: direct set, empty residual, one candidate"):
        report = minimal_targets(apoptosis)
        assert not report.observable
        assert report.one_step_diagonal.indices() == N1_EXPECTED
        assert report.fixed_points.indices() == P_EXPECTED
        assert report.core.indices() == CORE_EXPECTED
        assert not report.residual
        assert [c.indices() for c in report.candidates] == [CORE_EXPECTED]


def test_criterion_4_sensor_selection(apoptosis, tmp_path, capsys):
    with criterion(4, "truth matrix, minimum covers, re-verification, <1 s end to end"):
        report = minimal_targets(apoptosis)
        phi = truth_matrix(report.candidates[0], apoptosis.n)
        assert phi.column_states == CORE_EXPECTED
        for c in range(5):
            assert tuple(int(b) for b in phi.column(c + 1)) == tuple(
                row[c] for row in PHI_EXPECTED
            )
        # Column 6 from the state encoding itself: (4,7) differs in bits 1 and 3.
        assert decode_state(4, 3) == (1, 0, 0) and decode_state(7, 3) == (0, 0, 1)
        assert tuple(int(b) for b in phi.column(6)) == (1, 0, 1)

        plan = global_min_sensors(report)
        assert plan.min_size == 2
        assert tuple(cover for _, cover in plan.optima) == COVERS_EXPECTED
        for added in COVERS_EXPECTED:
            flag, _ = is_observable(extend_output(apoptosis, added))
            assert flag
        assert plan.extended_observable

        out_path = tmp_path / "report.json"
        elapsed = _timed(
            lambda: main(
                ["analyze", str(MODEL_PATH), "--sensors", "--quiet", "--out", str(out_path)]
            )
        )
        capsys.readouterr()
        doc = json.loads(out_path.read_text())
        assert doc["sensors"]["min_size"] == 2
        assert elapsed < ANALYZE_BUDGET_S, f"analyze took {elapsed:.3f} s"


def test_criterion_5_oracle_equivalence():
    with criterion(5, "reachability and distinguishability agree with oracles on 200 models"):
        rng = np.random.default_rng(501)
        for trial in range(200):
            model = random_model(rng, n=int(rng.integers(2, 5)), m=int(rng.integers(1, 4)))
            aug = build_augmented(model)
            part = partition_states(model)
            pairs = model.state_count**2
            target = mirror_close(part.s2, model.n)
            union = robust_reach(target, aug).union
            assert mirror_close(union, model.n) == robust_reach_oracle(target, model), trial

            separated = pairs_distinguishable_within(model, pairs)
            for z in part.s1.indices():
                assert (z in separated) == (z in union), (trial, z)
            spot = part.s1.indices()[:3]
            for z in spot:
                i, j = (z - 1) // model.state_count + 1, (z - 1) % model.state_count + 1
                assert exhaustive_distinguishability(model, i, j, pairs) == (z in union)


def test_criterion_6_cover_optimality():
    with criterion(6, "exact covers equal naive full enumeration on 500 matrices"):
        rng = np.random.default_rng(601)
        compared = 0
        while compared < 500:
            rows = int(rng.integers(1, 13))
            width = int(rng.integers(1, 21))
            grid = rng.random((rows, width)) < 0.5
            phi = TruthMatrix(n=rows, column_states=tuple(range(1, width + 1)), bits=grid)
            masks = [sum(1 << int(c) for c in np.flatnonzero(row)) for row in grid]
            full = (1 << width) - 1
            naive_best: list[tuple[int, ...]] = []
            naive_size = rows + 1
            for subset in range(1, 1 << rows):
                acc = 0
                for r in range(rows):
                    if subset >> r & 1:
                        acc |= masks[r]
                if acc == full:
                    size = subset.bit_count()
                    chosen = tuple(r + 1 for r in range(rows) if subset >> r & 1)
                    if size < naive_size:
                        naive_best = [chosen]
                        naive_size = size
                    elif size == naive_size:
                        naive_best.append(chosen)
            if not naive_best:
                with pytest.raises(Exception):
                    min_cover(phi)
                continue
            assert min_cover(phi) == tuple(sorted(naive_best))
            compared += 1


def test_criterion_7_kernel_properties():
    with criterion(7, "kernel algebra properties on 1000 + 1000 + 500 random instances"):
        rng = np.random.default_rng(701)
        for _ in range(1000):
            dims = [int(x) for x in rng.integers(1, 9, 6)]
            a = rng.random((dims[0], dims[1]))
            b = rng.random((dims[2], dims[3]))
            c = rng.random((dims[4], dims[5]))
            left = stp(stp(a, b), c)
            right = stp(a, stp(b, c))
            assert left.shape == right.shape
            assert np.allclose(left, right, atol=STP_TOL)
        for _ in range(1000):
            r, k, c = (int(x) for x in rng.integers(1, 9, 3))
            a = rng.random((r, k))
            b = rng.random((k, c))
            assert np.allclose(stp(a, b), a @ b, atol=STP_TOL)
        for _ in range(500):
            n = int(rng.integers(1, 6))
            expr = random_expr(rng, n)
            mat = structure_matrix(expr, n)
            for k in range(1, (1 << n) + 1):
                bits = decode_state(k, n)
                assert mat.column(k) == (1 if expr.evaluate(bits) else 2)


def test_criterion_8_candidates_are_sufficient():
    with criterion(8, "every candidate set on random unobservable models closes the loop"):
        rng = np.random.default_rng(801)
        models_checked = 0
        candidates_checked = 0
        attempts = 0
        while models_checked < 25 and attempts < 300:
            attempts += 1
            model = random_model(rng, n=int(rng.integers(2, 5)), q=1)
            try:
                report = minimal_targets(model, subset_cap=12)
            except ResourceLimitError:
                continue
            if report.observable:
                continue
            aug = build_augmented(model)
            part = partition_states(model)
            assert report.candidates
            for cand in report.candidates:
                assert candidate_sufficient(cand, aug, part)
                candidates_checked += 1
            models_checked += 1
        assert models_checked >= 25
        assert candidates_checked >= models_checked


def test_criterion_9_scale():
    with criterion(9, "n=6, m=4 model (4096 pair states) finishes in under 30 s"):
        rng = np.random.default_rng(1)
        model = random_model(rng, n=6, m=4, q=2, allow_zero_probs=False)
        start = time.perf_counter()
        report = minimal_targets(model, subset_cap=20)
        plan = global_min_sensors(report) if not report.observable else None
        elapsed = time.perf_counter() - start
        assert elapsed < SCALE_BUDGET_S, f"pipeline took {elapsed:.2f} s"
        assert model.state_count**2 == 4096
        if plan is not None:
            assert plan.extended_observable
