from array import array
from itertools import combinations

import numpy as np
import pytest

from pbn_minobs import analysis
from pbn_minobs import (
    AugmentedSystem,
    LogicalMatrix,
    PbnModel,
    ResourceLimitError,
    StateSet,
    build_augmented,
    candidate_sufficient,
    is_observable,
    maximum_invariant_set,
    minimal_anchor_sets,
    minimal_targets,
    mirror_close,
    one_step_to_diagonal,
    pair_index,
    partition_states,
    positive_prob_fixed_points,
    robust_reach,
)

from conftest import CORE_EXPECTED, N1_EXPECTED, P_EXPECTED, random_model


def test_bundled_model_not_observable(apoptosis):
    flag, witness = is_observable(apoptosis)
    assert not flag
    assert 4 in witness and 29 in witness


def test_injective_output_is_observable():
    rng = np.random.default_rng(51)
    model = random_model(rng, n=2, q=2)
    model = PbnModel(
        n=model.n,
        q=model.n,
        transitions=model.transitions,
        output=LogicalMatrix.identity(model.state_count),
        probs=model.probs,
    )
    flag, witness = is_observable(model)
    assert flag
    assert not witness
    assert not partition_states(model).s1


def test_sensor_extension_restores_observability(apoptosis):
    from pbn_minobs import extend_output

    for added in ((1, 2), (1, 3)):
        flag, _ = is_observable(extend_output(apoptosis, added))
        assert flag


def test_one_step_to_diagonal(apoptosis):
    aug = build_augmented(apoptosis)
    _, witness = is_observable(apoptosis)
    assert one_step_to_diagonal(witness, aug).indices() == N1_EXPECTED
    empty = StateSet.empty(aug.pair_count)
    assert one_step_to_diagonal(empty, aug) == empty
    assert 28 in aug.q_matrix.column_support(31)  # the diagonal hit behind state 31


def test_positive_probability_fixed_points(apoptosis):
    aug = build_augmented(apoptosis)
    _, witness = is_observable(apoptosis)
    assert positive_prob_fixed_points(witness, aug).indices() == P_EXPECTED
    assert aug.q_matrix.diagonal_entry(29) == pytest.approx(0.1, abs=1e-12)


def test_fixed_points_empty_for_fixed_point_free_dynamics():
    # A pure cyclic shift has no fixed column anywhere.
    shift = LogicalMatrix(4, [2, 3, 4, 1])
    model = PbnModel(
        n=2, q=1, transitions=(shift,), output=LogicalMatrix(2, [1, 1, 2, 2]), probs=(1.0,)
    )
    aug = build_augmented(model)
    full = StateSet.full(16)
    assert not positive_prob_fixed_points(full, aug)


def test_maximum_invariant_set_examples(apoptosis):
    aug = build_augmented(apoptosis)
    part = partition_states(apoptosis)
    assert maximum_invariant_set(part.s0, aug) == part.s0
    pair = StateSet.from_indices(64, [29, 31])
    assert not maximum_invariant_set(pair, aug)
    full = StateSet.full(64)
    assert maximum_invariant_set(full, aug) == full


def test_invariant_set_is_contained_and_idempotent():
    rng = np.random.default_rng(52)
    for _ in range(30):
        model = random_model(rng)
        aug = build_augmented(model)
        pairs = model.state_count**2
        raw = rng.integers(1, pairs + 1, size=pairs // 3)
        constraint = StateSet.from_indices(pairs, (int(z) for z in raw))
        inv = maximum_invariant_set(constraint, aug)
        assert inv.issubset(constraint)
        assert maximum_invariant_set(inv, aug) == inv


def test_anchor_sets_trivial_cases(apoptosis):
    aug = build_augmented(apoptosis)
    empty = StateSet.empty(64)
    assert minimal_anchor_sets(empty, aug) == ()
    # 4 = (1,4) is fixed by the fourth subnetwork; alone it anchors itself.
    self_loop = StateSet.from_indices(64, [4])
    assert minimal_anchor_sets(self_loop, aug) == (self_loop,)


def test_anchor_sets_two_state_cycle():
    # (1,2) <-> (3,4) under the single subnetwork: each singleton anchors the
    # other, and the two-element set is pruned as a superset.
    swap = LogicalMatrix(4, [3, 4, 1, 2])
    model = PbnModel(
        n=2, q=1, transitions=(swap,), output=LogicalMatrix(2, [1, 1, 1, 1]), probs=(1.0,)
    )
    aug = build_augmented(model)
    z1 = pair_index(1, 2, 2)
    z2 = pair_index(3, 4, 2)
    invariant = StateSet.from_indices(16, [z1, z2])
    anchors = minimal_anchor_sets(invariant, aug)
    assert anchors == (
        StateSet.from_indices(16, [z1]),
        StateSet.from_indices(16, [z2]),
    )


def test_anchor_sets_cap():
    # Under a cyclic shift with a blind output, the s1 pairs {i, i + d} with
    # d != 8 fold into cycles of 16 states, one for each d.
    shift = LogicalMatrix(16, list(range(2, 17)) + [1])
    model = PbnModel(
        n=4, q=1, transitions=(shift,), output=LogicalMatrix(2, [1] * 16), probs=(1.0,)
    )
    aug = build_augmented(model)
    big = partition_states(model).s1
    with pytest.raises(ResourceLimitError, match="component of 16 residual states"):
        minimal_anchor_sets(big, aug, cap=8)


def test_anchor_sets_reject_non_canonical_sets():
    # Diagonal and mirrored pairs break the search's precondition.
    rng = np.random.default_rng(53)
    model = random_model(rng, n=2)
    aug = build_augmented(model)
    mixed = StateSet.from_indices(16, range(1, 9))
    with pytest.raises(ValueError, match="canonical i < j pairs"):
        minimal_anchor_sets(mixed, aug, cap=8)
    with pytest.raises(ValueError, match="universe mismatch"):
        minimal_anchor_sets(StateSet.from_indices(64, [2]), aug, cap=8)


def test_strongly_connected_matches_mutual_reachability():
    rng = np.random.default_rng(59)
    for _ in range(200):
        count, degree = int(rng.integers(1, 40)), int(rng.integers(1, 4))
        edges = rng.integers(-1, count, size=count * degree)
        reach = np.eye(count, dtype=bool)
        for v, w in zip(np.repeat(np.arange(count), degree), edges):
            if w >= 0:
                reach[v, w] = True
        for _ in range(count.bit_length()):
            reach = reach | (reach.astype(int) @ reach.astype(int) > 0)
        mutual = reach & reach.T
        expected = {frozenset(np.flatnonzero(row).tolist()) for row in mutual}
        found = analysis._strongly_connected(array("i", edges.tolist()), degree)
        found = [frozenset(c) for c in found]
        assert len(found) == len(expected) and set(found) == expected


def exhaustive_anchor_sets(
    invariant: StateSet,
    aug: AugmentedSystem,
    external_target: StateSet,
    cap: int,
) -> tuple[StateSet, ...]:
    """Reference search: one robust reach per subset, in ascending cardinality.

    A subset G qualifies when every other member robustly reaches the
    mirror-closed union of G and ``external_target``.  Enumeration runs in
    ascending cardinality (then lexicographic), so supersets of kept sets
    are skipped and the result is an antichain.
    """
    members = invariant.indices()
    count = len(members)
    if count == 0:
        return ()
    if count > cap:
        raise ResourceLimitError(
            f"subset enumeration over {count} states exceeds the cap {cap}; "
            "reduce the network or raise the cap"
        )
    n = aug.model.n
    # Superset tests on small frozensets are cheaper than on StateSets.
    kept: list[frozenset[int]] = []
    anchors: list[StateSet] = []
    for r in range(1, count + 1):
        for combo in combinations(members, r):
            chosen = frozenset(combo)
            if any(k <= chosen for k in kept):
                continue
            guess = StateSet.from_indices(invariant.universe, combo)
            target = mirror_close(guess | external_target, n)
            if (invariant - guess).issubset(robust_reach(target, aug).union):
                kept.append(chosen)
                anchors.append(guess)
    return tuple(anchors)


def test_anchor_sets_match_exhaustive_search():
    # Both anchor searches of every decided report on random models, rerun
    # by the exhaustive reference wherever that decides within its cap.
    rng = np.random.default_rng(57)
    decided = 0
    for _ in range(300):
        model = random_model(rng, n=int(rng.integers(2, 6)))
        try:
            report = minimal_targets(model, subset_cap=14)
        except ResourceLimitError:
            continue
        aug = build_augmented(model)
        first = report.core_target | report.invariant_set
        widened = robust_reach(mirror_close(first, model.n), aug).union
        searches = (
            (report.invariant_set, report.core_target, report.invariant_anchors),
            (report.second_residual, first | widened, report.second_anchors),
        )
        for invariant, external, anchors in searches:
            try:
                expected = exhaustive_anchor_sets(invariant, aug, external, cap=12)
            except ResourceLimitError:
                continue
            assert anchors == expected
            decided += bool(invariant)
    assert decided >= 50


def test_anchor_and_candidate_sets_checked_against_dimension_cap(monkeypatch):
    # Two anchor sets in each stage give four candidates over 64 pair states.
    model = random_model(np.random.default_rng(10838), n=3, m=2, q=1)
    aug = build_augmented(model)
    report = minimal_targets(model)
    assert len(report.invariant_anchors) == len(report.second_anchors) == 2
    assert len(report.candidates) == 4
    monkeypatch.setenv("PBN_MINOBS_MAX_DIM", "200")
    with pytest.raises(ResourceLimitError, match="candidate sets of size 4x64"):
        minimal_targets(model)
    monkeypatch.setenv("PBN_MINOBS_MAX_DIM", "100")
    with pytest.raises(ResourceLimitError, match="anchor sets of size 2x64"):
        minimal_anchor_sets(report.invariant_set, aug)


def test_pipeline_on_bundled_model(apoptosis):
    report = minimal_targets(apoptosis)
    assert not report.observable
    assert report.one_step_diagonal.indices() == N1_EXPECTED
    assert report.fixed_points.indices() == P_EXPECTED
    assert report.core.indices() == CORE_EXPECTED
    assert not report.residual
    assert len(report.candidates) == 1
    assert report.candidates[0].indices() == CORE_EXPECTED
    assert not report.distinguishable  # nothing separates without new sensors


def test_pipeline_responsibility_partition(apoptosis):
    rng = np.random.default_rng(54)
    models = [apoptosis] + [random_model(rng, n=int(rng.integers(2, 5))) for _ in range(40)]
    for model in models:
        try:
            report = minimal_targets(model, subset_cap=12)
        except ResourceLimitError:
            continue
        if report.observable:
            assert not report.candidates
            continue
        n = model.n
        aug = build_augmented(model)
        gamma_closed = mirror_close(report.core_target, n)
        reach_gamma = robust_reach(gamma_closed, aug).union
        recombined = (
            report.core
            | (reach_gamma & report.indistinguishable)
            | report.residual
        )
        assert recombined == report.indistinguishable


def test_candidates_are_sufficient_and_core_is_necessary(apoptosis):
    aug = build_augmented(apoptosis)
    part = partition_states(apoptosis)
    report = minimal_targets(apoptosis)
    for cand in report.candidates:
        assert candidate_sufficient(cand, aug, part)
    # Dropping any single directly-required pair breaks sufficiency.
    for z in report.core.indices():
        weakened = report.candidates[0] - StateSet.from_indices(64, [z])
        assert not candidate_sufficient(weakened, aug, part)


def test_observable_model_short_circuits():
    rng = np.random.default_rng(55)
    model = random_model(rng, n=2)
    model = PbnModel(
        n=model.n,
        q=model.n,
        transitions=model.transitions,
        output=LogicalMatrix.identity(model.state_count),
        probs=model.probs,
    )
    report = minimal_targets(model)
    assert report.observable
    assert report.candidates == ()
    assert not report.witness


def test_anchor_lists_are_antichains():
    rng = np.random.default_rng(56)
    checked = 0
    for _ in range(60):
        model = random_model(rng, n=int(rng.integers(2, 5)))
        try:
            report = minimal_targets(model, subset_cap=10)
        except ResourceLimitError:
            continue
        for group in (report.invariant_anchors, report.second_anchors):
            for a in group:
                for b in group:
                    if a is not b:
                        assert not a.issubset(b)
            checked += len(group)
    assert checked  # at least some anchor sets were produced across the run


def test_invariant_set_matches_plain_greatest_fixpoint():
    rng = np.random.default_rng(53)
    for _ in range(200):
        model = random_model(rng)
        aug = build_augmented(model)
        pairs = aug.pair_count
        raw = rng.integers(1, pairs + 1, size=int(rng.integers(0, pairs + 1)))
        current = {int(z) for z in raw}
        constraint = StateSet.from_indices(pairs, current)
        while True:
            kept = {z for z in current if set(aug.column_support(z)) <= current}
            if kept == current:
                break
            current = kept
        assert maximum_invariant_set(constraint, aug).indices() == tuple(sorted(current))
