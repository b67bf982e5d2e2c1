import dataclasses
import tracemalloc
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
    pair_map,
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
    assert 28 in aug.q_matrix.column_dict(31)  # the diagonal hit behind state 31


def test_positive_probability_fixed_points(apoptosis):
    aug = build_augmented(apoptosis)
    _, witness = is_observable(apoptosis)
    assert positive_prob_fixed_points(witness, aug).indices() == P_EXPECTED
    assert aug.q_matrix.entry(29, 29) == pytest.approx(0.1, abs=1e-12)


def test_fixed_points_empty_for_fixed_point_free_dynamics():
    # A pure cyclic shift has no fixed column anywhere.
    shift = LogicalMatrix(4, [2, 3, 4, 1])
    model = PbnModel(
        n=2, q=1, transitions=(shift,), output=LogicalMatrix(2, [1, 1, 2, 2]), probs=(1.0,)
    )
    aug = build_augmented(model)
    full = StateSet.full(16)
    assert not positive_prob_fixed_points(full, aug)


def test_fixed_points_from_the_maps_match_the_pair_maps():
    rng = np.random.default_rng(57)
    for _ in range(200):
        model = random_model(rng, n=int(rng.integers(1, 6)), m=int(rng.integers(1, 5)))
        aug = build_augmented(model)
        pairs = np.arange(aug.pair_count)
        fixed = np.zeros(aug.pair_count, dtype=bool)
        for v in model.active:
            fixed |= pair_map(model.transitions[v]).col_index - 1 == pairs
        assert positive_prob_fixed_points(StateSet.full(aug.pair_count), aug).bits.tolist() == (
            fixed.tolist()
        )


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


@pytest.mark.parametrize("universe", [16, 256])
@pytest.mark.parametrize(
    "stage",
    [one_step_to_diagonal, positive_prob_fixed_points, maximum_invariant_set, minimal_anchor_sets],
)
def test_sets_over_another_pair_space_are_refused(apoptosis, stage, universe):
    aug = build_augmented(apoptosis)
    with pytest.raises(ValueError, match="universe mismatch"):
        stage(StateSet.full(universe), aug)


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


def test_anchor_graph_allocates_nothing_sized_by_the_pair_space():
    # Twenty canonical pairs at n = 10: a table over the 4^n pair states, even
    # of one byte per pair, would break the bound.
    rng = np.random.default_rng(61)
    model = random_model(rng, n=10, m=4, q=2, allow_zero_probs=False)
    aug = build_augmented(model)
    size = model.state_count
    i, j = np.sort(rng.choice(size, size=(20, 2), replace=True), axis=1).T
    canonical = i < j
    pairs = StateSet.from_indices(aug.pair_count, i[canonical] * size + j[canonical] + 1)
    tracemalloc.start()
    try:
        components = analysis._cyclic_components(pairs, aug, cap=20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert {z for members, _ in components for z in members} <= set(pairs.indices())
    assert peak < aug.pair_count, peak


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
        core_target = report.core | report.partition.s2
        first = core_target | report.invariant_set
        widened = robust_reach(mirror_close(first, model.n), aug).union
        searches = (
            (report.invariant_set, core_target, report.invariant_anchors),
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
    with pytest.raises(ResourceLimitError, match="anchor search: candidate sets of size 4x64"):
        minimal_targets(model)
    monkeypatch.setenv("PBN_MINOBS_MAX_DIM", "100")
    with pytest.raises(ResourceLimitError, match="anchor search: anchor sets of size 2x64"):
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
        gamma_closed = mirror_close(report.core | report.partition.s2, n)
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
    assert not report.indistinguishable


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
        constraint = StateSet.from_indices(pairs, raw)
        # The greatest fixpoint inside the constraint's mirror closure, cut to the constraint.
        current = set(mirror_close(constraint, model.n).indices())
        while True:
            kept = {z for z in current if set(aug.q_matrix.column_dict(z)) <= current}
            if kept == current:
                break
            current = kept
        expected = tuple(sorted(current.intersection(constraint.indices())))
        assert maximum_invariant_set(constraint, aug).indices() == expected


def test_invariant_set_is_the_upper_half_of_the_mirror_closed_fixpoint():
    # The maximum invariant set of the residual's mirror closure is
    # mirror-closed and holds no diagonal pair, so its i < j half is the report's set.
    rng = np.random.default_rng(57)
    nonempty = zeroed = 0
    for _ in range(400):
        model = random_model(rng, n=int(rng.integers(1, 6)))
        try:
            report = minimal_targets(model, subset_cap=14)
        except ResourceLimitError:
            continue
        size, aug = model.state_count, report.system
        full = maximum_invariant_set(mirror_close(report.residual, model.n), aug)
        upper = np.triu(full.bits.reshape(size, size)).reshape(-1)
        assert report.invariant_set == StateSet(aug.pair_count, upper)
        assert mirror_close(report.invariant_set, model.n) == full
        nonempty += bool(report.invariant_set)
        zeroed += len(model.active) < model.m
    assert nonempty >= 40 and zeroed >= 40, (nonempty, zeroed)


def test_every_report_set_holds_its_i_le_j_half_only():
    # Partition, fields, anchors and candidates: no member has i > j.
    rng = np.random.default_rng(2029)
    seen = {"reports": 0, "core_reach": 0, "anchors": 0}
    for _ in range(300):
        model = random_model(rng, n=int(rng.integers(1, 6)))
        try:
            report = minimal_targets(model, subset_cap=14)
        except ResourceLimitError:
            continue
        size = model.state_count
        below = np.tril(np.ones((size, size), dtype=bool), -1).reshape(-1)
        sets = [report.partition.s0, report.partition.s1, report.partition.s2]
        for f in dataclasses.fields(report):
            value = getattr(report, f.name)
            if isinstance(value, StateSet):
                sets.append(value)
            elif isinstance(value, tuple):
                sets.extend(value)
        assert all(isinstance(states, StateSet) for states in sets)
        assert not any((states.bits & below).any() for states in sets)
        seen["reports"] += 1
        seen["core_reach"] += bool(report.core_reach)
        seen["anchors"] += bool(report.invariant_anchors or report.second_anchors)
    assert seen["reports"] >= 250 and seen["core_reach"] >= 100 and seen["anchors"] >= 40, seen


def test_empty_invariant_set_reuses_core_reach(monkeypatch):
    # With no invariant set, the widened target is core_reach's own target, so
    # minimal_targets runs two reaches instead of three; the report is unchanged.
    targets = []

    def counted(target, aug):
        targets.append(target)
        return robust_reach(target, aug)

    monkeypatch.setattr(analysis, "robust_reach", counted)
    rng = np.random.default_rng(2026)
    seen = {2: 0, 3: 0}
    for _ in range(300):
        model = random_model(rng, n=int(rng.integers(2, 6)))
        targets.clear()
        try:
            report = minimal_targets(model, subset_cap=14)
        except ResourceLimitError:
            continue
        if not report.residual:
            continue
        reaches = 3 if report.invariant_set else 2
        assert len(targets) == reaches
        seen[reaches] += 1
        aug = report.system
        first = report.core | report.partition.s2 | report.invariant_set
        widened_target = mirror_close(first, model.n)
        widened = robust_reach(widened_target, aug).union
        second = report.residual - (report.invariant_set | widened)
        assert report.second_residual == second
        assert report.second_anchors == (minimal_anchor_sets(second, aug, cap=14) if second else ())
    assert seen[2] >= 40 and seen[3] >= 20, seen


def test_warm_started_reaches_equal_cold_ones():
    # minimal_targets starts each nested reach from the union of the one before.
    rng = np.random.default_rng(2027)
    checked = {"core": 0, "widened": 0, "nested": 0}
    for _ in range(300):
        model = random_model(rng, n=int(rng.integers(2, 6)))
        try:
            report = minimal_targets(model, subset_cap=14)
        except ResourceLimitError:
            continue
        aug, n = report.system, model.n
        core_target = report.core | report.partition.s2
        if report.indistinguishable:
            cold = robust_reach(mirror_close(core_target, n), aug).union
            assert report.core_reach == cold
            checked["core"] += bool(cold)
        if report.invariant_set:
            widened = mirror_close(core_target | report.invariant_set, n)
            warm = analysis._warm_reach(widened, report.core_reach, aug)
            assert warm == robust_reach(widened, aug).union
            checked["widened"] += 1
        # Any nested pair of mirror-closed targets.
        pairs = aug.pair_count
        small_raw = StateSet.from_indices(pairs, rng.integers(1, pairs + 1, size=pairs // 8 + 1))
        small = mirror_close(small_raw, n)
        big = small | mirror_close(
            StateSet.from_indices(pairs, rng.integers(1, pairs + 1, size=pairs // 8 + 1)), n
        )
        start = robust_reach(small, aug).union
        assert analysis._warm_reach(big, start, aug) == robust_reach(big, aug).union
        checked["nested"] += bool(start - big)
    assert checked["core"] >= 200 and checked["widened"] >= 30 and checked["nested"] >= 200, checked


def _reference_acyclic(succ, alive):
    """Whether the vertices of the bitmask ``alive`` induce an acyclic graph, by a plain DFS."""
    state = {}

    def cyclic_from(v):
        state[v] = "open"
        for w in range(len(succ)):
            if succ[v] >> w & 1 and alive >> w & 1:
                if state.get(w) == "open" or (w not in state and cyclic_from(w)):
                    return True
        state[v] = "done"
        return False

    return not any(alive >> v & 1 and v not in state and cyclic_from(v) for v in range(len(succ)))


def test_cycle_breakers_match_brute_force_feedback_vertex_sets():
    rng = np.random.default_rng(18)
    checked = 0
    while checked < 320:
        size = int(rng.integers(1, 11))
        edges = rng.random((size, size)) < rng.uniform(0.1, 0.5)  # self-loops included
        succ = [int(sum(1 << w for w in np.flatnonzero(row))) for row in edges]
        everything = (1 << size) - 1
        if _reference_acyclic(succ, everything):
            continue
        breaking = [m for m in range(1, 1 << size) if _reference_acyclic(succ, everything ^ m)]
        # Breaking is monotone, so a set is minimal when no one-smaller subset breaks.
        broken = set(breaking)
        minimal = sorted(
            m for m in breaking if not any(m ^ (1 << v) in broken for v in range(size) if m >> v & 1)
        )
        assert sorted(analysis._minimal_cycle_breakers(succ)) == minimal
        checked += 1


@pytest.mark.parametrize("size", [63, 64, 70])
def test_cycle_breakers_of_a_cycle_wider_than_an_int64_mask(size):
    # Each single vertex breaks one long cycle; from 64 vertices on, masks are Python ints.
    succ = [1 << (v + 1) % size for v in range(size)]
    assert analysis._minimal_cycle_breakers(succ) == [1 << v for v in range(size)]


def test_cycle_breakers_test_subsets_in_bounded_blocks(monkeypatch):
    # Blocks of a few subsets give the same answer as one block per size.
    rng = np.random.default_rng(19)
    for _ in range(40):
        size = int(rng.integers(2, 9))
        succ = [int(m) for m in rng.integers(0, 1 << size, size)]
        if _reference_acyclic(succ, (1 << size) - 1):
            continue
        whole = sorted(analysis._minimal_cycle_breakers(succ))
        monkeypatch.setattr(analysis, "BREAKER_BLOCK", 3)
        assert sorted(analysis._minimal_cycle_breakers(succ)) == whole
        monkeypatch.undo()
