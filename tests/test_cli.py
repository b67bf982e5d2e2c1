import contextlib
import io
import json
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pbn_minobs import (
    ResourceLimitError,
    StateSet,
    build_augmented,
    global_min_sensors,
    minimal_targets,
    mirror_close,
    pair_index,
    pair_split,
    partition_states,
    render_model,
    robust_reach,
    robust_reach_oracle,
)
from pbn_minobs import cli
from pbn_minobs.analysis import DEFAULT_SUBSET_CAP
from pbn_minobs.cli import (
    BYTE_MATRIX_MIN,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_VALIDATION,
    LISTING_BLOCK,
    build_report,
    main,
)

from conftest import CORE_EXPECTED, MODEL_PATH, S1_EXPECTED, random_model


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", MODEL_PATH)
    assert code == EXIT_OK
    assert "states=3" in out and "outputs=1" in out and "subnetworks=4" in out


def test_validate_bad_rule(tmp_path, capsys):
    bad = tmp_path / "bad.pbn"
    bad.write_text(
        "states: 1\noutputs: 1\nsubnetworks: 1\np: 1.0\n"
        "[net 1]\nx1' = x1 &\n[output]\ny1 = x1\n"
    )
    code, _, err = run(capsys, "validate", bad)
    assert code == EXIT_VALIDATION
    assert "line 6" in err


def test_validate_bad_probabilities(tmp_path, capsys):
    bad = tmp_path / "bad.pbn"
    bad.write_text(
        "states: 1\noutputs: 1\nsubnetworks: 2\np: 0.5 0.4\n"
        "[net 1]\nx1' = x1\n[net 2]\nx1' = !x1\n[output]\ny1 = x1\n"
    )
    code, _, err = run(capsys, "validate", bad)
    assert code == EXIT_VALIDATION
    assert "sum" in err


def test_analyze_report_structure(capsys):
    code, out, err = run(capsys, "analyze", MODEL_PATH, "--sensors")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report == json.loads(json.dumps(report))  # lossless round trip
    assert report["model"]["states"] == 3
    assert [e["index"] for e in report["partition"]["s1"]] == list(S1_EXPECTED)
    assert report["analysis"]["observable"] is False
    assert [e["index"] for e in report["analysis"]["core"]] == list(CORE_EXPECTED)
    assert [[e["index"] for e in c] for c in report["analysis"]["candidates"]] == [
        list(CORE_EXPECTED)
    ]
    sensors = report["sensors"]
    assert sensors["min_size"] == 2
    variables = sorted(o["variables"] for o in sensors["optima"])
    assert variables == [[1, 2], [1, 3]]
    assert sensors["extended_observable"] is True
    assert "minimum added measurements" in err
    # Pair notation echoed next to linear indices.
    assert report["analysis"]["core"][0]["pair"] == [1, 4]


def test_analyze_quiet_and_out(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, err = run(capsys, "analyze", MODEL_PATH, "--quiet", "--out", out_path)
    assert code == EXIT_OK
    assert out == ""
    assert err == ""
    report = json.loads(out_path.read_text())
    assert report["sensors"] is None
    assert report["timing"]["total_s"] >= 0


def test_consecutive_main_calls_keep_no_state(capsys):
    code, out, err = run(capsys, "analyze", MODEL_PATH, "--quiet", "--max-subset", "5")
    assert code == EXIT_OK and err == ""
    assert json.loads(out)["config"]["max_subset"] == 5
    code, out, err = run(capsys, "analyze", MODEL_PATH)
    assert code == EXIT_OK
    assert "observable: no" in err
    assert json.loads(out)["config"]["max_subset"] == DEFAULT_SUBSET_CAP


def test_analyze_dot_export(tmp_path, capsys):
    dot_path = tmp_path / "s1.dot"
    code, _, _ = run(capsys, "analyze", MODEL_PATH, "--quiet", "--dot", dot_path)
    assert code == EXIT_OK
    text = dot_path.read_text()
    assert text.startswith("digraph")
    assert text.count("{") == text.count("}") == 1
    for z in S1_EXPECTED:
        assert f'"z{z}"' in text
    assert '"S0"' in text and '"S2"' in text
    assert '"z22" -> "z29" [label="1"];' in text
    assert '"z31" -> "S0" [label="0.3"];' in text


def test_analyze_resource_cap_exit_code(capsys, monkeypatch):
    # The bundled model's largest arrays hold 64 entries: its 8 x 8 rule
    # products and its pair-space set.
    monkeypatch.setenv("PBN_MINOBS_MAX_DIM", "63")
    code, _, err = run(capsys, "analyze", MODEL_PATH)
    assert code == EXIT_RESOURCE
    assert "cap" in err


def test_entry_cap_counts_the_pair_space_not_the_pair_maps(capsys, monkeypatch, tmp_path):
    # n = 4, k = 4: the 4^n = 256 pair-space set is the largest array a build makes.
    model = random_model(np.random.default_rng(77), n=4, m=4, allow_zero_probs=False)
    assert len(model.active) == 4
    path = tmp_path / "n4.pbn"
    path.write_text(render_model(model), encoding="utf-8")
    monkeypatch.setenv("PBN_MINOBS_MAX_DIM", "256")
    aug = build_augmented(model)
    target = mirror_close(partition_states(model).s2, model.n)
    union = robust_reach(target, aug).union
    assert mirror_close(union, model.n) == robust_reach_oracle(target, model)
    assert run(capsys, "reach", str(path), "--target", "S2")[0] == EXIT_OK
    monkeypatch.setenv("PBN_MINOBS_MAX_DIM", "255")
    refusal = "pair space of size 16x16 exceeds the entry cap 255"
    with pytest.raises(ResourceLimitError, match=refusal):
        build_augmented(model)
    code, out, err = run(capsys, "analyze", str(path))
    assert code == EXIT_RESOURCE and out == ""
    assert "pair space" in err and "cap 255" in err


def test_reach_named_target(capsys):
    code, out, _ = run(capsys, "reach", MODEL_PATH, "--target", "S2")
    assert code == EXIT_OK
    assert "union (0 states in 0 layers)" in out
    assert "4=" not in out.split("union")[1]


def test_reach_named_target_ignores_case_and_blanks(capsys):
    for loose, exact in ((" s2 ", "S2"), ("s1", "S1")):
        code, out, _ = run(capsys, "reach", MODEL_PATH, "--target", loose)
        assert code == EXIT_OK
        assert out == run(capsys, "reach", MODEL_PATH, "--target", exact)[1]


def test_reach_explicit_indices(capsys):
    code, out, _ = run(
        capsys, "reach", MODEL_PATH, "--target", "4,5,14,24,29,31,"
        "2,3,6,8,12,13,15,20,21,23,30,32,38,40,47,56"
    )
    assert code == EXIT_OK
    for z in (7, 11, 16, 22, 48):
        assert f"{z}=" in out


def test_reach_range_error(capsys):
    code, _, err = run(capsys, "reach", MODEL_PATH, "--target", "99999")
    assert code == EXIT_VALIDATION
    assert "out of range" in err


def test_reach_unknown_name(capsys):
    code, _, err = run(capsys, "reach", MODEL_PATH, "--target", "S9x")
    assert code == EXIT_VALIDATION


def test_simulate_reproducible(capsys):
    args = ("simulate", MODEL_PATH, "--pair", "1,4", "--T", "20", "--trials", "1000",
            "--seed", "7")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    assert "estimated separation probability" in out1


def test_simulate_negative_seed_is_rejected_for_every_pair(capsys):
    # Outputs of states 1 and 2 differ, so no generator is ever drawn for
    # that pair; states 2 and 3 share their output and need one.
    for pair in ("1,2", "2,3"):
        code, out, err = run(capsys, "simulate", MODEL_PATH, "--pair", pair, "--seed", "-1")
        assert code == EXIT_VALIDATION
        assert not out
        assert "seed must be nonnegative, got -1" in err


def test_simulate_over_the_step_budget_exits_4_at_once(capsys, tmp_path):
    # A blind 2-state cycle: the pair never separates or merges, so without a
    # budget every trial would run the whole horizon.
    blind = tmp_path / "blind.pbn"
    blind.write_text(
        "states: 1\noutputs: 1\nsubnetworks: 1\np: 1.0\n"
        "[net 1]\nL = delta2[2 1]\n[output]\nH = delta2[1 1]\n"
    )
    # States 1 and 2 of the bundled model differ in output at time zero.
    for path in (blind, MODEL_PATH):
        start = time.perf_counter()
        code, out, err = run(
            capsys, "simulate", path, "--pair", "1,2", "--T", "1000000", "--trials", "1000"
        )
        assert time.perf_counter() - start < 5.0
        assert code == EXIT_RESOURCE
        assert not out
        assert "1000000 x 1000 = 1000000000 steps, over the budget 10000000" in err


def test_simulate_malformed_pair(capsys):
    code, _, err = run(capsys, "simulate", MODEL_PATH, "--pair", "1;4")
    assert code == EXIT_VALIDATION
    assert "pair" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "validate", "no-such-file.pbn")
    assert code == EXIT_VALIDATION


def test_max_subset_cap_maps_to_resource_exit(tmp_path, capsys):
    # A fixed-point-free permutation under a blind output: every pair is
    # indistinguishable, the whole residual is invariant, so the anchor
    # search needs subset enumeration and trips a zero cap.
    model = tmp_path / "cycle.pbn"
    model.write_text(
        "states: 2\noutputs: 1\nsubnetworks: 1\np: 1.0\n"
        "[net 1]\nL = delta4[3 4 1 2]\n[output]\nH = delta2[1 1 1 1]\n"
    )
    code, _, err = run(capsys, "analyze", model, "--quiet", "--max-subset", "0")
    assert code == EXIT_RESOURCE
    assert "cap" in err
    code, out, _ = run(capsys, "analyze", model, "--quiet", "--max-subset", "20")
    assert code == EXIT_OK
    assert json.loads(out)["analysis"]["candidates"]


def test_negative_max_subset_is_rejected(tmp_path, capsys):
    cycle = tmp_path / "cycle.pbn"
    cycle.write_text(
        "states: 2\noutputs: 1\nsubnetworks: 1\np: 1.0\n"
        "[net 1]\nL = delta4[3 4 1 2]\n[output]\nH = delta2[1 1 1 1]\n"
    )
    for model in (MODEL_PATH, cycle):
        code, out, err = run(capsys, "analyze", model, "--quiet", "--max-subset", "-1")
        assert code == EXIT_VALIDATION
        assert not out
        assert "subset cap must be nonnegative, got -1" in err


def test_report_writer_matches_json_dumps(capsys, tmp_path):
    import io

    import pbn_minobs.cli as cli_mod

    code, out, _ = run(capsys, "analyze", MODEL_PATH, "--sensors", "--quiet")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert out == json.dumps(doc, indent=2) + "\n"
    stream = io.StringIO()
    cli_mod.write_json(doc, stream)
    assert stream.getvalue() == json.dumps(doc, indent=2) + "\n"
    report = tmp_path / "report.json"
    assert run(capsys, "analyze", MODEL_PATH, "--sensors", "--quiet", "--out", report)[0] == EXIT_OK
    written = report.read_text(encoding="utf-8")
    assert written == json.dumps(json.loads(written), indent=2) + "\n"


def test_infeasible_cover_maps_to_exit_3(capsys, monkeypatch):
    import pbn_minobs.cli as cli_mod
    from pbn_minobs import InfeasibleCoverError

    def boom(*args, **kwargs):
        raise InfeasibleCoverError("no cover")

    monkeypatch.setattr(cli_mod, "global_min_sensors", boom)
    code, _, err = run(capsys, "analyze", MODEL_PATH, "--quiet", "--sensors")
    assert code == EXIT_INFEASIBLE
    assert "no cover" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "pbn-minobs" in capsys.readouterr().out


def test_analyze_does_not_build_the_pair_output_matrix(capsys, monkeypatch):
    # The 64x64 Kronecker square of the output would exceed this cap; the
    # analysis never reads it, so the command must still succeed.
    monkeypatch.setenv("PBN_MINOBS_MAX_DIM", "1000")
    code, out, _ = run(capsys, "analyze", MODEL_PATH, "--sensors")
    assert code == EXIT_OK
    optima = sorted(o["variables"] for o in json.loads(out)["sensors"]["optima"])
    assert optima == [[1, 2], [1, 3]]


def test_analyze_with_sensors_and_dot_builds_one_pair_system(capsys, monkeypatch, tmp_path):
    import pbn_minobs.analysis as analysis_mod
    import pbn_minobs.cli as cli_mod

    built = []

    def counted(model):
        built.append(model)
        return build_augmented(model)

    monkeypatch.setattr(analysis_mod, "build_augmented", counted)
    monkeypatch.setattr(cli_mod, "build_augmented", counted)
    dot = tmp_path / "s1.dot"
    code, _, err = run(capsys, "analyze", MODEL_PATH, "--sensors", "--dot", dot)
    assert code == EXIT_OK
    assert "re-verified observable: True" in err
    assert dot.read_text().startswith("digraph s1_transitions {")
    assert len(built) == 1


def test_only_dot_builds_the_expectation_matrix(capsys, monkeypatch, tmp_path):
    from pbn_minobs import StochasticMatrix

    def boom(*args, **kwargs):
        raise AssertionError("expectation matrix built")

    monkeypatch.setattr(StochasticMatrix, "__init__", boom)
    code, _, _ = run(capsys, "reach", MODEL_PATH, "--target", "S2")
    assert code == EXIT_OK
    code, _, _ = run(capsys, "analyze", MODEL_PATH, "--quiet", "--sensors")
    assert code == EXIT_OK
    with pytest.raises(AssertionError, match="expectation matrix built"):
        main(["analyze", str(MODEL_PATH), "--quiet", "--dot", str(tmp_path / "s1.dot")])


def test_dot_reads_only_the_s1_columns(capsys, monkeypatch, tmp_path):
    import pbn_minobs.analysis as analysis_mod

    reports = []

    def kept(model, **kwargs):
        reports.append(analysis_mod.minimal_targets(model, **kwargs))
        return reports[-1]

    monkeypatch.setattr(cli, "minimal_targets", kept)
    code, _, _ = run(capsys, "analyze", MODEL_PATH, "--quiet", "--dot", tmp_path / "s1.dot")
    assert code == EXIT_OK
    # The cached q_matrix would sit in the system's __dict__ once read.
    assert "q_matrix" not in reports[0].system.__dict__
    # An observable model has no s1 column to read.
    path = tmp_path / "observable.pbn"
    path.write_text("states: 1\noutputs: 1\nsubnetworks: 1\np: 1\n[net 1]\nx1' = x1\n"
                    "[output]\ny1 = x1\n")
    code, _, _ = run(capsys, "analyze", path, "--quiet", "--dot", tmp_path / "empty.dot")
    assert code == EXIT_OK
    assert (tmp_path / "empty.dot").read_text() == (
        "digraph s1_transitions {\n  rankdir=LR;\n  node [shape=ellipse];\n}\n"
    )


def test_reach_index_target_builds_no_partition(capsys, monkeypatch):
    def boom(model):
        raise AssertionError("partition built")

    monkeypatch.setattr(cli, "partition_states", boom)
    spec = "1, 10 19 28,37 46 55 64"
    code, out, err = run(capsys, "reach", MODEL_PATH, "--target", spec)
    assert (code, err) == (EXIT_OK, "")
    assert out == (
        "target (8 states, mirror-closed): {1=(1,1), 10=(2,2), 19=(3,3), 28=(4,4), "
        "37=(5,5), 46=(6,6), 55=(7,7), 64=(8,8)}\n"
        "layer 1: {2=(1,2), 20=(3,4)}\n"
        "union (4 states in 1 layers): {2=(1,2), 20=(3,4)}\n"
    )
    with pytest.raises(AssertionError, match="partition built"):
        main(["reach", str(MODEL_PATH), "--target", "S1"])


# ---------------------------------------------------------------------------
# Differential check of the report writer and the pair listings against the
# stdlib encoder over one dict per pair, and plain f-strings
# ---------------------------------------------------------------------------

def _reference_listing(states, n):
    """(index, i, j) of every i <= j pair of ``states`` or its mirror image."""
    folded = set()
    for k in states.indices():
        i, j = pair_split(k, n)
        folded.add(pair_index(min(i, j), max(i, j), n))
    return [(k, *pair_split(k, n)) for k in sorted(folded)]


def _reference_doc(value, n):
    """The report with each StateSet spelled out as one {"index", "pair"} dict per pair."""
    if isinstance(value, StateSet):
        return [{"index": z, "pair": [i, j]} for z, i, j in _reference_listing(value, n)]
    if isinstance(value, dict):
        return {key: _reference_doc(item, n) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_reference_doc(item, n) for item in value]
    return value


def _reference_fmt(states, n):
    return "{" + ", ".join(f"{z}=({i},{j})" for z, i, j in _reference_listing(states, n)) + "}"


ANALYSIS_KEYS = [
    "observable", "already_distinguishable", "indistinguishable", "one_step_diagonal",
    "fixed_points", "core", "residual", "invariant_set", "invariant_anchors",
    "second_residual", "second_anchors", "candidates",
]
SENSORS_KEYS = ["min_size", "per_candidate", "optima", "suggested", "extended_observable"]


def _check_analyze(capsys, path, model):
    """Run ``analyze --sensors --max-subset 14`` and compare it with the references."""
    code, out, err = run(capsys, "analyze", path, "--sensors", "--max-subset", "14")
    n = model.n
    try:
        analysis = minimal_targets(model, subset_cap=14)
    except ResourceLimitError as exc:
        assert (code, out, err) == (EXIT_RESOURCE, "", f"resource limit: {exc}\n")
        return "refused"
    plan = None if analysis.observable else global_min_sensors(analysis)
    report = json.loads(out)
    doc = build_report(str(path), analysis, plan, report["timing"])
    assert code == EXIT_OK
    assert out == json.dumps(_reference_doc(doc, n), indent=2) + "\n"
    assert list(report["analysis"]) == ANALYSIS_KEYS
    if analysis.observable:
        assert report["sensors"] is None
        return "observable"
    # Each set is listed once: per_candidate[k] pairs with candidates[k] by position.
    sensors = report["sensors"]
    per_candidate = sensors["per_candidate"]
    assert list(sensors) == SENSORS_KEYS
    assert len(per_candidate) == len(report["analysis"]["candidates"])
    assert all(list(entry) == ["covers", "size"] for entry in per_candidate)
    for optimum in sensors["optima"]:
        assert optimum["variables"] in per_candidate[optimum["candidate"]]["covers"]
    listed = [
        f"indistinguishable pairs: {_reference_fmt(analysis.indistinguishable, n)}",
        "must separate directly (diagonal hitters + fixed points): "
        f"{_reference_fmt(analysis.core, n)}",
    ] + [
        f"candidate {pos}: core + {_reference_fmt(c - analysis.core, n)}"
        for pos, c in enumerate(analysis.candidates)
    ]
    assert err.splitlines()[3 : 3 + len(listed)] == listed
    core = set(analysis.core.indices())
    for line in listed[2:]:
        assert not core & {int(z) for z in re.findall(r"(\d+)=\(", line)}, line
    return "unobservable"


def _check_reach(capsys, path, model, spec="S2", target=None):
    """Run ``reach --target spec`` and compare it with the references; ``target`` defaults to S2."""
    n = model.n
    target = mirror_close(partition_states(model).s2 if target is None else target, n)
    aug = build_augmented(model)
    result = robust_reach(target, aug)
    layers = [StateSet.from_indices(aug.pair_count, layer + 1) for layer in result.layers]
    expected = [f"target ({len(target)} states, mirror-closed): {_reference_fmt(target, n)}"]
    expected += [f"layer {step}: {_reference_fmt(layer, n)}"
                 for step, layer in enumerate(layers, start=1)]
    union = mirror_close(result.union, n)
    expected.append(f"union ({len(union)} states in {result.steps} layers): "
                    f"{_reference_fmt(result.union, n)}")
    assert run(capsys, "reach", path, "--target", spec) == (EXIT_OK, "\n".join(expected) + "\n", "")


def test_bundled_report_and_listings_match_references(capsys, apoptosis):
    assert _check_analyze(capsys, MODEL_PATH, apoptosis) == "unobservable"
    _check_reach(capsys, MODEL_PATH, apoptosis)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_random_reports_and_listings_match_references(capsys, tmp_path, n):
    rng = np.random.default_rng([2026, n])
    seen = set()
    for k in range(45):
        model = random_model(rng, n=n)
        path = tmp_path / f"model-{k}.pbn"
        path.write_text(render_model(model), encoding="utf-8")
        seen.add(_check_analyze(capsys, path, model))
        if k % 3 == 0:
            _check_reach(capsys, path, model)
    # Random models above n = 4 are seldom observable.
    assert {"observable", "unobservable"} <= seen if n <= 4 else "unobservable" in seen


def test_reach_lists_index_targets_by_their_mirror_closure(capsys, tmp_path):
    # Listed pairs on either side of the diagonal, repeated, or both halves of one.
    rng = np.random.default_rng(2028)
    for k in range(30):
        model = random_model(rng, n=int(rng.integers(1, 6)))
        path = tmp_path / f"model-{k}.pbn"
        path.write_text(render_model(model), encoding="utf-8")
        pairs = 4**model.n
        raw = rng.integers(1, pairs + 1, size=int(rng.integers(1, pairs // 3 + 2)))
        spec = ", ".join(map(str, raw.tolist()))
        _check_reach(capsys, path, model, spec, StateSet.from_indices(pairs, raw))


def _plain_fmt(z, n):
    """``{index=(i,j), ...}`` of the 0-based pair indices ``z``, one Python int at a time."""
    mask = (1 << n) - 1
    return "{" + ", ".join(f"{k + 1}=({(k >> n) + 1},{(k & mask) + 1})" for k in z.tolist()) + "}"


def _pairs_at(first, second, n):
    """0-based indices of the 1-based pairs (first[k], second[k]) in the 4^n pair space."""
    return (np.asarray(first, dtype=np.int64) - 1) << n | (np.asarray(second, dtype=np.int64) - 1)


def _plain_json(z, n, pad):
    """The report listing of the 0-based pair indices ``z`` at the indent ``pad``, by the stdlib."""
    mask = (1 << n) - 1
    entries = [{"index": k + 1, "pair": [(k >> n) + 1, (k & mask) + 1]} for k in z.tolist()]
    return json.dumps(entries, indent=2).replace("\n", "\n" + pad)


# 1 sends every non-empty listing through the byte matrix, 10**9 none of them.
@pytest.mark.parametrize("shortest", [1, BYTE_MATRIX_MIN, 10**9])
def test_pair_formatter_matches_plain_join(monkeypatch, shortest):
    monkeypatch.setattr(cli, "BYTE_MATRIX_MIN", shortest)
    rng = np.random.default_rng(17)
    listings = [(np.array([0]), 1), (np.array([4**10 - 1]), 10), (np.array([5]), 31)]
    for size in (BYTE_MATRIX_MIN - 1, BYTE_MATRIX_MIN, BYTE_MATRIX_MIN + 1):
        listings.append((np.sort(rng.choice(4**7, size, replace=False)), 7))
    # At n = 13, the largest n of the per-state tables, one block holds the
    # index values 9999, 10^4, 10^7 - 1 and 10^7, and state 2^13 in either column.
    top = 2**13
    edges = np.array([9999, 10**4, 10**7 - 1, 10**7]) - 1
    pairs = _pairs_at([top, 1, top, 9999 % top], [1, top, top, top], 13)
    spread = rng.choice(4**13, BYTE_MATRIX_MIN)
    listings.append((np.concatenate([spread[:5], edges, pairs, spread[5:]]), 13))
    # Digit-chunk edges of the index, and of i and j next to every other edge,
    # where each column's bound has more chunks than its values (n = 14, 27, 31:
    # pair spaces past the default entry cap, so one f-string per entry).
    chunk_edges = np.array([1, 9999, 10**4, 10**4 + 1, 10**8 - 1, 10**8, 10**12, 10**16])
    for n in (14, 27, 31):
        index_edges = chunk_edges[chunk_edges <= 4**n]
        state_edges = np.append(chunk_edges[chunk_edges <= 2**n], 2**n)
        listings.append((np.append(index_edges, 4**n) - 1, n))
        for shift in range(state_edges.size):
            listings.append((_pairs_at(state_edges, np.roll(state_edges, shift), n), n))
        mixed = rng.choice(state_edges, (2, 3 * BYTE_MATRIX_MIN))
        listings.append((_pairs_at(mixed[0], mixed[1], n), n))
    for size in (LISTING_BLOCK, 2 * LISTING_BLOCK + 1):  # one and three write blocks
        listings.append((np.sort(rng.choice(4**12, size, replace=False)), 12))
    for z, n in listings:
        assert cli._fmt_pairs(z, n) == _plain_fmt(z, n)
        for pad in ("", "      "):
            assert "".join(_written_pairs(z, n, cli._json_layout(pad))) == _plain_json(z, n, pad)
    assert cli._fmt_pairs(np.array([], dtype=np.int64), 3) == "{}"
    assert _written_pairs(np.array([], dtype=np.int64), 3, cli._json_layout("  ")) == ["[]"]


def test_pair_formatter_tables_past_four_digit_states(monkeypatch):
    # With the entry cap raised to 4^17, the n = 14 and 17 listings go through
    # the per-state tables: 3-chunk indices, and 5- and 6-digit states.
    monkeypatch.setenv("PBN_MINOBS_MAX_DIM", str(4**17))
    cli._state_items.cache_clear()
    rng = np.random.default_rng(22)
    index_edges = np.array([9999, 10**4, 10**8 - 1, 10**8]) - 1
    for n in (14, 17):
        states = np.array([9999, 10**4, 2**n])
        pairs = _pairs_at(np.repeat(states, 3), np.tile(states, 3), n)  # each in either column
        z = np.concatenate([index_edges, pairs, rng.choice(4**n, BYTE_MATRIX_MIN)])
        assert cli._fmt_pairs(z, n) == _plain_fmt(z, n)
        for pad in ("", "      "):
            assert "".join(_written_pairs(z, n, cli._json_layout(pad))) == _plain_json(z, n, pad)
    # Two tables for each of the three layouts at each n.
    assert cli._state_items.cache_info().currsize == 12
    cli._state_items.cache_clear()


def test_pair_formatter_builds_no_table_past_the_entry_cap(monkeypatch):
    monkeypatch.delenv("PBN_MINOBS_MAX_DIM", raising=False)

    def boom(*args):
        raise AssertionError("state table built")

    monkeypatch.setattr(cli, "_state_items", boom)
    n = 31
    z = np.random.default_rng(23).integers(0, 4**n, 3 * BYTE_MATRIX_MIN)
    assert cli._fmt_pairs(z, n) == _plain_fmt(z, n)
    assert "".join(_written_pairs(z, n, cli._json_layout("  "))) == _plain_json(z, n, "  ")


def _written_pairs(z, n, layout=cli.REACH_LAYOUT):
    """The calls :func:`cli._write_pairs` makes to its ``write``."""
    writes = []
    cli._write_pairs(writes.append, z, n, layout)
    return writes


def _sorted_listing(rng, size):
    """``size`` ascending 0-based pair indices at n = 12."""
    return np.sort(rng.choice(4**12, size, replace=False))


def test_block_writer_matches_plain_join():
    rng = np.random.default_rng(19)
    for size in (0, 1, BYTE_MATRIX_MIN - 1, BYTE_MATRIX_MIN):
        z = _sorted_listing(rng, size)
        writes = _written_pairs(z, 12)
        assert "".join(writes) == _plain_fmt(z, 12)
        assert len(writes) == (1 if size < BYTE_MATRIX_MIN else 2)


@pytest.mark.parametrize("shortest", [1, BYTE_MATRIX_MIN])
def test_block_writer_matches_plain_join_across_block_edges(monkeypatch, shortest):
    monkeypatch.setattr(cli, "LISTING_BLOCK", 5)
    monkeypatch.setattr(cli, "BYTE_MATRIX_MIN", shortest)
    rng = np.random.default_rng(20)
    for size in range(shortest, shortest + 12):
        z = _sorted_listing(rng, size)
        writes = _written_pairs(z, 12)
        assert "".join(writes) == _plain_fmt(z, 12)
        assert len(writes) == 1 + -(-size // 5)  # the opening brace, then one per block
        assert cli._fmt_pairs(z, 12) == _plain_fmt(z, 12)


def test_reach_streams_its_listings_without_the_grid_fold(capsys, monkeypatch, tmp_path):
    # An n = 8 model with four output values: its S2 half holds more than
    # LISTING_BLOCK pairs, so the target listing goes out in several writes.
    model = random_model(np.random.default_rng(21), n=8, m=4, q=2, allow_zero_probs=False)
    path = tmp_path / "n8.pbn"
    path.write_text(render_model(model), encoding="utf-8")

    # The command line holds no fold over the pair grid and no mirror closure.
    assert "folded_pairs" not in vars(cli) and "mirror_close" not in vars(cli)
    writes = []

    class Recorder:
        def write(self, text):
            writes.append(text)

    monkeypatch.setattr(cli.sys, "stdout", Recorder())
    assert main(["reach", str(path), "--target", "S2"]) == EXIT_OK
    monkeypatch.undo()
    assert len(partition_states(model).s2) > LISTING_BLOCK
    target_writes = writes[1 : writes.index("\nlayer 1: ")]
    assert len(target_writes) > 2
    assert "".join(target_writes).count("=(") == len(partition_states(model).s2)
    _check_reach(capsys, path, model)  # the same bytes as the references
    assert "".join(writes) == run(capsys, "reach", path, "--target", "S2")[1]


# A reach listing, and a report listing at depth 3 (as `candidates[k]`).
@pytest.mark.parametrize("pad", [None, "      "], ids=["reach", "report"])
@pytest.mark.parametrize("n", [9, 12])
def test_pair_formatter_memory_stays_within_four_times_its_text(n, pad):
    # 10^5 entries with the index and state ranges of an n-variable model.
    rng = np.random.default_rng(18)
    size = 1 << n
    count = 100_000
    z = np.sort(rng.choice(size * size, count, replace=False))
    layout = cli.REACH_LAYOUT if pad is None else cli._json_layout(pad)
    _written_pairs(z[:BYTE_MATRIX_MIN], n, layout)  # tables built
    tracemalloc.start()
    try:
        text = "".join(_written_pairs(z, n, layout))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * len(text)


CLI_INTEGERS = st.one_of(st.integers(-2, 70), st.sampled_from([2**63, 10**30]))
CLI_TEXT = st.text(alphabet="0123456789,- Ss", max_size=6)


@st.composite
def cli_argv(draw):
    """Any subcommand on the bundled model (or a missing file), with drawn options."""
    command = draw(st.sampled_from(["validate", "analyze", "reach", "simulate"]))
    path = str(MODEL_PATH) if draw(st.integers(0, 9)) else "no-such-file.pbn"
    argv = [command, path]
    if command == "analyze":
        argv += ["--quiet", "--max-subset", str(draw(CLI_INTEGERS))]
        if draw(st.booleans()):
            argv.append("--sensors")
    elif command == "reach":
        argv += ["--target", draw(st.one_of(st.sampled_from(["S0", "s1", "S2"]), CLI_TEXT))]
    elif command == "simulate":
        state = st.one_of(st.integers(1, 8), CLI_INTEGERS)
        pair = draw(st.one_of(st.tuples(state, state).map("{0[0]},{0[1]}".format), CLI_TEXT))
        argv += ["--pair", pair]
        for option in ("--T", "--trials", "--seed"):
            argv += [option, str(draw(CLI_INTEGERS))]
    return argv


@settings(derandomize=True, deadline=None, max_examples=200)
@given(cli_argv())
def test_every_cli_outcome_is_a_documented_exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == EXIT_VALIDATION, argv
            return
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_INFEASIBLE, EXIT_RESOURCE), argv


def _random_state_set(rng, n):
    """A random i <= j pair set over 4^n, diagonal pairs included."""
    size = 1 << n
    upper = (np.arange(size)[:, None] <= np.arange(size)).reshape(-1)
    return StateSet(4**n, (rng.random(4**n) < rng.uniform(0.0, 0.3)) & upper)


def _sparse_state_set(rng, n):
    """Up to 3 * BYTE_MATRIX_MIN random i <= j pairs over 4^n, and the last pair (2^n, 2^n)."""
    first, second = rng.integers(0, 1 << n, (2, int(rng.integers(0, 3 * BYTE_MATRIX_MIN))))
    z = np.append(np.minimum(first, second) << n | np.maximum(first, second), 4**n - 1)
    return StateSet.from_indices(4**n, z + 1)


# 1 sends every non-empty listing through the byte matrix, 10**9 none of them.
@pytest.mark.parametrize("shortest", [1, BYTE_MATRIX_MIN, 10**9])
@pytest.mark.parametrize("block", [LISTING_BLOCK, 7])
def test_report_writer_matches_json_dumps_on_mixed_documents(block, shortest, monkeypatch):
    # With blocks of 7 entries, most listings are streamed in several blocks.
    monkeypatch.setattr(cli, "LISTING_BLOCK", block)
    monkeypatch.setattr(cli, "BYTE_MATRIX_MIN", shortest)
    rng = np.random.default_rng(185)
    for k in range(60):
        # At n = 7 and 12 the pair indices run past 10^4 and fill two 4-digit chunks.
        n = int(rng.choice([1, 2, 3, 4, 7, 12]))
        draw = _random_state_set if n < 5 else _sparse_state_set
        shared = draw(rng, n)
        doc = {
            "listing": shared,
            "nested": {"deeper": [shared, {"again": shared, "other": draw(rng, n)}]},
            "pair": (shared, StateSet.empty(4**n)),
            "floats": [0.1, 1e-300, -2.5, 3.0, float(rng.random())],
            "flags": [True, False, None],
            "ints": [0, -3, 10**20, int(rng.integers(-100, 100))],
            "text": ["plain", "é ü 日本", 'quote " backslash \\ tab \t newline \n', "\x7f\x00", ""],
            'k"ey\\ é': {"": [], "empty": {}, "tuple": ()},
        }
        stream = io.StringIO()
        cli.write_json(doc if k % 2 else [doc, shared], stream)
        expected = _reference_doc(doc if k % 2 else [doc, shared], n)
        assert stream.getvalue() == json.dumps(expected, indent=2) + "\n"
