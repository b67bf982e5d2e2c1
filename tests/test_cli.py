import json

import pytest

from pbn_minobs.cli import EXIT_INFEASIBLE, EXIT_OK, EXIT_RESOURCE, EXIT_VALIDATION, main

from conftest import CORE_EXPECTED, MODEL_PATH, S1_EXPECTED


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
    monkeypatch.setenv("PBN_MINOBS_MAX_DIM", "100")
    code, _, err = run(capsys, "analyze", MODEL_PATH)
    assert code == EXIT_RESOURCE
    assert "cap" in err


def test_reach_named_target(capsys):
    code, out, _ = run(capsys, "reach", MODEL_PATH, "--target", "S2")
    assert code == EXIT_OK
    assert "union (0 states in 0 layers)" in out
    assert "4=" not in out.split("union")[1]


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


def test_only_dot_builds_the_expectation_matrix(capsys, monkeypatch, tmp_path):
    from pbn_minobs import StochasticMatrix

    def boom(*args, **kwargs):
        raise AssertionError("expectation matrix built")

    monkeypatch.setattr(StochasticMatrix, "from_weighted_maps", boom)
    code, _, _ = run(capsys, "reach", MODEL_PATH, "--target", "S2")
    assert code == EXIT_OK
    code, _, _ = run(capsys, "analyze", MODEL_PATH, "--quiet", "--sensors")
    assert code == EXIT_OK
    with pytest.raises(AssertionError, match="expectation matrix built"):
        main(["analyze", str(MODEL_PATH), "--quiet", "--dot", str(tmp_path / "s1.dot")])
