"""Frozen command outputs on the models in ``tests/data``.

For each model in ``CASES``, the expected stdout, stderr and DOT file of
``analyze --sensors --max-subset 14 --dot``, the stdout of ``reach --target
S2`` and one ``simulate`` line were written by the program and checked in next
to it; a model in ``REACH_CASES`` has its ``reach --target S2`` stdout and the
sha256 of its ``analyze --sensors --max-subset 14`` report.  A difference is a
change of an answer or of the output format.  Commands run from ``tests/data``
with the bare file name, so the report's ``model.path`` is that name, and
every ``timing`` value reads 0.0.  ``anchor-search.sha256`` holds the digests
of the benchmark's 60 anchor_search reports.
"""

import contextlib
import hashlib
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

from pbn_minobs.cli import main
from pbn_minobs.model import render_model

from conftest import random_model

DATA = Path(__file__).resolve().parent / "data"

# Model name -> an output-equal pair for the simulate command.
CASES = {
    "apoptosis": "1,4",
    "family-n4-seed13": "2,4",
    "family-n5-seed7": "1,14",  # a cyclic component of 12 states
    "family-n5-seed15": "1,3",  # 12 candidates; cyclic components of 10 and 3 states
    "zero-probs-n4": "7,11",
}

# Models whose reach and report listings run past cli.BYTE_MATRIX_MIN entries,
# so both layouts of cli._write_pairs take its byte-matrix path; at n = 7 the
# pair indices run past 10^4, the first 4-digit chunk boundary.  Each maps to
# the sha256 of its report (5.2 MB at n = 7), timing zeroed.
REACH_CASES = {
    "family-n6-seed1": "297024c2bfbba0add58088cb5c826b54ce165f585476ac7d7af5a988c9082df4",
    "family-n7-seed1": "a0bc225c4620527ae3a34be8156e29262345a4da9065fca03c0ab8142e452b95",
}

TIMING = re.compile(r'("(?:parse|analysis|sensors|total)_s": )[^,\n]+')


def _run(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def command_outputs(name: str, dot: Path) -> dict[str, str]:
    """Every frozen text for one model, keyed by its file suffix in ``tests/data``."""
    model = f"{name}.pbn"
    code, out, err = _run("analyze", model, "--sensors", "--max-subset", 14, "--dot", dot)
    assert code == 0
    texts = {
        "analyze.out": TIMING.sub(r"\g<1>0.0", out),
        "analyze.err": err,
        "dot": dot.read_text(encoding="utf-8"),
    }
    code, texts["reach.out"], _ = _run("reach", model, "--target", "S2")
    assert code == 0
    pair = CASES[name]
    code, texts["simulate.out"], _ = _run(
        "simulate", model, "--pair", pair, "--T", 20, "--trials", 500, "--seed", 7
    )
    assert code == 0
    return texts


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_frozen_bytes(name, tmp_path, monkeypatch):
    monkeypatch.chdir(DATA)
    texts = command_outputs(name, tmp_path / "s1.dot")
    for suffix, text in texts.items():
        expected = (DATA / f"{name}.{suffix}").read_text(encoding="utf-8")
        assert text == expected, f"{name}.{suffix} differs from the frozen output"


@pytest.mark.parametrize("name", REACH_CASES)
def test_long_reach_listings_match_frozen_bytes(name, monkeypatch):
    monkeypatch.chdir(DATA)
    code, out, err = _run("reach", f"{name}.pbn", "--target", "S2")
    assert (code, err) == (0, "")
    assert out == (DATA / f"{name}.reach.out").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", REACH_CASES)
def test_long_report_listings_match_frozen_digests(name, monkeypatch):
    monkeypatch.chdir(DATA)
    code, out, _ = _run("analyze", f"{name}.pbn", "--sensors", "--max-subset", 14)
    assert code == 0
    digest = hashlib.sha256(TIMING.sub(r"\g<1>0.0", out).encode()).hexdigest()
    assert digest == REACH_CASES[name]


def test_anchor_search_reports_match_frozen_digests(tmp_path, monkeypatch):
    """The benchmark's 60 ``analyze --sensors --max-subset 14`` reports, by sha256.

    The models are perfbench's anchor_search draw, ``GeneratedModel.draw(n, s)``
    for n = 4, 5 and s = 0..29, rebuilt with ``random_model`` (the same draw
    order); each report's stdout, timing zeroed, hashes to the frozen digest.
    """
    monkeypatch.chdir(tmp_path)
    expected = dict(line.split() for line in (DATA / "anchor-search.sha256").read_text().splitlines())
    digests = {
        name: hashlib.sha256(TIMING.sub(r"\g<1>0.0", out).encode()).hexdigest()
        for name, out, _ in _anchor_search_runs()
    }
    assert digests == expected


def test_summary_prints_each_minimum_cover_once(tmp_path, monkeypatch):
    """The stderr summary lists the report's distinct optimal covers in first-seen order."""
    monkeypatch.chdir(tmp_path)
    repeated = 0
    for name, out, err in _anchor_search_runs():
        covers = [tuple(o["variables"]) for o in json.loads(out)["sensors"]["optima"]]
        distinct = dict.fromkeys(covers)
        repeated += len(distinct) < len(covers)
        (line,) = (line for line in err.splitlines() if line.startswith("minimum added"))
        listed = ", ".join("{" + ", ".join(f"x{v}" for v in cover) + "}" for cover in distinct)
        assert line.split(": ", 1)[1] == listed, name
    assert repeated >= 30, repeated


def _anchor_search_runs():
    """(file name, stdout, stderr) of ``analyze --sensors --max-subset 14`` on each model
    of the benchmark's anchor_search draw, written to the working directory."""
    for n in (4, 5):
        for seed in range(30):
            model = random_model(np.random.default_rng(seed), n=n, m=4, q=2, allow_zero_probs=False)
            name = f"anchor-n{n}-{seed}.pbn"
            Path(name).write_text(render_model(model), encoding="utf-8")
            code, out, err = _run("analyze", name, "--sensors", "--max-subset", 14)
            assert code == 0, name
            yield name, out, err
