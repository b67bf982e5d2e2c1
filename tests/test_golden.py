"""Frozen command outputs on the models in ``tests/data``.

For each model in ``CASES``, the expected stdout, stderr and DOT file of
``analyze --sensors --max-subset 14 --dot``, the stdout of ``reach --target
S2`` and one ``simulate`` line were written by the program and checked in next
to it; a model in ``REACH_CASES`` has only its ``reach --target S2`` stdout.
A difference is a change of an answer or of the output format.  Commands run
from ``tests/data`` with the bare file name, so the report's ``model.path`` is
that name, and every ``timing`` value reads 0.0.
"""

import contextlib
import io
import re
from pathlib import Path

import pytest

from pbn_minobs.cli import main

DATA = Path(__file__).resolve().parent / "data"

# Model name -> an output-equal pair for the simulate command.
CASES = {"apoptosis": "1,4", "family-n4-seed13": "2,4", "zero-probs-n4": "7,11"}

# n = 6 models whose reach listings run past cli.BYTE_MATRIX_MIN entries.
REACH_CASES = ("family-n6-seed1",)

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
