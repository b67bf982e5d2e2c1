"""One workload in one fresh process: time the import, warm up, run the
operations as a closed loop with one client, check every answer.

Usage: worker.py PLAN RESULT --seconds S --trace 0|1

Nothing heavy is imported before the timed ``import pbn_minobs``, so the
first import of numpy is part of the measured set-up.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import resource
import statistics
import sys
import time
from pathlib import Path

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
EXIT_RESOURCE = 4
_UNION_RE = re.compile(r"union \((\d+) states in (\d+) layers\)")


def check_answer(check: dict, stdout: str) -> tuple[bool, str]:
    """(matches, the program's answer as text) for one exit-0 operation."""
    kind = check["kind"]
    if kind == "bundled":
        doc = json.loads(Path(check["out"]).read_text(encoding="utf-8"))
        core = [e["index"] for e in doc["analysis"]["core"]]
        optima = sorted(o["variables"] for o in doc["sensors"]["optima"])
        ext = doc["sensors"]["extended_observable"]
        got = f"core={core} optima={optima} extended_observable={ext}"
        return core == check["core"] and optima == check["optima"] and ext is True, got
    if kind == "reach":
        lines = stdout.splitlines()
        match = _UNION_RE.match(lines[-1]) if lines else None
        got = f"union={match.group(1)}" if match else f"unparsed: {stdout[-200:]!r}"
        return match is not None and int(match.group(1)) == check["union"], got
    if kind == "anchor":
        doc = json.loads(stdout)
        if doc["sensors"] is None:
            got = f"observable={doc['analysis']['observable']} sensors=None"
            return check["min_size"] == 0 and doc["analysis"]["observable"] is True, got
        size, ext = doc["sensors"]["min_size"], doc["sensors"]["extended_observable"]
        got = f"min_size={size} extended_observable={ext}"
        return size == check["min_size"] and ext is True, got
    if kind == "simulate":
        got = stdout.strip()
        return got == check["line"], got
    raise ValueError(f"unknown check kind {kind!r}")


def expected_text(check: dict) -> str:
    return ", ".join(f"{k}={v}" for k, v in check.items() if k not in ("kind", "out"))


class Run:
    """Outcome of one timed phase."""

    def __init__(self):
        self.durations: list[float] = []
        self.failed: list[bool] = []
        self.ok = 0
        self.cap_exits = 0
        self.errors = 0
        self.wrong = 0
        self.problems: list[str] = []
        self.wall = 0.0


def run_op(main, op: dict, run: Run, tracer=None, index: int = 0) -> None:
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.op_id = index
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(op["argv"])
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # an escaped exception is a failed operation, not a crash of the run
        rc = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    stdout = out.getvalue()
    if tracer is not None:
        written = len(stdout) + len(err.getvalue())
        if "--out" in op["argv"]:
            path = op["argv"][op["argv"].index("--out") + 1]
            written += os.path.getsize(path) if os.path.exists(path) else 0
        tracer.counters["cli.output_bytes"] += written
    good = False
    if rc == 0:
        try:
            good, got = check_answer(op["check"], stdout)
        except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
            got = f"unreadable answer: {type(exc).__name__}: {exc}"
        if not good:
            run.wrong += 1
            problem = f"{op['label']} ({' '.join(op['argv'])}): expected {expected_text(op['check'])}; got {got}"
            run.problems.append(problem)
    elif rc == EXIT_RESOURCE:
        run.cap_exits += 1
    else:
        run.errors += 1
        tail = err.getvalue().strip().splitlines()[-1:] or [""]
        run.problems.append(f"{op['label']} ({' '.join(op['argv'])}): exit {rc} {tail[0]}")
    run.ok += good
    run.durations.append(elapsed)
    run.failed.append(not good)


def peak_rss_mb() -> float:
    """Peak resident set of this process's own address space.

    Linux carries the spawning parent's high-water mark over ``exec`` into
    ``ru_maxrss``, so the worker's own ``VmHWM`` is read where it exists.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_phase(main, ops: list[dict], seconds: float, tracer=None) -> Run:
    """Whole passes over ``ops`` until ``seconds`` have gone by."""
    run = Run()
    start = time.perf_counter()
    index = 0
    while time.perf_counter() - start < seconds:
        for op in ops:
            run_op(main, op, run, tracer, index)
            index += 1
    run.wall = time.perf_counter() - start
    return run


def summarize(run: Run) -> dict:
    attempted = len(run.durations)
    completed = sorted(d for d, f in zip(run.durations, run.failed) if not f)
    # A failed operation is slower than every completed one.
    ranked = completed + [float("inf")] * (attempted - len(completed))
    p50 = statistics.median(ranked)
    out = {
        "attempted": attempted,
        "failed": attempted - run.ok,
        "ok": run.ok,
        "cap_exits": run.cap_exits,
        "errors": run.errors,
        "wrong": run.wrong,
        "problems": run.problems[:20],
        "wall_s": run.wall,
        "ops_per_s": run.ok / run.wall,
        # When at least half fail, the median is a failure: report the whole run's wall time.
        "op_p50_ms": 1000 * (p50 if p50 != float("inf") else run.wall),
        "failed_share": (attempted - run.ok) / attempted,
        "op_tail": None,
    }
    if run.ok == attempted:
        for pct in TAIL_PERCENTILES:
            beyond = int(attempted * (100.0 - pct) / 100.0)
            if beyond >= 10:
                out["op_tail"] = {
                    "percentile": pct,
                    "ms": 1000 * completed[attempted - beyond - 1],
                    "samples": attempted,
                }
                break
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("plan")
    parser.add_argument("result")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    t0 = time.perf_counter()
    import pbn_minobs  # noqa: F401
    import pbn_minobs.cli
    setup_s = time.perf_counter() - t0

    ops = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    cli_main = pbn_minobs.cli.main
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        cli_main = tracer.wrap("cli.main", cli_main)

    run_op(cli_main, ops[0], Run(), tracer, -1)  # warm-up, untimed and unchecked
    if tracer is not None:
        tracer.reset()  # drop the warm-up's spans; the patches stay
    run = timed_phase(cli_main, ops, args.seconds, tracer)
    result = summarize(run)
    result.update(
        setup_s=setup_s,
        peak_rss_mb=peak_rss_mb(),
        ru_maxrss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        python=sys.version.split()[0],
        numpy=sys.modules["numpy"].__version__,
        nproc=os.cpu_count(),
        env={k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    )
    if tracer is not None:
        result["layers"] = tracer.metrics(run.wall, run.ok)
        tracer.write(Path(args.result).with_suffix(".spans.npz"))
    Path(args.result).write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
