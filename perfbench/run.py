"""pbn-minobs benchmark: four CLI workloads, end-to-end metrics, a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload bundled_cli --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones from a run with spans around every module boundary.  ``--workload all``
runs each workload untraced (and, with ``--trace 1``, traced as well) and
prints one table with the tracing overhead.  The last line of the output is
one JSON object.  Inputs, plans, reports and spans go to ``perfbench/.work``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
WORKLOAD_NAMES = ("bundled_cli", "pairspace_reach", "anchor_search", "monte_carlo")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBES = 9
# Seconds a worker may overrun its measuring time (warm-up, the last pass, writing spans).
WORKER_GRACE_S = 100
PROBE = (
    "import time; t = time.perf_counter(); import pbn_minobs, pbn_minobs.cli; "
    "print(time.perf_counter() - t)"
)
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("peak_rss_mb", "MB"))


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), **dict.fromkeys(THREAD_VARS, "1"))


def probe_imports(env: dict) -> list[float]:
    """Import time of the package in fresh processes, one after another."""
    out = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", PROBE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        out.append(float(proc.stdout.strip()))
    return out


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    from workloads import WORKLOADS

    work = WORK / f"{name}-seed{seed}-trace{trace}"
    work.mkdir(parents=True, exist_ok=True)
    plan = work / "plan.json"
    result = work / "result.json"
    result.unlink(missing_ok=True)
    plan.write_text(json.dumps(WORKLOADS[name](seed, work), indent=1), encoding="utf-8")

    env = child_env()
    probes = probe_imports(env)
    cmd = [sys.executable, str(HERE / "worker.py"), str(plan), str(result),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=seconds + WORKER_GRACE_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{name} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    res = json.loads(result.read_text(encoding="utf-8"))
    res["import_probes_s"] = probes
    res["setup_s"] = statistics.median(probes + [res["setup_s"]])
    res["correct"] = res["wrong"] == 0 and res["errors"] == 0
    (work / "summary.json").write_text(json.dumps(res, indent=1), encoding="utf-8")
    return res


def print_workload(name: str, res: dict, trace: int) -> None:
    print(f"# {name}: python {res['python']} numpy {res['numpy']} nproc {res['nproc']} "
          f"threads {res['env']}")
    print(f"# {name}: attempted {res['attempted']} ok {res['ok']} cap_exits {res['cap_exits']} "
          f"errors {res['errors']} wrong {res['wrong']} in {res['wall_s']:.3f} s")
    for problem in res["problems"]:
        print(f"# {name}: MISMATCH {problem}")
    if trace:
        for key, m in res["layers"].items():
            print(f"{name} {key} {m['value']:.6g} {m['unit']}")
        return
    for key, unit in END_TO_END:
        print(f"{name} {key} {res[key]:.6g} {unit}")
    tail = res["op_tail"]
    if tail is None:
        print(f"{name} op_tail_ms undefined (an operation failed or too few operations)")
    else:
        print(f"{name} op_tail_ms {tail['ms']:.6g} ms at p{tail['percentile']:g} "
              f"of {tail['samples']} operations")
    print(f"{name} failed_share {res['failed_share']:.6g} ratio")


def last_line(res: dict, trace: int) -> dict:
    if trace:
        metrics = res["layers"]
    else:
        metrics = {key: {"value": res[key], "unit": unit} for key, unit in END_TO_END}
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def run_all(seed: int, seconds: float, trace: int) -> dict:
    rows = {}
    for name in WORKLOAD_NAMES:
        res = run_workload(name, seed, seconds, 0)
        print_workload(name, res, 0)
        rows[name] = {"untraced": res}
        if trace:
            traced = run_workload(name, seed, seconds, 1)
            print_workload(name, traced, 1)
            rows[name]["traced"] = traced
    print()
    print(f"{'workload':16} {'setup_s':>8} {'ops/s':>9} {'p50 ms':>9} {'tail ms':>18} "
          f"{'failed':>7} {'rss MB':>7}" + (f" {'trace overhead':>15}" if trace else ""))
    for name, row in rows.items():
        res = row["untraced"]
        tail = res["op_tail"]
        tail_text = "-" if tail is None else f"{tail['ms']:.2f}@p{tail['percentile']:g}/{tail['samples']}"
        line = (f"{name:16} {res['setup_s']:8.3f} {res['ops_per_s']:9.3f} {res['op_p50_ms']:9.2f} "
                f"{tail_text:>18} {res['failed_share']:7.3f} {res['peak_rss_mb']:7.1f}")
        if trace:
            traced_rate = row["traced"]["layers"]["trace.ops_per_s"]["value"]
            row["trace_overhead"] = 1 - traced_rate / res["ops_per_s"]
            line += f" {100 * row['trace_overhead']:14.1f}%"
        print(line)
    summary = {
        name: {
            "correct": row["untraced"]["correct"],
            "metrics": last_line(row["untraced"], 0)["metrics"],
            "op_tail": row["untraced"]["op_tail"],
            "failed_share": row["untraced"]["failed_share"],
            **({"trace_overhead": row["trace_overhead"]} if trace else {}),
        }
        for name, row in rows.items()
    }
    (WORK / f"all-seed{seed}-trace{trace}.json").write_text(json.dumps(rows, indent=1), encoding="utf-8")
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "pbn_minobs" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'pbn_minobs'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    # Before numpy is imported here, for the reference computations.
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    sys.path.insert(0, str(SRC))

    if args.workload == "all":
        print(json.dumps(run_all(args.seed, args.seconds, args.trace)))
        return 0
    res = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print_workload(args.workload, res, args.trace)
    print(json.dumps(last_line(res, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
