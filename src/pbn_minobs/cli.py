"""Command-line front end: validate, analyze, reach, simulate.

Exit codes: 0 success, 2 validation or argument error, 3 infeasible cover,
4 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import __version__
from .analysis import DEFAULT_SUBSET_CAP, AnalysisReport, minimal_targets
from .augmented import AugmentedSystem, build_augmented
from .errors import InfeasibleCoverError, ModelFormatError, ResourceLimitError
from .model import PbnModel, parse_model_file
from .partition import (
    Partition,
    StateSet,
    folded_pairs,
    mirror_close,
    mirror_index,
    pair_split,
    partition_states,
)
from .reachability import robust_reach
from .sensors import SensorPlan, global_min_sensors
from .simulate import estimate_distinguishability
from .stp import dimension_cap

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_RESOURCE = 4


def _pairs_json(states: StateSet, n: int) -> list[dict]:
    return [{"index": z, "pair": [i, j]} for z, i, j in folded_pairs(states, n)]


def _set_list_json(sets, n: int) -> list[list[dict]]:
    return [_pairs_json(s, n) for s in sets]


def build_report(
    path: str,
    model: PbnModel,
    analysis: AnalysisReport,
    plan: SensorPlan | None,
    timing: dict[str, float],
    subset_cap: int,
) -> dict:
    n = model.n
    doc = {
        "model": {
            "path": path,
            "states": model.n,
            "outputs": model.q,
            "subnetworks": model.m,
            "p": [float(x) for x in model.probs],
        },
        "config": {
            "dimension_cap": dimension_cap(),
            "max_subset": subset_cap,
        },
        "partition": {
            "s0": _pairs_json(analysis.partition.s0, n),
            "s1": _pairs_json(analysis.partition.s1, n),
            "s2": _pairs_json(analysis.partition.s2, n),
        },
        "analysis": {
            "observable": analysis.observable,
            "witness": _pairs_json(analysis.witness, n),
            "already_distinguishable": _pairs_json(analysis.distinguishable, n),
            "indistinguishable": _pairs_json(analysis.indistinguishable, n),
            "one_step_diagonal": _pairs_json(analysis.one_step_diagonal, n),
            "fixed_points": _pairs_json(analysis.fixed_points, n),
            "core": _pairs_json(analysis.core, n),
            "residual": _pairs_json(analysis.residual, n),
            "invariant_set": _pairs_json(analysis.invariant_set, n),
            "invariant_anchors": _set_list_json(analysis.invariant_anchors, n),
            "second_residual": _pairs_json(analysis.second_residual, n),
            "second_anchors": _set_list_json(analysis.second_anchors, n),
            "candidates": _set_list_json(analysis.candidates, n),
        },
        "sensors": None,
        "timing": timing,
    }
    if plan is not None:
        doc["sensors"] = {
            "min_size": plan.min_size,
            "per_candidate": [
                {
                    "target": _pairs_json(c.target, n),
                    "covers": [list(cover) for cover in c.covers],
                    "size": c.size,
                    "infeasible_reason": c.infeasible_reason,
                }
                for c in plan.per_candidate
            ],
            "optima": [
                {"candidate": pos, "variables": list(cover)} for pos, cover in plan.optima
            ],
            "suggested": {
                "candidate": plan.suggested[0],
                "variables": list(plan.suggested[1]),
            },
            "extended_observable": plan.extended_observable,
            "diagnostics": list(plan.diagnostics),
        }
    return doc


def _fmt_pairs(states: StateSet, n: int) -> str:
    return "{" + ", ".join(f"{z}=({i},{j})" for z, i, j in folded_pairs(states, n)) + "}"


def _summary_lines(model: PbnModel, analysis: AnalysisReport, plan: SensorPlan | None) -> list[str]:
    n = model.n
    lines = [
        f"states={model.n} outputs={model.q} subnetworks={model.m}",
        f"|s0|={len(analysis.partition.s0)} |s1|={len(analysis.partition.s1)} "
        f"|s2|={len(analysis.partition.s2)}",
        f"observable: {'yes' if analysis.observable else 'no'}",
    ]
    if not analysis.observable:
        lines.append(f"indistinguishable pairs: {_fmt_pairs(analysis.witness, n)}")
        lines.append(
            "must separate directly (diagonal hitters + fixed points): "
            f"{_fmt_pairs(analysis.core, n)}"
        )
        for pos, cand in enumerate(analysis.candidates):
            lines.append(f"candidate {pos}: {_fmt_pairs(cand, n)}")
    if plan is not None:
        covers = ", ".join(
            "{" + ", ".join(f"x{v}" for v in cover) + "}" for _, cover in plan.optima
        )
        lines.append(f"minimum added measurements ({plan.min_size}): {covers}")
        sugg = ", ".join(f"x{v}" for v in plan.suggested[1])
        lines.append(f"suggested: {{{sugg}}} (re-verified observable: {plan.extended_observable})")
    return lines


def write_s1_graph(path, model: PbnModel, aug: AugmentedSystem, part: Partition) -> None:
    """DOT graph of the indistinguishable pairs and where their mass flows.

    Vertices are the canonical s1 pairs; transitions leaving s1 are folded
    into aggregate s0 / s2 sink nodes.  Edge labels carry probabilities.
    """
    n = model.n
    s1 = part.s1
    s0 = part.s0
    s2c = mirror_close(part.s2, n)
    lines = ["digraph s1_transitions {", "  rankdir=LR;", '  node [shape=ellipse];']
    for z in s1.indices():
        i, j = pair_split(z, n)
        lines.append(f'  "z{z}" [label="{z} ({i},{j})"];')
    used_sinks = set()
    edges = []
    for z in s1.indices():
        flows: dict[str, float] = {}
        for row, prob in aug.q_matrix.column_dict(z).items():
            if row in s0:
                key = "S0"
            elif row in s2c:
                key = "S2"
            else:
                key = f"z{min(row, mirror_index(row, n))}"
            flows[key] = flows.get(key, 0.0) + prob
        for key, prob in sorted(flows.items()):
            if key in ("S0", "S2"):
                used_sinks.add(key)
            edges.append(f'  "z{z}" -> "{key}" [label="{prob:g}"];')
    if "S0" in used_sinks:
        lines.append('  "S0" [shape=doublecircle, label="diagonal"];')
    if "S2" in used_sinks:
        lines.append('  "S2" [shape=box, label="distinguishable"];')
    lines.extend(edges)
    lines.append("}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_target(spec: str, part: Partition, n: int, universe: int) -> StateSet:
    name = spec.strip().lower()
    if name in ("s0", "s1", "s2"):
        return mirror_close(part.named(name), n)
    try:
        indices = [int(tok) for tok in spec.replace(",", " ").split()]
    except ValueError:
        raise ValueError(f"target must be S0, S1, S2 or a list of indices, got {spec!r}")
    if not indices:
        raise ValueError("empty target specification")
    for k in indices:
        if not 1 <= k <= universe:
            raise ValueError(f"target index {k} out of range [1, {universe}]")
    return mirror_close(StateSet.from_indices(universe, indices), n)


def _parse_pair(spec: str) -> tuple[int, int]:
    parts = spec.split(",")
    if len(parts) != 2:
        raise ValueError(f"pair must look like 'i,j', got {spec!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"pair must hold two integers, got {spec!r}")


def cmd_validate(args) -> int:
    model = parse_model_file(args.path)
    probs = " ".join(repr(float(x)) for x in model.probs)
    print(f"ok: states={model.n} outputs={model.q} subnetworks={model.m} p=[{probs}]")
    return EXIT_OK


def cmd_analyze(args) -> int:
    t0 = time.perf_counter()
    model = parse_model_file(args.path)
    t1 = time.perf_counter()
    analysis = minimal_targets(model, subset_cap=args.max_subset)
    t2 = time.perf_counter()
    plan = None
    if args.sensors and not analysis.observable:
        plan = global_min_sensors(analysis, model)
    t3 = time.perf_counter()
    timing = {
        "parse_s": t1 - t0,
        "analysis_s": t2 - t1,
        "sensors_s": t3 - t2,
        "total_s": t3 - t0,
    }
    if args.dot:
        aug = build_augmented(model)
        write_s1_graph(args.dot, model, aug, analysis.partition)
    report = build_report(args.path, model, analysis, plan, timing, args.max_subset)
    text = json.dumps(report, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    if not args.quiet:
        for line in _summary_lines(model, analysis, plan):
            print(line, file=sys.stderr)
    return EXIT_OK


def cmd_reach(args) -> int:
    model = parse_model_file(args.path)
    aug = build_augmented(model)
    part = partition_states(model)
    target = _parse_target(args.target, part, model.n, aug.pair_count)
    result = robust_reach(target, aug)
    n = model.n
    print(f"target ({len(target)} states, mirror-closed): {_fmt_pairs(target, n)}")
    for step, layer in enumerate(result.layers, start=1):
        print(f"layer {step}: {_fmt_pairs(layer, n)}")
    print(f"union ({len(result.union)} states in {result.steps} layers): "
          f"{_fmt_pairs(result.union, n)}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    model = parse_model_file(args.path)
    i, j = _parse_pair(args.pair)
    estimate = estimate_distinguishability(model, i, j, args.T, args.trials, args.seed)
    print(
        f"pair ({i},{j}) horizon={args.T} trials={args.trials} seed={args.seed}: "
        f"estimated separation probability {estimate:.6f}"
    )
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pbn-minobs",
        description="Probability-one observability analysis and minimum sensor "
        "placement for probabilistic Boolean networks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a model file")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("analyze", help="run the full observability analysis")
    p.add_argument("path")
    p.add_argument("--sensors", action="store_true", help="also compute minimum measurements")
    p.add_argument("--dot", metavar="PATH", help="write the indistinguishable-pair graph as DOT")
    p.add_argument("--out", metavar="PATH", help="write the JSON report here instead of stdout")
    p.add_argument("--quiet", action="store_true", help="suppress the human-readable summary")
    p.add_argument(
        "--max-subset",
        type=int,
        default=DEFAULT_SUBSET_CAP,
        metavar="CAP",
        help="cap on exhaustive subset enumeration (default %(default)s)",
    )
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("reach", help="probability-one reachable set of a target")
    p.add_argument("path")
    p.add_argument(
        "--target",
        required=True,
        help="S0, S1, S2 or a comma/space separated list of pair indices",
    )
    p.set_defaults(func=cmd_reach)

    p = sub.add_parser("simulate", help="Monte Carlo separation estimate for one pair")
    p.add_argument("path")
    p.add_argument("--pair", required=True, help="initial states as 'i,j'")
    p.add_argument("--T", type=int, default=20, help="horizon (default %(default)s)")
    p.add_argument("--trials", type=int, default=1000, help="trial count (default %(default)s)")
    p.add_argument("--seed", type=int, default=0, help="base seed (default %(default)s)")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ModelFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except InfeasibleCoverError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
