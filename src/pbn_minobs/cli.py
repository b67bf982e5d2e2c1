"""Command-line front end: validate, analyze, reach, simulate.

Exit codes: 0 success, 2 validation or argument error, 3 infeasible cover,
4 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import DEFAULT_SUBSET_CAP, AnalysisReport, minimal_targets
from .augmented import AugmentedSystem, build_augmented
from .errors import InfeasibleCoverError, ModelFormatError, ResourceLimitError
from .model import PbnModel, parse_model_file
from .partition import (
    Partition,
    StateSet,
    folded_indices,
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

# Entry count from which _fmt_pairs writes a listing from the digit-word table;
# below it, one str.format call per entry is faster.
BYTE_MATRIX_MIN = 200

# Entries per block of a long listing: memory grows with the block, not with
# the listing.  On perfbench's pairspace_reach (n = 7-9) the peak resident set
# read 48.9 MB with 2^14, 50.8 MB with 2^15 and 51.0 MB with 2^16 entries
# (2-core VM, numpy 2.4), at the same speed.
LISTING_BLOCK = 1 << 14

# The literal text after each of an entry's three numbers, as table words.
PAIR_LITERALS = np.frombuffer(b"=(\0\0,\0\0\0), \0", dtype=np.uint32)

# One pair-listing entry as ``json.dumps(..., indent=2)`` lays it out at depth
# 0, with ``str.format`` fields for the index and the pair.
PAIR_ENTRY = '{{\n  "index": {},\n  "pair": [\n    {},\n    {}\n  ]\n}}'


def build_report(
    path: str,
    model: PbnModel,
    analysis: AnalysisReport,
    plan: SensorPlan | None,
    timing: dict[str, float],
    subset_cap: int,
) -> dict:
    """The report as ``write_json`` reads it: a ``StateSet`` stands for its pair listing."""
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
            "s0": analysis.partition.s0,
            "s1": analysis.partition.s1,
            "s2": analysis.partition.s2,
        },
        "analysis": {
            "observable": analysis.observable,
            "witness": analysis.witness,
            "already_distinguishable": analysis.distinguishable,
            "indistinguishable": analysis.indistinguishable,
            "one_step_diagonal": analysis.one_step_diagonal,
            "fixed_points": analysis.fixed_points,
            "core": analysis.core,
            "residual": analysis.residual,
            "invariant_set": analysis.invariant_set,
            "invariant_anchors": analysis.invariant_anchors,
            "second_residual": analysis.second_residual,
            "second_anchors": analysis.second_anchors,
            "candidates": analysis.candidates,
        },
        "sensors": None,
        "timing": timing,
    }
    if plan is not None:
        # Every candidate has a cover, so the skip reason is always null and the
        # skip list always empty; both keys stay for schema stability.
        doc["sensors"] = {
            "min_size": plan.min_size,
            "per_candidate": [
                {
                    "target": c.target,
                    "covers": [list(cover) for cover in c.covers],
                    "size": c.size,
                    "infeasible_reason": None,
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
            "diagnostics": [],
        }
    return doc


def write_json(doc, stream) -> None:
    """Write ``json.dumps(doc, indent=2)`` and a newline to ``stream``.

    ``doc`` holds dicts with str keys, lists, tuples, JSON scalars and
    ``StateSet`` values.  Containers are laid out as the stdlib lays them
    out; keys and scalars go through ``json.dumps``.  A ``StateSet`` stands
    for the list of its canonical pairs, ``{"index": z, "pair": [i, j]}``
    each; all entries at one depth share their text around the three
    numbers, so a listing is formatted from the ``folded_pairs`` arrays
    through one template.
    """

    def emit(value, pad: str) -> None:
        inner = pad + "  "
        if isinstance(value, StateSet):
            # universe = 4^n = 2^(2n)
            z, i, j = folded_pairs(value, (value.universe.bit_length() - 1) // 2)
            if not z.size:
                stream.write("[]")
                return
            template = inner + PAIR_ENTRY.replace("\n", "\n" + inner)
            body = ",\n".join(map(template.format, z.tolist(), i.tolist(), j.tolist()))
            stream.write(f"[\n{body}\n{pad}]")
        elif isinstance(value, dict) and value:
            for k, (key, item) in enumerate(value.items()):
                stream.write(f"{',' if k else '{'}\n{inner}{json.dumps(key)}: ")
                emit(item, inner)
            stream.write(f"\n{pad}}}")
        elif isinstance(value, (list, tuple)) and value:
            for k, item in enumerate(value):
                stream.write(f"{',' if k else '['}\n{inner}")
                emit(item, inner)
            stream.write(f"\n{pad}]")
        else:
            stream.write(json.dumps(value))

    emit(doc, "")
    stream.write("\n")


@cache
def _digit_words() -> np.ndarray:
    """The strings of 0..9999 as ``uint32`` words of four ASCII bytes in order.

    Word k is k with its leading zeros as NUL bytes (so 0 is all NUL); word
    10^4 + k is k zero-padded to four digits.
    """
    k = np.arange(10**4)
    chars = np.empty((2, 10**4, 4), dtype=np.uint8)
    for place in range(4):
        scale = 10 ** (3 - place)
        chars[:, :, place] = k // scale % 10 + 48
        chars[0, k < scale, place] = 0
    return chars.reshape(-1, 4).view(np.uint32).ravel()


def _fmt_pairs(z: np.ndarray, i: np.ndarray, j: np.ndarray) -> str:
    """``{z=(i,j), ...}`` for the folded arrays of one pair listing (positive values).

    A listing of at least ``BYTE_MATRIX_MIN`` entries is written as rows of
    ``uint32`` words, one row per entry: each number in 4-digit chunks from
    :func:`_digit_words`, zero-padded below its leading chunk, with the
    literal words between the numbers.  Dropping the NUL bytes leaves the
    text.  Rows go in blocks of ``LISTING_BLOCK`` entries.
    """
    if z.size < BYTE_MATRIX_MIN:
        return "{" + ", ".join(map("{}=({},{})".format, z.tolist(), i.tolist(), j.tolist())) + "}"
    words = _digit_words()
    fields = (z, i, j)
    chunks = [-(-len(str(values.max())) // 4) for values in fields]
    parts = ["{"]
    for start in range(0, z.size, LISTING_BLOCK):
        rows = np.empty((min(LISTING_BLOCK, z.size - start), sum(chunks) + 3), dtype=np.uint32)
        col = 0
        for values, count, literal in zip(fields, chunks, PAIR_LITERALS):
            rest = values[start : start + LISTING_BLOCK]
            for place in range(count - 1, 0, -1):  # the chunks below the leading one
                higher = rest // 10**4
                # the zero-padded word where a higher chunk is nonzero
                rows[:, col + place] = words[rest - higher * 10**4 + (higher > 0) * 10**4]
                rest = higher
            rows[:, col] = words[rest]
            rows[:, col + count] = literal
            col += count + 1
        parts.append(rows.tobytes().translate(None, b"\0").decode("ascii"))
    parts[-1] = parts[-1][:-2] + "}"
    return "".join(parts)


def _summary_lines(model: PbnModel, analysis: AnalysisReport, plan: SensorPlan | None) -> list[str]:
    n = model.n
    lines = [
        f"states={model.n} outputs={model.q} subnetworks={model.m}",
        f"|s0|={len(analysis.partition.s0)} |s1|={len(analysis.partition.s1)} "
        f"|s2|={len(analysis.partition.s2)}",
        f"observable: {'yes' if analysis.observable else 'no'}",
    ]
    if not analysis.observable:
        lines.append(f"indistinguishable pairs: {_fmt_pairs(*folded_pairs(analysis.witness, n))}")
        lines.append(
            "must separate directly (diagonal hitters + fixed points): "
            f"{_fmt_pairs(*folded_pairs(analysis.core, n))}"
        )
        for pos, cand in enumerate(analysis.candidates):
            lines.append(f"candidate {pos}: {_fmt_pairs(*folded_pairs(cand, n))}")
    if plan is not None:
        covers = ", ".join(
            "{" + ", ".join(f"x{v}" for v in cover) + "}" for _, cover in plan.optima
        )
        lines.append(f"minimum added measurements ({plan.min_size}): {covers}")
        sugg = ", ".join(f"x{v}" for v in plan.suggested[1])
        lines.append(f"suggested: {{{sugg}}} (re-verified observable: {plan.extended_observable})")
    return lines


def write_s1_graph(path, aug: AugmentedSystem, part: Partition) -> None:
    """DOT graph of the indistinguishable pairs and where their mass flows.

    Vertices are the canonical s1 pairs; transitions leaving s1 are folded
    into aggregate s0 / s2 sink nodes.  Edge labels carry probabilities.
    """
    n = aug.model.n
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
        return mirror_close(getattr(part, name), n)
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
        write_s1_graph(args.dot, analysis.system, analysis.partition)
    report = build_report(args.path, model, analysis, plan, timing, args.max_subset)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as stream:
            write_json(report, stream)
    else:
        write_json(report, sys.stdout)
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
    print(f"target ({len(target)} states, mirror-closed): "
          f"{_fmt_pairs(*folded_pairs(target, n))}")
    # Every layer is mirror-closed: so is the target, and the pair dynamics are symmetric.
    for step, layer in enumerate(result.layers, start=1):
        print(f"layer {step}: {_fmt_pairs(*folded_indices(layer, n))}")
    print(f"union ({len(result.union)} states in {result.steps} layers): "
          f"{_fmt_pairs(*folded_pairs(result.union, n))}")
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


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
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
        help="cap on the states of one cyclic strongly connected component of a "
        "residual in the anchor search (default %(default)s)",
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
    args = _build_parser().parse_args(argv)
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
