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
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import DEFAULT_SUBSET_CAP, AnalysisReport, minimal_targets
from .augmented import StochasticMatrix, build_augmented
from .errors import InfeasibleCoverError, ModelFormatError, ResourceLimitError
from .model import PbnModel, parse_model_file
from .partition import StateSet, mirror_index, pair_split, partition_states
from .reachability import robust_reach
from .sensors import SensorPlan, global_min_sensors
from .simulate import estimate_distinguishability
from .stp import dimension_cap

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_RESOURCE = 4

# Entry count from which _write_pairs writes a listing as rows of bytes; below
# it, one f-string per entry is faster.  The byte path wins from about 30
# entries in the reach layout and 35-40 in the report's at depth 3 (n = 5, 8,
# 9 and 13); at 200 entries it is 4x and 2x faster.
BYTE_MATRIX_MIN = 40

# Entries per block of a long listing: memory grows with the block, not with
# the listing.  On perfbench's pairspace_reach (n = 7-9) the peak resident set
# read 38.8-39.0 MB with 2^14, 40.2-40.5 MB with 2^15 and 40.4-40.9 MB with
# 2^16 entries (2-core VM, Python 3.11, numpy 2.4), at the same speed.
LISTING_BLOCK = 1 << 14

# How _write_pairs lays out a listing: the texts before an entry's index,
# between the index and i, between i and j and after j; the text between two
# entries; the texts that open and close a listing; the text of an empty one.
REACH_LAYOUT = ("", "=(", ",", ")", ", ", "{", "}", "{}")


def build_report(
    path: str, analysis: AnalysisReport, plan: SensorPlan | None, timing: dict[str, float]
) -> dict:
    """The report as ``write_json`` reads it: a ``StateSet`` stands for its pair listing."""
    model = analysis.system.model
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
            "max_subset": analysis.subset_cap,
        },
        "partition": {
            "s0": analysis.partition.s0,
            "s1": analysis.partition.s1,
            "s2": analysis.partition.s2,
        },
        "analysis": {
            "observable": analysis.observable,
            "witness": analysis.indistinguishable,
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
                    "target": target,
                    "covers": [list(cover) for cover in covers],
                    "size": len(covers[0]),
                    "infeasible_reason": None,
                }
                for target, covers in zip(analysis.candidates, plan.per_candidate)
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
    out, and keys and scalars are written as it writes them, floats through
    ``json.dumps`` itself.  A ``StateSet``, an i <= j half like every set
    ``analyze`` lists, stands for the list of its pairs,
    ``{"index": z, "pair": [i, j]}`` each, written by :func:`_write_pairs`
    in the layout of its depth.
    """
    _emit(doc, "", stream.write)
    stream.write("\n")


def _emit(value, pad: str, write) -> None:
    """Write ``value`` for :func:`write_json` at the indent ``pad``."""
    kind = type(value)
    if kind is StateSet:
        n = (value.universe.bit_length() - 1) // 2  # universe = 4^n = 2^(2n)
        _write_pairs(write, value.bits.nonzero()[0], n, _json_layout(pad))
    elif kind is int:
        write(str(value))
    elif kind is str:
        write(encode_basestring_ascii(value))
    elif isinstance(value, dict) and value:
        inner = pad + "  "
        opening = "{\n" + inner
        for key, item in value.items():
            write(f"{opening}{encode_basestring_ascii(key)}: ")
            _emit(item, inner, write)
            opening = ",\n" + inner
        write(f"\n{pad}}}")
    elif isinstance(value, (list, tuple)) and value:
        inner = pad + "  "
        opening = "[\n" + inner
        for item in value:
            write(opening)
            _emit(item, inner, write)
            opening = ",\n" + inner
        write(f"\n{pad}]")
    elif value is None:
        write("null")
    elif value is True or value is False:
        write("true" if value else "false")
    else:  # floats and empty containers
        write(json.dumps(value))


@cache
def _json_layout(pad: str) -> tuple[str, ...]:
    """The layout of a pair listing in ``json.dumps(..., indent=2)`` at the indent ``pad``."""
    inner = pad + "  "
    return (
        f'{inner}{{\n{inner}  "index": ',
        f',\n{inner}  "pair": [\n{inner}    ',
        f",\n{inner}    ",
        f"\n{inner}  ]\n{inner}}}",
        ",\n",
        "[\n",
        f"\n{pad}]",
        "[]",
    )


@cache
def _digit_words() -> np.ndarray:
    """The strings of 0..9999 as ``uint32`` words of four ASCII bytes in order.

    :func:`_write_pairs` writes a pair index as these words.  Word k is k
    with its leading zeros as NUL bytes (so 0 is all NUL); word 10^4 + k is
    k zero-padded to four digits.
    """
    k = np.arange(10**4)
    chars = np.empty((2, 10**4, 4), dtype=np.uint8)
    for place in range(4):
        scale = 10 ** (3 - place)
        chars[:, :, place] = k // scale % 10 + 48
        chars[0, k < scale, place] = 0
    return chars.reshape(-1, 4).view(np.uint32).ravel()


@cache
def _state_items(n: int, before: str, after: str) -> np.ndarray:
    """``before + str(s) + after`` for the states s = 1..2^n, one item each.

    Each item is NUL-padded to a power-of-two width, so a table ``take``
    copies whole words; in front, as ``translate`` drops it faster there.
    """
    width = 1 << (len(f"{before}{1 << n}{after}") - 1).bit_length()  # 2^n has the most digits
    text = "".join(f"{before}{s}{after}".rjust(width, "\0") for s in range(1, (1 << n) + 1))
    return np.frombuffer(text.encode("ascii"), f"V{width}")


def _write_pairs(write, z: np.ndarray, n: int, layout=REACH_LAYOUT) -> None:
    """Write the listing of the 0-based pair indices ``z`` (1-based, in ``layout``).

    The default layout gives ``{z=(i,j), ...}``.  A listing of at least
    ``BYTE_MATRIX_MIN`` entries is written as rows of bytes, one row per
    entry, in blocks of ``LISTING_BLOCK`` entries, so no listing's text or
    columns are held whole; one ``bytes.translate`` drops the NUL padding of
    each block.  A row is the index as the 4-digit chunk words of
    :func:`_digit_words` that 4^n needs, with NULs for leading zeros and
    zero-padded below the leading chunk, then ``mid + str(i) + sep`` and
    ``str(j) + tail + between + head`` as ``take``s from the per-state item
    tables of :func:`_state_items`; the last entry's ``between + head`` is
    cut from the text and the closing text put after it.  Shorter listings,
    and those past ``dimension_cap()`` (which ``build_augmented`` refuses
    first), are one f-string per entry, so no call builds a table that large.
    """
    head, mid, sep, tail, between, opening, closing, empty = layout
    mask = (1 << n) - 1
    if not z.size:
        write(empty)
        return
    if z.size < BYTE_MATRIX_MIN or 1 << 2 * n > dimension_cap():
        entries = between.join(
            [f"{head}{k + 1}{mid}{(k >> n) + 1}{sep}{(k & mask) + 1}{tail}" for k in z.tolist()]
        )
        write(f"{opening}{entries}{closing}")
        return
    words = _digit_words()
    first, after = _state_items(n, mid, sep), _state_items(n, "", tail + between + head)
    chunks = -(-len(str(1 << 2 * n)) // 4)
    kind = np.dtype([("index", np.uint32, (chunks,)), ("i", first.dtype), ("j", after.dtype)])
    write(opening + head)
    for start in range(0, z.size, LISTING_BLOCK):
        block = z[start : start + LISTING_BLOCK]
        rows = np.empty(block.size, kind)
        index, rest = rows["index"], block + 1
        for place in range(chunks - 1, 0, -1):  # the chunks below the leading one
            higher = rest // 10**4
            # rest = 10^4 * higher + c: word c while higher is 0, else word 10^4 + c.
            index[:, place] = words[rest - 10**4 * np.maximum(higher - 1, 0)]
            rest = higher
        index[:, 0] = words[rest]
        rows["i"] = first.take(block >> n)
        rows["j"] = after.take(block & mask)
        text = rows.tobytes().translate(None, b"\0").decode("ascii")
        if start + LISTING_BLOCK >= z.size:
            text = text[: len(text) - len(between + head)] + closing
        write(text)


def _fmt_pairs(z: np.ndarray, n: int) -> str:
    """The text that :func:`_write_pairs` writes for one listing."""
    parts: list[str] = []
    _write_pairs(parts.append, z, n)
    return "".join(parts)


def _summary_lines(analysis: AnalysisReport, plan: SensorPlan | None) -> list[str]:
    model = analysis.system.model

    def listing(states: StateSet) -> str:
        return _fmt_pairs(states.bits.nonzero()[0], model.n)

    lines = [
        f"states={model.n} outputs={model.q} subnetworks={model.m}",
        f"|s0|={len(analysis.partition.s0)} |s1|={len(analysis.partition.s1)} "
        f"|s2|={len(analysis.partition.s2)}",
        f"observable: {'yes' if analysis.observable else 'no'}",
    ]
    if not analysis.observable:
        lines.append(f"indistinguishable pairs: {listing(analysis.indistinguishable)}")
        lines.append(
            "must separate directly (diagonal hitters + fixed points): "
            f"{listing(analysis.core)}"
        )
        for pos, cand in enumerate(analysis.candidates):
            lines.append(f"candidate {pos}: {listing(cand)}")
    if plan is not None:
        distinct = dict.fromkeys(cover for _, cover in plan.optima)  # first-seen order
        covers = ", ".join("{" + ", ".join(f"x{v}" for v in cover) + "}" for cover in distinct)
        lines.append(f"minimum added measurements ({plan.min_size}): {covers}")
        sugg = ", ".join(f"x{v}" for v in plan.suggested[1])
        lines.append(f"suggested: {{{sugg}}} (re-verified observable: {plan.extended_observable})")
    return lines


def write_s1_graph(path, analysis: AnalysisReport) -> None:
    """DOT graph of the indistinguishable pairs and where their mass flows.

    Vertices are the canonical s1 pairs of ``analysis.partition``;
    transitions leaving s1 are folded into aggregate s0 / s2 sink nodes.
    Edge labels carry probabilities, the s1 columns of ``q_matrix`` of
    ``analysis.system`` summed in its order, built for s1 alone.
    """
    aug, part = analysis.system, analysis.partition
    n = aug.model.n
    s1 = part.s1
    lines = ["digraph s1_transitions {", "  rankdir=LR;", '  node [shape=ellipse];']
    for z in s1.indices():
        i, j = pair_split(z, n)
        lines.append(f'  "z{z}" [label="{z} ({i},{j})"];')
    used_sinks = set()
    edges = []
    if s1:  # column c of flow is the c-th s1 member's
        probs = aug.model.probs
        flow = StochasticMatrix(aug.pair_count, aug.successors(s1.bits.nonzero()[0]),
                                [probs[v] for v in aug.active])
    for col, z in enumerate(s1.indices(), start=1):
        flows: dict[str, float] = {}
        for row, prob in flow.column_dict(col).items():
            row = min(row, mirror_index(row, n))
            if row in part.s0:
                key = "S0"
            elif row in part.s2:
                key = "S2"
            else:
                key = f"z{row}"
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


def _closed_count(half: StateSet, n: int) -> int:
    """Size of the mirror closure of an i <= j set: twice its size less its diagonal pairs."""
    return 2 * len(half) - int(np.count_nonzero(half.bits[:: (1 << n) + 1]))


def _parse_target(spec: str, model: PbnModel, universe: int) -> StateSet:
    """The i <= j half of a ``reach`` target: an S0/S1/S2 part, or listed pairs as (min, max)."""
    name = spec.strip().lower()
    if name in ("s0", "s1", "s2"):
        return getattr(partition_states(model), name)
    try:
        indices = [int(tok) for tok in spec.replace(",", " ").split()]
    except ValueError:
        raise ValueError(f"target must be S0, S1, S2 or a list of indices, got {spec!r}")
    if not indices:
        raise ValueError("empty target specification")
    for k in indices:
        if not 1 <= k <= universe:
            raise ValueError(f"target index {k} out of range [1, {universe}]")
    z = np.array(indices) - 1
    n = model.n
    first, second = z >> n, z & ((1 << n) - 1)
    low, high = np.minimum(first, second), np.maximum(first, second)
    return StateSet.from_indices(universe, (low << n | high) + 1)


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
        plan = global_min_sensors(analysis)
    t3 = time.perf_counter()
    timing = {
        "parse_s": t1 - t0,
        "analysis_s": t2 - t1,
        "sensors_s": t3 - t2,
        "total_s": t3 - t0,
    }
    if args.dot:
        write_s1_graph(args.dot, analysis)
    report = build_report(args.path, analysis, plan, timing)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as stream:
            write_json(report, stream)
    else:
        write_json(report, sys.stdout)
    if not args.quiet:
        for line in _summary_lines(analysis, plan):
            print(line, file=sys.stderr)
    return EXIT_OK


def cmd_reach(args) -> int:
    model = parse_model_file(args.path)
    aug = build_augmented(model)
    n = model.n
    target = _parse_target(args.target, model, aug.pair_count)
    result = robust_reach(target, aug)
    # Each listing is an i <= j half; the counts are of the mirror closures.
    write = sys.stdout.write
    write(f"target ({_closed_count(target, n)} states, mirror-closed): ")
    _write_pairs(write, target.bits.nonzero()[0], n)
    for step, layer in enumerate(result.layers, start=1):
        write(f"\nlayer {step}: ")
        _write_pairs(write, layer, n)
    write(f"\nunion ({_closed_count(result.union, n)} states in {result.steps} layers): ")
    _write_pairs(write, result.union.bits.nonzero()[0], n)
    write("\n")
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
