"""Spans and counters around the calls each pbn_minobs module makes into the next.

Every function is patched under the name its caller looks it up by (for
example ``pbn_minobs.analysis.robust_reach``), so the program itself is not
changed.  A span records its kind, start, end, parent span and operation id;
spans stay in memory and are written out once, when the traced run ends.
Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter

import numpy as np

# (span kind, [(module, attribute path), ...]); one wrapper per original function.
SPANS = (
    ("model.parse", [("pbn_minobs.cli", "parse_model_file")]),
    ("augmented.build", [("pbn_minobs.cli", "build_augmented"),
                         ("pbn_minobs.analysis", "build_augmented")]),
    ("augmented.q_matrix", [("pbn_minobs.augmented", "StochasticMatrix.from_weighted_maps")]),
    ("augmented.pair_output", [("pbn_minobs.augmented", "kron")]),
    ("partition.partition", [("pbn_minobs.cli", "partition_states"),
                             ("pbn_minobs.analysis", "partition_states")]),
    ("partition.stateset_convert", [("pbn_minobs.partition", "StateSet.to_bool_array"),
                                    ("pbn_minobs.partition", "StateSet.from_bool_array")]),
    # indices() is the only caller of __iter__ in the package.
    ("partition.indices", [("pbn_minobs.partition", "StateSet.indices")]),
    ("partition.fold", [(mod, name)
                        for mod in ("pbn_minobs.cli", "pbn_minobs.analysis", "pbn_minobs.sensors")
                        for name in ("mirror_close", "canonicalize")]),
    ("reachability.robust_reach", [("pbn_minobs.cli", "robust_reach"),
                                   ("pbn_minobs.analysis", "robust_reach")]),
    ("analysis.minimal_targets", [("pbn_minobs.cli", "minimal_targets")]),
    ("analysis.core", [("pbn_minobs.analysis", "one_step_to_diagonal"),
                       ("pbn_minobs.analysis", "positive_prob_fixed_points")]),
    ("analysis.invariant", [("pbn_minobs.analysis", "maximum_invariant_set")]),
    ("analysis.anchor", [("pbn_minobs.analysis", "minimal_anchor_sets")]),
    ("sensors.global_min", [("pbn_minobs.cli", "global_min_sensors")]),
    ("sensors.cover", [("pbn_minobs.sensors", "truth_matrix"),
                       ("pbn_minobs.sensors", "min_cover")]),
    ("sensors.reverify", [("pbn_minobs.sensors", "is_observable")]),
    ("simulate.estimate", [("pbn_minobs.cli", "estimate_distinguishability")]),
)
CLI_SPAN = "cli.main"
KINDS = [kind for kind, _ in SPANS] + [CLI_SPAN]
CALL_COUNTS = ("model.parse", "augmented.build", "partition.stateset_convert",
               "reachability.robust_reach", "analysis.anchor")
COUNTERS = ("reachability.sweeps", "reachability.layers", "reachability.pair_visits",
            "analysis.anchor_subsets_tested", "analysis.anchor_sets_kept",
            "analysis.candidates", "cli.output_bytes", "simulate.trials")


def _array_bytes(value, seen: set, depth: int = 0) -> int:
    """nbytes of the numpy arrays held by ``value`` and, one level down, its members."""
    if isinstance(value, np.ndarray):
        if id(value) in seen:
            return 0
        seen.add(id(value))
        return value.nbytes
    if depth >= 2:
        return 0
    if isinstance(value, (tuple, list)):
        return sum(_array_bytes(v, seen, depth + 1) for v in value)
    slots = getattr(type(value), "__slots__", ())
    attrs = list(getattr(value, "__dict__", {}).values())
    attrs += [getattr(value, s) for s in slots if hasattr(value, s)]
    return sum(_array_bytes(v, seen, depth + 1) for v in attrs)


def index_bytes(aug) -> int:
    """Bytes of the arrays an AugmentedSystem holds, read from its instance
    dict so that no lazily built member is forced into existence."""
    held = getattr(aug, "__dict__", {})
    return sum(_array_bytes(v, set()) for k, v in held.items() if k != "model")


class Tracer:
    """Span store and counters for one traced run."""

    def __init__(self):
        self.kind_id = {k: i for i, k in enumerate(KINDS)}
        self.kind = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.open = [0] * len(KINDS)
        self.op_id = -1
        self.counters = dict.fromkeys(COUNTERS, 0.0)
        self.index_mb = 0.0

    def reset(self) -> None:
        """Forget recorded spans and counts; installed wrappers keep working."""
        for column in (self.kind, self.parent, self.op, self.start, self.end):
            del column[:]
        self.counters.update(dict.fromkeys(COUNTERS, 0.0))
        self.index_mb = 0.0

    def wrap(self, kind: str, fn, after=None):
        kid = self.kind_id[kind]
        stack, open_ = self.stack, self.open

        def traced(*args, **kwargs):
            sid = len(self.kind)
            self.kind.append(kid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(sid)
            open_[kid] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = perf_counter()
                self.start[sid] = t0
                open_[kid] -= 1
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # --- after-hooks: counters read from arguments and results -------------

    def _after_build(self, args, aug):
        self.index_mb = max(self.index_mb, index_bytes(aug) / 2**20)

    def _after_reach(self, args, result):
        self.counters["reachability.layers"] += result.steps
        if self.open[self.kind_id["analysis.anchor"]]:
            self.counters["analysis.anchor_subsets_tested"] += 1

    def _after_anchor(self, args, result):
        self.counters["analysis.anchor_sets_kept"] += len(result)

    def _after_targets(self, args, report):
        self.counters["analysis.candidates"] += len(report.candidates)

    def _after_estimate(self, args, result):
        self.counters["simulate.trials"] += args[4]

    def install(self):
        """Patch every caller-side name listed in SPANS (names that are absent are skipped)."""
        hooks = {
            "augmented.build": self._after_build,
            "reachability.robust_reach": self._after_reach,
            "analysis.anchor": self._after_anchor,
            "analysis.minimal_targets": self._after_targets,
            "simulate.estimate": self._after_estimate,
        }
        wrappers: dict[int, object] = {}
        for kind, sites in SPANS:
            for module_name, path in sites:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for name in outer:
                    owner = getattr(owner, name)
                raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
                if raw is None:
                    continue
                is_classmethod = isinstance(raw, classmethod)
                fn = raw.__func__ if is_classmethod else raw
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self.wrap(kind, fn, hooks.get(kind))
                wrapped = wrappers[id(fn)]
                setattr(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)
        reach = importlib.import_module("pbn_minobs.reachability")
        if hasattr(reach, "one_step_robust"):
            reach.one_step_robust = self._counted_sweep(reach.one_step_robust)

    def _counted_sweep(self, fn):
        counters = self.counters

        def sweep(target, aug, exclude):
            counters["reachability.sweeps"] += 1
            counters["reachability.pair_visits"] += aug.pair_count * len(aug.active)
            return fn(target, aug, exclude)

        return sweep

    def write(self, path) -> None:
        np.savez(
            path,
            kinds=np.array(KINDS),
            kind=np.frombuffer(self.kind, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )

    def metrics(self, wall_s: float, ok_ops: int) -> dict:
        """Per-operation layer metrics over every span recorded."""
        kind = np.frombuffer(self.kind, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        busy = np.bincount(kind, weights=dur, minlength=len(KINDS))
        own = np.bincount(kind, weights=dur - child, minlength=len(KINDS))
        calls = np.bincount(kind, minlength=len(KINDS))
        ops = max(int(calls[self.kind_id[CLI_SPAN]]), 1)

        out = {}
        for kind_name, _ in SPANS:
            k = self.kind_id[kind_name]
            out[f"{kind_name}_s"] = (busy[k] / ops, "s")
            out[f"{kind_name}_self_s"] = (own[k] / ops, "s")
        for kind_name in CALL_COUNTS:
            out[f"{kind_name}_calls"] = (calls[self.kind_id[kind_name]] / ops, "count")
        for name in COUNTERS:
            out[name] = (self.counters[name] / ops, "B" if name == "cli.output_bytes" else "count")
        tested = self.counters["analysis.anchor_subsets_tested"]
        kept = self.counters["analysis.anchor_sets_kept"]
        out["analysis.anchor_yield"] = (kept / tested if tested else 0.0, "ratio")
        out["augmented.index_mb"] = (self.index_mb, "MB")
        out["cli.self_s"] = (own[self.kind_id[CLI_SPAN]] / ops, "s")
        out["trace.spans"] = (dur.size / ops, "count")
        out["trace.ops_per_s"] = (ok_ops / wall_s, "1/s")
        return {name: {"value": float(v), "unit": unit} for name, (v, unit) in out.items()}
