"""Seeded inputs, operation lists and reference answers for the four workloads.

Every model the program sees is written here from a seed, in the documented
matrix-literal form (``L = deltaN[...]`` / ``H = deltaM[...]``), except the
bundled ``models/apoptosis.pbn``.  Reference answers are computed once per
input, before the timed runs, by code that does not go through the analysis
pipeline under test.
"""

from __future__ import annotations

import bisect
import itertools
from pathlib import Path

import numpy as np

# Random-model family of the ROADMAP baseline table: m rule sets, q outputs,
# every switching probability positive.
FAMILY_M = 4
FAMILY_Q = 2

BUNDLED_MODEL = "models/apoptosis.pbn"

# Frozen facts about the bundled model, kept here so the check does not trust
# the program.  L and H are its structure matrices as column indices.
APOPTOSIS_L = (
    (7, 7, 4, 4, 7, 5, 4, 2),
    (5, 5, 4, 4, 5, 5, 4, 4),
    (3, 3, 4, 4, 7, 5, 8, 6),
    (1, 1, 4, 4, 5, 5, 8, 8),
)
APOPTOSIS_H = (2, 1, 1, 2, 2, 1, 2, 1)
APOPTOSIS_P = (0.27, 0.03, 0.63, 0.07)
APOPTOSIS_CORE = [4, 5, 14, 24, 29, 31]
APOPTOSIS_OPTIMA = [[1, 2], [1, 3]]

# pairspace_reach: models per pass at each size.  n = 8 models are the middle
# of every pass, so op_p50_ms is a median over the n = 8 operations of five
# models; n = 9 sets peak_rss_mb and about half of the time.
REACH_DRAW = ((7, 1), (8, 5), (9, 1))

# anchor_search: one fixed draw, generator seeds 0..29 at each n.  Its cost
# is heavy-tailed (about 5% of models take half the time), so a draw that
# changed with the workload seed would move ops_per_s by 20-50% between
# seeds; the workload seed sets the order instead.
ANCHOR_SIZES = (4, 5)
ANCHOR_MODEL_SEEDS = range(30)
ANCHOR_SUBSET_CAP = 14

# monte_carlo: (horizon T, trials) per command slot, cycled.  Three trial
# counts, a third of the commands each, keep the per-command times from
# splitting into two halves with a gap at the median.
SIMULATE_SLOTS = ((10, 800), (20, 1000), (40, 1200), (10, 1200), (20, 800), (40, 1000))
SIMULATE_N = 8
SIMULATE_PAIRS_PER_MODEL = 12


class GeneratedModel:
    """One random PBN as plain arrays plus the seed that drew it."""

    def __init__(self, n: int, seed, transitions, output, probs):
        self.n = n
        self.seed = seed
        self.transitions = transitions  # m arrays of 1-based column indices
        self.output = output  # 1-based output column indices
        self.probs = probs

    @classmethod
    def draw(cls, n: int, seed) -> "GeneratedModel":
        """Same draw order as the test-suite generator with all probabilities positive."""
        rng = np.random.default_rng(seed)
        size = 1 << n
        transitions = [rng.integers(1, size + 1, size) for _ in range(FAMILY_M)]
        output = rng.integers(1, (1 << FAMILY_Q) + 1, size)
        weights = rng.random(FAMILY_M)
        probs = [float(x) for x in weights / weights.sum()]
        return cls(n, seed, transitions, output, probs)

    def text(self) -> str:
        size = 1 << self.n
        lines = [
            f"# random PBN, generator seed {self.seed}",
            f"states: {self.n}",
            f"outputs: {FAMILY_Q}",
            f"subnetworks: {len(self.transitions)}",
            "p: " + " ".join(repr(p) for p in self.probs),
        ]
        for k, cols in enumerate(self.transitions, start=1):
            lines += [f"[net {k}]", f"L = delta{size}[" + " ".join(map(str, cols)) + "]"]
        lines += ["[output]", f"H = delta{1 << FAMILY_Q}[" + " ".join(map(str, self.output)) + "]"]
        return "\n".join(lines) + "\n"

    def write(self, path: Path) -> str:
        path.write_text(self.text(), encoding="utf-8")
        return str(path)


def _bundled() -> GeneratedModel:
    return GeneratedModel(
        3, "bundled", [np.array(c) for c in APOPTOSIS_L], np.array(APOPTOSIS_H), list(APOPTOSIS_P)
    )


def _distinguishable_count(g: GeneratedModel, output, q: int) -> int:
    """|pairs separated under every switching| by the fixpoint in ``simulate``,
    for the model ``g`` with its output replaced by ``output`` (q bits)."""
    from pbn_minobs.model import PbnModel
    from pbn_minobs.simulate import pairs_distinguishable_within
    from pbn_minobs.stp import LogicalMatrix

    size = 1 << g.n
    model = PbnModel(
        n=g.n,
        q=q,
        transitions=tuple(LogicalMatrix(size, c) for c in g.transitions),
        output=LogicalMatrix(1 << q, output),
        probs=tuple(g.probs),
    )
    return len(pairs_distinguishable_within(model, horizon=4**g.n))


def reach_union_size(g: GeneratedModel) -> int:
    """Expected size of ``reach --target S2``'s union: the pairs that robustly
    become output-distinct, minus those that already are."""
    out = np.asarray(g.output)
    differ = int(np.count_nonzero(out[:, None] != out[None, :]))
    return _distinguishable_count(g, out, FAMILY_Q) - differ


def min_measurements(g: GeneratedModel) -> int:
    """Smallest |V| such that adding y = x_j for j in V makes every distinct
    pair distinguishable; 0 when the model is already observable."""
    size = 1 << g.n
    states = np.arange(size)
    pair_total = size * size - size
    for r in range(g.n + 1):
        for v in itertools.combinations(range(1, g.n + 1), r):
            key = np.asarray(g.output) - 1
            for j in v:
                key = key * 2 + ((states >> (g.n - j)) & 1)
            q = FAMILY_Q + r
            if _distinguishable_count(g, key + 1, q) == pair_total:
                return r
    raise AssertionError("measuring every variable separates every distinct pair")


def reference_estimate(g: GeneratedModel, i: int, j: int, horizon: int, trials: int, seed: int) -> float:
    """Plain per-trial Monte Carlo loop; trial t draws from substream seed + t."""
    out = [int(x) for x in g.output]
    maps = [[int(x) for x in cols] for cols in g.transitions]
    if i == j:
        return 0.0
    if out[i - 1] != out[j - 1]:
        return 1.0
    cumulative = [float(x) for x in np.cumsum(g.probs)]
    hits = 0
    for t in range(trials):
        rng = np.random.default_rng(seed + t)
        a, b = i, j
        for _ in range(horizon):
            v = min(bisect.bisect_right(cumulative, rng.random()), len(maps) - 1)
            while g.probs[v] <= 0.0:
                v -= 1
            a, b = maps[v][a - 1], maps[v][b - 1]
            if out[a - 1] != out[b - 1]:
                hits += 1
                break
            if a == b:
                break
    return hits / trials


def _op(argv, check, label) -> dict:
    return {"argv": [str(a) for a in argv], "check": check, "label": label}


def bundled_cli(seed: int, work: Path) -> list[dict]:
    """The one real model; the seed only names the report file."""
    out = work / f"report-{seed}.json"
    check = {"kind": "bundled", "out": str(out), "core": APOPTOSIS_CORE, "optima": APOPTOSIS_OPTIMA}
    return [_op(["analyze", BUNDLED_MODEL, "--sensors", "--out", out], check, "apoptosis")]


def pairspace_reach(seed: int, work: Path) -> list[dict]:
    ops = []
    for n, count in REACH_DRAW:
        for i in range(count):
            g = GeneratedModel.draw(n, [seed, n, i])
            path = g.write(work / f"reach-n{n}-{i}.pbn")
            check = {"kind": "reach", "union": reach_union_size(g)}
            ops.append(_op(["reach", path, "--target", "S2"], check, f"n={n} seed={g.seed}"))
    return ops


def anchor_search(seed: int, work: Path) -> list[dict]:
    ops = []
    for n in ANCHOR_SIZES:
        for s in ANCHOR_MODEL_SEEDS:
            g = GeneratedModel.draw(n, s)
            path = g.write(work / f"anchor-n{n}-{s}.pbn")
            check = {"kind": "anchor", "min_size": min_measurements(g)}
            argv = ["analyze", path, "--sensors", "--max-subset", ANCHOR_SUBSET_CAP]
            ops.append(_op(argv, check, f"n={n} seed={s}"))
    order = np.random.default_rng(seed).permutation(len(ops))
    return [ops[k] for k in order]


def _equal_output_pairs(g: GeneratedModel) -> list[tuple[int, int]]:
    out = list(g.output)
    size = len(out)
    return [
        (i, j)
        for i in range(1, size + 1)
        for j in range(i + 1, size + 1)
        if out[i - 1] == out[j - 1]
    ]


def monte_carlo(seed: int, work: Path) -> list[dict]:
    """Every output-equal pair of the bundled model, and as many seeded pairs
    of one seeded n = 8 model; horizon and trials cycle through fixed slots."""
    rng = np.random.default_rng([seed, SIMULATE_N])
    bundled = _bundled()
    g = GeneratedModel.draw(SIMULATE_N, [seed, SIMULATE_N, 0])
    path = g.write(work / f"simulate-n{SIMULATE_N}.pbn")
    candidates = _equal_output_pairs(g)
    picks = rng.choice(len(candidates), size=SIMULATE_PAIRS_PER_MODEL, replace=False)
    jobs = [(bundled, BUNDLED_MODEL, p) for p in _equal_output_pairs(bundled)]
    jobs += [(g, path, candidates[k]) for k in sorted(picks)]
    ops = []
    for slot, (model, model_path, (i, j)) in enumerate(jobs):
        horizon, trials = SIMULATE_SLOTS[slot % len(SIMULATE_SLOTS)]
        sim_seed = int(rng.integers(0, 2**31))
        est = reference_estimate(model, i, j, horizon, trials, sim_seed)
        line = (
            f"pair ({i},{j}) horizon={horizon} trials={trials} seed={sim_seed}: "
            f"estimated separation probability {est:.6f}"
        )
        argv = ["simulate", model_path, "--pair", f"{i},{j}", "--T", horizon,
                "--trials", trials, "--seed", sim_seed]
        ops.append(_op(argv, {"kind": "simulate", "line": line}, f"model seed={model.seed}"))
    return ops


WORKLOADS = {
    "bundled_cli": bundled_cli,
    "pairspace_reach": pairspace_reach,
    "anchor_search": anchor_search,
    "monte_carlo": monte_carlo,
}
