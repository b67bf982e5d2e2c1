"""Stochastic and exhaustive checks of pair distinguishability.

Both network copies always share one switching draw per step.  Randomness
comes from numpy's default generator (PCG64); trial t of an estimate uses the
substream that ``np.random.default_rng(seed + t)`` gives, so runs are
reproducible.  The estimate runs all trials in lockstep without building
those generators: it derives every trial's PCG64 state with numpy's
``SeedSequence`` mixing done as uint32 array arithmetic, draws each live
trial's uniforms a block at a time by LCG jump-ahead, walks every live pair
through the block together and finds each trial's first separation or merge
with one ``argmax``.  Blocks start at 2 steps and double up to 1024, so a
trial that ends at step s draws fewer than 2s + 2 steps.  The draws are
bit-identical to the generators', so the estimate equals the plain per-trial
loop exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import ResourceLimitError
from .model import PbnModel
from .partition import StateSet, pair_index

DEFAULT_STEP_BUDGET = 10**7

# Live trials x block steps in one block of the estimate.  It bounds the
# block's arrays (a 9 MB tracemalloc peak) for every trial count.  Blocks
# start at 2 steps and double up to _MAX_BLOCK; trials run in chunks of
# _CHUNK, which keeps the first block unclipped and bounds each chunk's seed
# arrays.
_BLOCK_CELLS = 1 << 16
_CHUNK = _BLOCK_CELLS // 8
_MAX_BLOCK = 1024

# numpy's SeedSequence hash and mix constants (numpy/random/bit_generator.pyx)
# and the PCG64 multiplier (O'Neill's PCG report, numpy/random/src/pcg64).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_U16 = np.uint32(16)
_S32, _S58, _S63, _S11 = np.uint64(32), np.uint64(58), np.uint64(63), np.uint64(11)
_LOW32 = np.uint64(_M32)


@dataclass(frozen=True)
class Trajectory:
    """One sampled run: states x(0..T), outputs y(0..T), switches sigma(0..T-1)."""

    states: tuple[int, ...]
    outputs: tuple[int, ...]
    switches: tuple[int, ...]
    seed: int


def _switch_rule(model: PbnModel) -> tuple[np.ndarray, np.ndarray]:
    """``cumsum(p)`` and the table ``pick`` with ``pick[searchsorted(cumsum(p), u,
    'right')]`` the 0-based subnetwork that uniform ``u`` selects.

    ``pick[k] = max{v <= k : p_v > 0}``: an index that lands on a zero-probability
    subnetwork steps back to the nearest positive one below, and index m, which a
    cumulative sum rounded short of 1 allows, acts as m - 1.
    """
    probs = np.asarray(model.probs)
    pick = np.maximum.accumulate(np.where(probs > 0.0, np.arange(model.m), -1))
    return np.cumsum(probs), np.append(pick, pick[-1])


def sample_trajectory(model: PbnModel, x0: int, horizon: int, seed: int) -> Trajectory:
    """Run the network ``horizon`` steps from state ``x0``; switches are i.i.d.

    ``horizon`` must fit the step budget.
    """
    if not 1 <= x0 <= model.state_count:
        raise ValueError(f"state {x0} out of range [1, {model.state_count}]")
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    if horizon > DEFAULT_STEP_BUDGET:
        raise ResourceLimitError(
            f"trajectory needs {horizon} steps, over the budget {DEFAULT_STEP_BUDGET}; "
            "lower the horizon"
        )
    cumulative, pick = _switch_rule(model)
    u = np.random.default_rng(seed).random(horizon)
    switches = pick[np.searchsorted(cumulative, u, side="right")].tolist()
    states = [x0]
    for v in switches:
        states.append(model.transitions[v].column(states[-1]))
    outputs = [model.output.column(s) for s in states]
    return Trajectory(tuple(states), tuple(outputs), tuple(v + 1 for v in switches), seed)


@cache
def _hash_consts(init: int, mult: int, start: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """SeedSequence's running hash constant: the (xor, multiply) pairs of calls
    ``start``..``start + count - 1``, as (count, 1) uint32 columns."""
    calls = range(start, start + count + 1)
    col = np.array([init * pow(mult, i, 1 << 32) & _M32 for i in calls], dtype=np.uint32)
    return col[:-1, None], col[1:, None]


def _hashmix(value: np.ndarray, consts: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    x, y = consts
    value = (value ^ x) * y
    return value ^ (value >> _U16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    return r ^ (r >> _U16)


def _seed_words(base: int, count: int) -> np.ndarray:
    """Column t is ``np.random.SeedSequence(base + t).generate_state(4, np.uint64)``.

    The entropy of ``base + t`` is its little-endian uint32 words; a seed below
    2^128 has at most four, and a missing word hashes like a zero word, so every
    lane pads to four.  ``count`` < 2^64, so the lanes' words above the low 64
    bits take one of two values: the base's, or that plus the carry.  The pool
    is one (4, count) array; each source word's round updates the other three
    pool words at once, as none of them feeds another within the round.
    """
    low_base = np.uint64(base & _M64)
    low = low_base + np.arange(count, dtype=np.uint64)
    carry = low < low_base
    highs = (base >> 64, (base >> 64) + 1)
    high_words = np.array([[h >> s & _M32 for h in highs] for s in (0, 32)], dtype=np.uint32)
    words = np.empty((4, count), dtype=np.uint32)
    words[0], words[1] = low & _LOW32, low >> _S32
    words[2:] = np.where(carry, high_words[:, 1:], high_words[:, :1])

    pool = _hashmix(words, _hash_consts(_INIT_A, _MULT_A, 0, 4))
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        hashed = _hashmix(pool[src], _hash_consts(_INIT_A, _MULT_A, 4 + 3 * src, 3))
        pool[dst] = _mix(pool[dst], hashed)
    # Seeds of 2^128 and above have words past the pool.  numpy mixes each one
    # into every pool word, hashing it afresh for every pool word.
    for high, lanes in zip(highs, (~carry, carry)):
        extra = high >> 64
        if not extra or not lanes.any():
            continue
        part = pool[:, lanes]
        for w in range(-(-extra.bit_length() // 32)):
            word = np.uint32(extra >> 32 * w & _M32)
            part = _mix(part, _hashmix(word, _hash_consts(_INIT_A, _MULT_A, 16 + 4 * w, 4)))
        pool[:, lanes] = part

    out = _hashmix(np.tile(pool, (2, 1)), _hash_consts(_INIT_B, _MULT_B, 0, 8)).astype(np.uint64)
    return out[0::2] | (out[1::2] << _S32)


@cache
def _jump_table() -> tuple[np.ndarray, ...]:
    """For j = 1.._MAX_BLOCK, as (_MAX_BLOCK, 1) columns: ``A_j = MULT^j`` and
    ``C_j = MULT^(j-1) + ... + 1`` mod 2^128, each as its high word, low word
    and the low word's two 32-bit halves, so ``s_j = A_j s + C_j inc``."""
    a, c = 1, 0
    rows = []
    for _ in range(_MAX_BLOCK):
        a, c = a * _PCG_MULT & _M128, (c * _PCG_MULT + 1) & _M128
        rows.append([x for v in (a, c) for x in (v >> 64, v & _M64, v & _M32, v >> 32 & _M32)])
    return tuple(col.reshape(-1, 1) for col in np.array(rows, dtype=np.uint64).T)


def _times(x_hi, x_lo, a_hi, a_lo, a_lo0, a_lo1):
    """``a * x`` mod 2^128 on (high, low) uint64 words; the high word of the
    64 x 64-bit low product comes from 32-bit halves."""
    x0, x1 = x_lo & _LOW32, x_lo >> _S32
    p00, p01, p10 = x0 * a_lo0, x0 * a_lo1, x1 * a_lo0
    mid = (p00 >> _S32) + (p01 & _LOW32) + (p10 & _LOW32)
    high = x1 * a_lo1 + (p01 >> _S32) + (p10 >> _S32) + (mid >> _S32)
    return high + x_lo * a_hi + x_hi * a_lo, x_lo * a_lo


def _advance(state: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """PCG64 states after 1..k steps, as (k, L) high and low words.

    ``state`` holds rows state high, state low, inc high and inc low, one
    column per trial.
    """
    table = _jump_table()
    s_hi, s_lo, i_hi, i_lo = state
    a_hi, a_lo = _times(s_hi, s_lo, *(col[:k] for col in table[:4]))
    c_hi, c_lo = _times(i_hi, i_lo, *(col[:k] for col in table[4:]))
    lo = a_lo + c_lo
    return a_hi + c_hi + (lo < a_lo), lo


def _pcg_states(base: int, count: int) -> np.ndarray:
    """State high, state low, inc high and inc low rows; column t is
    ``default_rng(base + t)``'s generator.

    PCG64 seeds as the PCG reference does: ``inc = initseq << 1 | 1``, state 0,
    one step, add ``initstate``, one step.
    """
    init_hi, init_lo, seq_hi, seq_lo = _seed_words(base, count)
    inc_hi = (seq_hi << np.uint64(1)) | (seq_lo >> _S63)
    inc_lo = (seq_lo << np.uint64(1)) | np.uint64(1)
    lo = inc_lo + init_lo
    hi = inc_hi + init_hi + (lo < inc_lo)
    state = np.stack([hi, lo, inc_hi, inc_lo])
    hi, lo = _advance(state, 1)
    state[0], state[1] = hi[0], lo[0]
    return state


def _uniforms(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """``Generator.random()`` doubles from PCG64 states already stepped: the
    XSL-RR output ``rotr64(hi ^ lo, hi >> 58)``, top 53 bits scaled."""
    x = hi ^ lo
    r = hi >> _S58
    x = (x >> r) | (x << ((np.uint64(64) - r) & _S63))
    return (x >> _S11).astype(np.float64) * 2.0**-53


def _count_separations(
    model: PbnModel, x0: int, x0_other: int, horizon: int, base: int, count: int
) -> int:
    """How many trials on seeds ``base``..``base + count - 1`` separate within ``horizon``."""
    size = model.state_count
    table = np.concatenate([mat.col_index for mat in model.transitions]).astype(np.intp) - 1
    out = model.output.col_index
    cumulative, pick = _switch_rule(model)
    offset = pick * size
    state = _pcg_states(base, count)
    pos = np.repeat(np.array([x0 - 1, x0_other - 1], dtype=np.intp), count)
    hits = done = 0
    step = 2
    while done < horizon and state.shape[1]:
        live = state.shape[1]
        k = min(step, horizon - done, _BLOCK_CELLS // live)
        hi, lo = _advance(state, k)
        v = offset[np.searchsorted(cumulative, _uniforms(hi, lo), side="right")]
        v = np.concatenate([v, v], axis=1)
        path = np.empty((k + 1, 2 * live), dtype=np.intp)
        path[0] = pos
        for j in range(k):
            path[j + 1] = table[v[j] + path[j]]
        a, b = path[1:, :live], path[1:, live:]
        apart = out[a] != out[b]
        ends = apart | (a == b)
        first = ends.argmax(axis=0)
        lanes = np.arange(live)
        hits += int(np.count_nonzero(apart[first, lanes]))
        going = ~ends[first, lanes]
        state = np.stack([hi[-1], lo[-1], state[2], state[3]])[:, going]
        pos = path[k][np.concatenate([going, going])]
        done += k
        step = min(2 * step, _MAX_BLOCK)
    return hits


def estimate_distinguishability(
    model: PbnModel, x0: int, x0_other: int, horizon: int, trials: int, seed: int
) -> float:
    """Fraction of shared-switching runs whose output sequences differ by ``horizon``.

    ``horizon * trials`` must fit the step budget, for every pair alike.
    """
    for x in (x0, x0_other):
        if not 1 <= x <= model.state_count:
            raise ValueError(f"state {x} out of range [1, {model.state_count}]")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    if horizon * trials > DEFAULT_STEP_BUDGET:
        raise ResourceLimitError(
            f"simulation needs up to {horizon} x {trials} = {horizon * trials} steps, "
            f"over the budget {DEFAULT_STEP_BUDGET}; lower the horizon or the trial count"
        )
    out = model.output.col_index
    if x0 == x0_other:
        return 0.0
    if out[x0 - 1] != out[x0_other - 1]:
        return 1.0
    if horizon == 0:
        # Output-equal distinct states stay unseparated; this is the one case
        # the budget passes for any trial count.
        return 0.0
    hits = 0
    for start in range(0, trials, _CHUNK):
        count = min(_CHUNK, trials - start)
        hits += _count_separations(model, x0, x0_other, horizon, int(seed) + start, count)
    return hits / trials


def pairs_distinguishable_within(model: PbnModel, horizon: int) -> StateSet:
    """Pairs whose outputs differ at some step <= ``horizon`` under every switching.

    Computed over all pair states at once: a pair qualifies now, or all of
    its one-step images qualify within one step less.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    size = model.state_count
    out = model.output.col_index
    base = (out[:, None] != out[None, :]).reshape(-1)
    succ = []
    for v in model.active:
        col = model.transitions[v].col_index
        succ.append((((col - 1) * size)[:, None] + (col - 1)[None, :]).ravel())
    current = base.copy()
    for _ in range(horizon):
        step = current[succ[0]]
        for row in succ[1:]:
            step &= current[row]
        grown = base | step
        if np.array_equal(grown, current):
            break
        current = grown
    return StateSet(current.size, current)


def exhaustive_distinguishability(
    model: PbnModel,
    x0: int,
    x0_other: int,
    horizon: int,
) -> bool:
    """Whether every length-``horizon`` switching sequence separates the outputs.

    Only positive-probability subnetworks participate.  The check is memoized
    over pair states: at most min(horizon, 4^n) sweeps of every active pair
    map, and that step count must fit the step budget.
    """
    for x in (x0, x0_other):
        if not 1 <= x <= model.state_count:
            raise ValueError(f"state {x} out of range [1, {model.state_count}]")
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    k = len(model.active)
    pair_count = model.state_count**2
    cost = min(max(horizon, 1), pair_count) * pair_count * k
    if cost > DEFAULT_STEP_BUDGET:
        raise ResourceLimitError(
            f"exhaustive check needs about {cost} pair-state steps, "
            f"over the budget {DEFAULT_STEP_BUDGET}; use the reachability analysis instead"
        )
    separated = pairs_distinguishable_within(model, horizon)
    return pair_index(x0, x0_other, model.n) in separated
