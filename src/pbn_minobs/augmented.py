"""Parallel-copy dynamics: pair-state successors, expected transition matrices.

Two copies of the network driven by one switching signal evolve the pair
(i, j) to (L_v(i), L_v(j)).  So the k x 2^n network maps of the
positive-probability subnetworks fix every pair successor: the pair maps are
computed from them where they are read, never stored as a k x 4^n array or
as dense 4^n x 4^n matrices.  Every pair-space operator reads
:meth:`AugmentedSystem.successors` of the states it tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .model import PbnModel
from .stp import LogicalMatrix, check_size

COLUMN_SUM_TOL = 1e-9

# States whose successors are computed at once, by AugmentedSystem.successors and
# by the analysis stages that test them: the temporaries hold k x 2^16 intp
# entries (2 MB at k = 4), not k x |states|.
SUCCESSOR_BLOCK = 1 << 16


class StochasticMatrix:
    """Probability-weighted sum of logical maps, as the paper writes the expectation.

    ``maps[r, j-1]`` is the 0-based row that map r sends column j to, and
    ``weights[r]`` is that map's probability.  Entry (i, j) adds, in map order,
    the weights of the maps that send j to i.  Zero-weight maps are dropped so
    the support is exact.  Row/column indices at the API boundary are 1-based.
    """

    __slots__ = ("rows", "cols", "_maps", "_weights")

    def __init__(self, rows: int, maps, weights) -> None:
        maps = np.asarray(maps)
        w = np.array(weights, dtype=float)
        if maps.ndim != 2 or not maps.size or not np.issubdtype(maps.dtype, np.integer):
            raise ValueError("maps must be a non-empty 2-D integer array")
        if w.shape != maps.shape[:1]:
            raise ValueError("one weight per map required")
        if not (np.isfinite(w).all() and (w >= 0.0).all()):
            raise ValueError(f"weights must be finite and nonnegative, got {w.tolist()}")
        total = float(w.sum())
        if not abs(total - 1.0) <= COLUMN_SUM_TOL:
            raise ValueError(f"every column sums to {total!r}, expected 1")
        if maps.min() < 0 or maps.max() >= rows:
            raise ValueError(f"map rows must lie in [0, {rows - 1}]")
        live = w > 0.0
        if maps.flags.writeable or not live.all():
            maps = maps[live]  # a copy: the caller's array is never aliased
            maps.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", maps.shape[1])
        object.__setattr__(self, "_maps", maps)
        object.__setattr__(self, "_weights", tuple(w[live].tolist()))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("StochasticMatrix is immutable")

    def column_dict(self, j: int) -> dict[int, float]:
        """Column j's nonzero entries as {row: value}, rows ascending; its keys are the support."""
        if not 1 <= j <= self.cols:
            raise ValueError(f"column {j} out of range [1, {self.cols}]")
        acc: dict[int, float] = {}
        for row, w in zip(self._maps[:, j - 1].tolist(), self._weights):
            acc[row + 1] = acc.get(row + 1, 0.0) + w
        return dict(sorted(acc.items()))

    def entry(self, i: int, j: int) -> float:
        if not 1 <= i <= self.rows:
            raise ValueError(f"row {i} out of range [1, {self.rows}]")
        return self.column_dict(j).get(i, 0.0)

    def dense(self) -> np.ndarray:
        check_size(self.rows, self.cols)
        out = np.zeros((self.rows, self.cols))
        cols = np.arange(self.cols)
        for row, w in zip(self._maps, self._weights):
            out[row, cols] += w
        return out

    def __repr__(self) -> str:
        return f"StochasticMatrix({self.rows}x{self.cols})"


@dataclass(frozen=True, eq=False)
class AugmentedSystem:
    """The paired system, held as the network maps of its positive-probability subnetworks.

    ``maps[r, i]`` is the 0-based state that state i (0-based) moves to under
    the r-th positive-probability subnetwork.  Pair state z = i * 2^n + j
    moves to ``maps[r, i] * 2^n + maps[r, j]``; :meth:`successors` is the one
    place that computes it, so no k x 4^n successor array is stored.  It
    reads the first halves from ``shifted``, the read-only ``maps << n``
    computed once with the system.  The expectation of the pair maps
    (``q_matrix``) weights them by the subnetwork probabilities and is built
    on first read, by the library and the tests: no command reads it, and
    ``analyze --dot`` sums the s1 columns alone.
    """

    model: PbnModel
    maps: np.ndarray = field(repr=False)
    shifted: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        shifted = self.maps << self.model.n
        shifted.setflags(write=False)
        object.__setattr__(self, "shifted", shifted)

    @property
    def pair_count(self) -> int:
        return self.maps.shape[1] ** 2

    @property
    def active(self) -> tuple[int, ...]:
        return self.model.active

    def successors(self, z: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
        """0-based successors of the 0-based pair states ``z``: one row per map in ``rows``.

        Each successor keeps the order of its halves: a map that swaps i and j
        sends (i, j) to (j, i), which is not (i, j) itself.  ``z`` is read in
        blocks of ``SUCCESSOR_BLOCK`` states into the one output array.  Each
        index must lie in [0, 4^n): the first halves are read with
        ``mode="clip"``, as a bounds-checked ``take`` into ``out`` copies
        through a buffer.
        """
        n, step = self.model.n, SUCCESSOR_BLOCK
        shifted, maps = self.shifted[rows], self.maps[rows]
        out = np.empty((shifted.shape[0], z.size), dtype=np.intp)
        for start in range(0, z.size, step):
            block, cols = z[start : start + step], out[:, start : start + step]
            shifted.take(block >> n, axis=1, out=cols, mode="clip")
            cols |= maps.take(block & ((1 << n) - 1), axis=1)
        return out

    @cached_property
    def q_matrix(self) -> StochasticMatrix:
        """Probability-weighted expectation of the pair maps, made (k x 4^n) on first read."""
        check_size(len(self.active), self.pair_count, "pair expectation")
        succ = self.successors(np.arange(self.pair_count))
        succ.setflags(write=False)  # so the matrix keeps it without a copy
        probs = self.model.probs
        return StochasticMatrix(self.pair_count, succ, [probs[v] for v in self.active])


def pair_map(transition: LogicalMatrix) -> LogicalMatrix:
    """Lift a 2^n x 2^n map to the pair space: (i, j) goes to (img i, img j)."""
    size = transition.rows
    col = transition.col_index
    combined = ((col - 1) * size)[:, None] + col[None, :]
    return LogicalMatrix(size * size, combined.ravel())


def build_augmented(model: PbnModel) -> AugmentedSystem:
    """The paired system of ``model``; refused when its 4^n pair space passes the entry cap."""
    size = model.state_count
    check_size(size, size, "pair space")
    maps = np.stack([model.transitions[v].col_index - 1 for v in model.active]).astype(np.intp)
    maps.setflags(write=False)
    return AugmentedSystem(model=model, maps=maps)


def expected_transition(model: PbnModel) -> StochasticMatrix:
    """One-step state transition probabilities: the weighted sum of the subnetworks."""
    maps = np.stack([t.col_index - 1 for t in model.transitions])
    return StochasticMatrix(model.state_count, maps, model.probs)
