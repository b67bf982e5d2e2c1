"""Parallel-copy dynamics: pair-state successors, expected transition matrices.

Two copies of the network driven by one switching signal evolve the pair
(i, j) to (L_v(i), L_v(j)).  The pair maps are kept as one successor array
(a row of 0-based pair indices per positive-probability subnetwork), never
as dense 4^n x 4^n arrays.  Every fixpoint is built from the pre-image
operators ``pre_all`` (all successors inside a bool array over the pair
space) and ``pre_any`` (some successor inside).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ResourceLimitError
from .model import PbnModel
from .stp import LogicalMatrix, check_size, dimension_cap

COLUMN_SUM_TOL = 1e-9


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

    @classmethod
    def from_weighted_maps(cls, maps, weights) -> "StochasticMatrix":
        """Probability-weighted sum of logical matrices with a common shape."""
        mats = list(maps)
        if not mats:
            raise ValueError("at least one map required")
        shape = (mats[0].rows, mats[0].cols)
        if any((m.rows, m.cols) != shape for m in mats):
            raise ValueError("maps must share one shape")
        return cls(shape[0], np.stack([m.col_index - 1 for m in mats]), weights)

    def column_dict(self, j: int) -> dict[int, float]:
        if not 1 <= j <= self.cols:
            raise ValueError(f"column {j} out of range [1, {self.cols}]")
        acc: dict[int, float] = {}
        for row, w in zip(self._maps[:, j - 1].tolist(), self._weights):
            acc[row + 1] = acc.get(row + 1, 0.0) + w
        return dict(sorted(acc.items()))

    def column_support(self, j: int) -> tuple[int, ...]:
        return tuple(self.column_dict(j))

    def entry(self, i: int, j: int) -> float:
        if not 1 <= i <= self.rows:
            raise ValueError(f"row {i} out of range [1, {self.rows}]")
        return self.column_dict(j).get(i, 0.0)

    def diagonal_entry(self, j: int) -> float:
        return self.entry(j, j)

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
    """The paired system: the positive-probability successors of every pair state.

    ``successors[r, z]`` is the 0-based pair index that pair state z (0-based)
    moves to under the r-th positive-probability subnetwork; its rows are the
    pair maps.  Their expectation (``q_matrix``) weights these same rows by
    the subnetwork probabilities, without copying them.
    """

    model: PbnModel
    successors: np.ndarray = field(repr=False)

    @property
    def pair_count(self) -> int:
        return self.successors.shape[1]

    @property
    def active(self) -> tuple[int, ...]:
        return self.model.active

    @cached_property
    def q_matrix(self) -> StochasticMatrix:
        """Probability-weighted expectation of the pair maps: a view over ``successors``."""
        probs = self.model.probs
        return StochasticMatrix(self.pair_count, self.successors, [probs[v] for v in self.active])

    def pre_all(self, inside: np.ndarray) -> np.ndarray:
        """Pair states whose every positive-probability successor is in ``inside``."""
        return inside[self.successors].all(axis=0)

    def pre_any(self, inside: np.ndarray) -> np.ndarray:
        """Pair states with some positive-probability successor in ``inside``."""
        return inside[self.successors].any(axis=0)


def pair_map(transition: LogicalMatrix) -> LogicalMatrix:
    """Lift a 2^n x 2^n map to the pair space: (i, j) goes to (img i, img j)."""
    size = transition.rows
    col = transition.col_index
    combined = ((col - 1) * size)[:, None] + col[None, :]
    return LogicalMatrix(size * size, combined.ravel())


def build_augmented(model: PbnModel) -> AugmentedSystem:
    """Construct the successor array of the positive-probability pair maps."""
    size = model.state_count
    pair_count = size * size
    cap = dimension_cap()
    if model.m * pair_count > cap:
        raise ResourceLimitError(
            f"augmented system needs {model.m}x{pair_count} stored entries, "
            f"exceeding the cap {cap}"
        )
    # Each row is written in place: pair i * size + j goes to col[i] * size + col[j].
    succ = np.empty((len(model.active), pair_count), dtype=np.int64)
    for row, v in zip(succ, model.active):
        col = model.transitions[v].col_index - 1
        np.add.outer(col * size, col, out=row.reshape(size, size))
    succ.setflags(write=False)
    return AugmentedSystem(model=model, successors=succ)


def expected_transition(model: PbnModel) -> StochasticMatrix:
    """One-step state transition probabilities: the weighted sum of the subnetworks."""
    return StochasticMatrix.from_weighted_maps(model.transitions, model.probs)
