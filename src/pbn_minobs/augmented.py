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
from .stp import LogicalMatrix, check_size, dimension_cap, kron

COLUMN_SUM_TOL = 1e-9


class StochasticMatrix:
    """Nonnegative matrix with unit column sums, stored column-sparse.

    Column j (1-based) holds the entries ``values[indptr[j-1]:indptr[j]]``
    in the 1-based rows ``rowidx[indptr[j-1]:indptr[j]]``, ascending.
    Row/column indices at the API boundary are 1-based.
    """

    __slots__ = ("rows", "cols", "_indptr", "_rowidx", "_values")

    def __init__(self, rows, cols, indptr, rowidx, values):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_indptr", np.asarray(indptr))
        object.__setattr__(self, "_rowidx", np.asarray(rowidx))
        object.__setattr__(self, "_values", np.asarray(values))
        self._validate()

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("StochasticMatrix is immutable")

    def _validate(self) -> None:
        indptr, rowidx, size = self._indptr, self._rowidx, self._values.size
        if indptr.shape != (self.cols + 1,) or not np.issubdtype(indptr.dtype, np.integer):
            raise ValueError(f"indptr must hold {self.cols + 1} integers")
        if indptr[0] != 0 or (np.diff(indptr) < 0).any() or indptr[-1] != size:
            raise ValueError(f"indptr must start at 0, never decrease and end at {size}")
        flat = rowidx.shape == self._values.shape == (size,)
        if not flat or not np.issubdtype(rowidx.dtype, np.integer):
            raise ValueError("rowidx and values must be flat, with one integer row index per value")
        if size and not (rowidx.min() >= 1 and rowidx.max() <= self.rows):
            raise ValueError(f"row indices must lie in [1, {self.rows}]")
        cols = self._entry_cols()
        if not ((np.diff(cols) > 0) | (np.diff(rowidx) > 0)).all():
            raise ValueError("row indices must ascend strictly within each column")
        sums = np.bincount(cols, weights=self._values, minlength=self.cols)
        bad = np.flatnonzero(~(np.abs(sums - 1.0) <= COLUMN_SUM_TOL))
        if bad.size:
            raise ValueError(f"column {bad[0] + 1} sums to {float(sums[bad[0]])!r}, expected 1")
        if self._values.size and not (float(np.min(self._values)) >= 0.0):
            raise ValueError("entries must be nonnegative")

    @classmethod
    def from_weighted_maps(cls, maps, weights) -> "StochasticMatrix":
        """Probability-weighted sum of logical matrices with a common shape.

        Zero-weight contributions are dropped so the sparsity pattern is the
        exact support over the positive-probability maps.  Each entry sums its
        contributions in map order.
        """
        mats = list(maps)
        w = np.array([float(x) for x in weights])
        if not mats:
            raise ValueError("at least one map required")
        if len(mats) != len(w):
            raise ValueError("one weight per map required")
        if not (np.isfinite(w).all() and (w >= 0.0).all()):
            raise ValueError(f"weights must be finite and nonnegative, got {w.tolist()}")
        rows, cols = mats[0].rows, mats[0].cols
        for m in mats:
            if (m.rows, m.cols) != (rows, cols):
                raise ValueError("maps must share one shape")
        live = w > 0.0
        # Key col * rows + row (0-based) sorts entries in CSC order.
        keys = np.stack([m.col_index for m in mats])[live] - 1 + np.arange(cols) * rows
        uniq, inverse = np.unique(keys.ravel(), return_inverse=True)
        values = np.bincount(inverse, weights=np.repeat(w[live], cols), minlength=uniq.size)
        indptr = np.searchsorted(uniq, np.arange(cols + 1) * rows)
        return cls(rows, cols, indptr=indptr, rowidx=uniq % rows + 1, values=values)

    def _col_slice(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        if not 1 <= j <= self.cols:
            raise ValueError(f"column {j} out of range [1, {self.cols}]")
        lo, hi = self._indptr[j - 1], self._indptr[j]
        return self._rowidx[lo:hi], self._values[lo:hi]

    def column_dict(self, j: int) -> dict[int, float]:
        rows, vals = self._col_slice(j)
        return {int(r): float(x) for r, x in zip(rows, vals)}

    def column_support(self, j: int) -> tuple[int, ...]:
        rows, _ = self._col_slice(j)
        return tuple(int(r) for r in rows)

    def entry(self, i: int, j: int) -> float:
        if not 1 <= i <= self.rows:
            raise ValueError(f"row {i} out of range [1, {self.rows}]")
        rows, vals = self._col_slice(j)
        hit = np.flatnonzero(rows == i)
        return float(vals[hit[0]]) if hit.size else 0.0

    def diagonal_entry(self, j: int) -> float:
        return self.entry(j, j)

    def _entry_cols(self) -> np.ndarray:
        """0-based column of each stored entry."""
        return np.repeat(np.arange(self.cols), np.diff(self._indptr))

    def dense(self) -> np.ndarray:
        check_size(self.rows, self.cols)
        out = np.zeros((self.rows, self.cols))
        out[self._rowidx - 1, self._entry_cols()] = self._values
        return out

    def __repr__(self) -> str:
        return f"StochasticMatrix({self.rows}x{self.cols})"


@dataclass(frozen=True, eq=False)
class AugmentedSystem:
    """The paired system: the positive-probability successors of every pair state.

    ``successors[r, z]`` is the 0-based pair index that pair state z (0-based)
    moves to under the r-th positive-probability subnetwork; its rows are the
    pair maps.  Their expectation (``q_matrix``, read from these rows) and
    the paired output are built on first access.
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
        """Probability-weighted expectation of the pair maps, built from ``successors``."""
        probs = self.model.probs
        return StochasticMatrix.from_weighted_maps(
            [LogicalMatrix(self.pair_count, row + 1) for row in self.successors],
            [probs[v] for v in self.active],
        )

    @cached_property
    def pair_output(self) -> LogicalMatrix:
        """Kronecker square of the output matrix, built on first access."""
        return kron(self.model.output, self.model.output)

    def pre_all(self, inside: np.ndarray) -> np.ndarray:
        """Pair states whose every positive-probability successor is in ``inside``."""
        return inside[self.successors].all(axis=0)

    def pre_any(self, inside: np.ndarray) -> np.ndarray:
        """Pair states with some positive-probability successor in ``inside``."""
        return inside[self.successors].any(axis=0)

    def column_support(self, z: int) -> tuple[int, ...]:
        """Pair states reachable from z in one step with positive probability."""
        if not 1 <= z <= self.pair_count:
            raise ValueError(f"pair index {z} out of range [1, {self.pair_count}]")
        return tuple(int(w) + 1 for w in np.unique(self.successors[:, z - 1]))


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
    succ = np.stack([pair_map(model.transitions[v]).col_index - 1 for v in model.active])
    succ.setflags(write=False)
    return AugmentedSystem(model=model, successors=succ)


def expected_transition(model: PbnModel) -> StochasticMatrix:
    """One-step state transition probabilities: the weighted sum of the subnetworks."""
    return StochasticMatrix.from_weighted_maps(model.transitions, model.probs)
