"""Parallel-copy dynamics: pair-state maps, expected transition matrices.

Two copies of the network driven by one switching signal evolve the pair
(i, j) to (L_v(i), L_v(j)).  The pair maps are kept as logical matrices
(column-index arrays), never as dense 4^n x 4^n arrays.  Every fixpoint is
built from the pre-image operators ``pre_all`` (all successors inside a bool
array over the pair space) and ``pre_any`` (some successor inside).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ResourceLimitError
from .model import PbnModel
from .stp import LogicalMatrix, dimension_cap, kron

COLUMN_SUM_TOL = 1e-9
_SPARSE_DENSITY_THRESHOLD = 0.25


class StochasticMatrix:
    """Nonnegative matrix with unit column sums.

    Stored dense above 25% fill, column-sparse (CSC-style arrays) below.
    Row/column indices at the API boundary are 1-based.
    """

    __slots__ = ("rows", "cols", "_dense", "_indptr", "_rowidx", "_values")

    def __init__(self, rows, cols, dense=None, indptr=None, rowidx=None, values=None):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_dense", dense)
        object.__setattr__(self, "_indptr", indptr)
        object.__setattr__(self, "_rowidx", rowidx)
        object.__setattr__(self, "_values", values)
        self._validate()

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("StochasticMatrix is immutable")

    def _validate(self) -> None:
        for j in range(1, self.cols + 1):
            total = self.column_sum(j)
            if abs(total - 1.0) > COLUMN_SUM_TOL:
                raise ValueError(f"column {j} sums to {total!r}, expected 1")
        values = self._values if self._values is not None else self._dense
        if values is not None and values.size and float(np.min(values)) < 0.0:
            raise ValueError("entries must be nonnegative")

    @classmethod
    def from_weighted_maps(cls, maps, weights) -> "StochasticMatrix":
        """Probability-weighted sum of logical matrices with a common shape.

        Zero-weight contributions are dropped so the sparsity pattern is the
        exact support over the positive-probability maps.
        """
        mats = list(maps)
        w = [float(x) for x in weights]
        if len(mats) != len(w):
            raise ValueError("one weight per map required")
        rows, cols = mats[0].rows, mats[0].cols
        for m in mats:
            if (m.rows, m.cols) != (rows, cols):
                raise ValueError("maps must share one shape")
        col_rows: list[np.ndarray] = []
        col_vals: list[np.ndarray] = []
        nnz = 0
        stacked = np.stack([m.col_index for m in mats])
        for j in range(cols):
            acc: dict[int, float] = {}
            for v, weight in enumerate(w):
                if weight <= 0.0:
                    continue
                r = int(stacked[v, j])
                acc[r] = acc.get(r, 0.0) + weight
            rows_j = np.fromiter(sorted(acc), dtype=np.int64, count=len(acc))
            vals_j = np.array([acc[int(r)] for r in rows_j])
            col_rows.append(rows_j)
            col_vals.append(vals_j)
            nnz += rows_j.size
        if rows * cols and nnz / (rows * cols) >= _SPARSE_DENSITY_THRESHOLD:
            dense = np.zeros((rows, cols))
            for j in range(cols):
                dense[col_rows[j] - 1, j] = col_vals[j]
            return cls(rows, cols, dense=dense)
        indptr = np.zeros(cols + 1, dtype=np.int64)
        for j in range(cols):
            indptr[j + 1] = indptr[j] + col_rows[j].size
        rowidx = np.concatenate(col_rows) if col_rows else np.zeros(0, dtype=np.int64)
        values = np.concatenate(col_vals) if col_vals else np.zeros(0)
        return cls(rows, cols, indptr=indptr, rowidx=rowidx, values=values)

    @property
    def is_dense(self) -> bool:
        return self._dense is not None

    def _col_slice(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        if not 1 <= j <= self.cols:
            raise ValueError(f"column {j} out of range [1, {self.cols}]")
        if self.is_dense:
            rows = np.flatnonzero(self._dense[:, j - 1]) + 1
            return rows.astype(np.int64), self._dense[rows - 1, j - 1]
        lo, hi = self._indptr[j - 1], self._indptr[j]
        return self._rowidx[lo:hi], self._values[lo:hi]

    def column_dict(self, j: int) -> dict[int, float]:
        rows, vals = self._col_slice(j)
        return {int(r): float(x) for r, x in zip(rows, vals)}

    def column_support(self, j: int) -> tuple[int, ...]:
        rows, _ = self._col_slice(j)
        return tuple(int(r) for r in rows)

    def column_sum(self, j: int) -> float:
        _, vals = self._col_slice(j)
        return float(np.sum(vals))

    def entry(self, i: int, j: int) -> float:
        if not 1 <= i <= self.rows:
            raise ValueError(f"row {i} out of range [1, {self.rows}]")
        rows, vals = self._col_slice(j)
        hit = np.flatnonzero(rows == i)
        return float(vals[hit[0]]) if hit.size else 0.0

    def diagonal_entry(self, j: int) -> float:
        return self.entry(j, j)

    def dense(self) -> np.ndarray:
        if self.is_dense:
            return self._dense.copy()
        out = np.zeros((self.rows, self.cols))
        for j in range(1, self.cols + 1):
            rows, vals = self._col_slice(j)
            out[rows - 1, j - 1] = vals
        return out

    def __repr__(self) -> str:
        kind = "dense" if self.is_dense else "sparse"
        return f"StochasticMatrix({self.rows}x{self.cols}, {kind})"


@dataclass(frozen=True, eq=False)
class AugmentedSystem:
    """The paired system: one pair map per subnetwork plus its expectation.

    ``maps[v]`` sends pair index z to the pair index of the two images under
    subnetwork v+1; ``q_matrix`` is the probability-weighted expectation.
    """

    model: PbnModel
    maps: tuple[LogicalMatrix, ...]
    q_matrix: StochasticMatrix
    _active_successors: np.ndarray = field(repr=False)

    @property
    def pair_count(self) -> int:
        return self.maps[0].cols

    @property
    def active(self) -> tuple[int, ...]:
        return self.model.active

    @cached_property
    def pair_output(self) -> LogicalMatrix:
        """Kronecker square of the output matrix, built on first access."""
        return kron(self.model.output, self.model.output)

    def active_successors(self) -> np.ndarray:
        """(k, pair_count) array of 0-based successor indices over the active maps."""
        return self._active_successors

    def pre_all(self, inside: np.ndarray) -> np.ndarray:
        """Pair states whose every positive-probability successor is in ``inside``."""
        return inside[self._active_successors].all(axis=0)

    def pre_any(self, inside: np.ndarray) -> np.ndarray:
        """Pair states with some positive-probability successor in ``inside``."""
        return inside[self._active_successors].any(axis=0)

    def column_support(self, z: int) -> tuple[int, ...]:
        """Pair states reachable from z in one step with positive probability."""
        if not 1 <= z <= self.pair_count:
            raise ValueError(f"pair index {z} out of range [1, {self.pair_count}]")
        return tuple(sorted({int(self.maps[v].col_index[z - 1]) for v in self.model.active}))


def pair_map(transition: LogicalMatrix) -> LogicalMatrix:
    """Lift a 2^n x 2^n map to the pair space: (i, j) goes to (img i, img j)."""
    size = transition.rows
    col = transition.col_index
    combined = ((col - 1) * size)[:, None] + col[None, :]
    return LogicalMatrix(size * size, combined.ravel())


def build_augmented(model: PbnModel) -> AugmentedSystem:
    """Construct the pair maps and their expectation."""
    size = model.state_count
    pair_count = size * size
    cap = dimension_cap()
    if model.m * pair_count > cap:
        raise ResourceLimitError(
            f"augmented system needs {model.m}x{pair_count} stored entries, "
            f"exceeding the cap {cap}"
        )
    maps = tuple(pair_map(t) for t in model.transitions)
    q = StochasticMatrix.from_weighted_maps(maps, model.probs)
    succ = np.stack([maps[v].col_index - 1 for v in model.active])
    succ.setflags(write=False)
    return AugmentedSystem(model=model, maps=maps, q_matrix=q, _active_successors=succ)


def expected_transition(model: PbnModel) -> StochasticMatrix:
    """One-step state transition probabilities: the weighted sum of the subnetworks."""
    return StochasticMatrix.from_weighted_maps(model.transitions, model.probs)
