"""Semi-tensor product matrix kernel.

Real matrices are plain 2-D numpy arrays.  Logical matrices (every column a
canonical unit vector) are stored as 1-based column-index arrays, which keeps
all products over them in index arithmetic instead of dense algebra.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .errors import ResourceLimitError

DEFAULT_DIMENSION_CAP = 1 << 26
_CAP_ENV_VAR = "PBN_MINOBS_MAX_DIM"


def dimension_cap() -> int:
    """Maximum number of entries any materialized matrix may have."""
    raw = os.environ.get(_CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_DIMENSION_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"{_CAP_ENV_VAR} must be an integer, got {raw!r}") from exc
    if cap <= 0:
        raise ValueError(f"{_CAP_ENV_VAR} must be positive, got {cap}")
    return cap


def _check_size(rows: int, cols: int, what: str = "matrix") -> None:
    cap = dimension_cap()
    if rows * cols > cap:
        raise ResourceLimitError(
            f"{what} of size {rows}x{cols} exceeds the entry cap {cap} "
            f"(override with {_CAP_ENV_VAR})"
        )


class LogicalMatrix:
    """Matrix whose every column is a canonical unit vector delta_rows^i.

    Only the 1-based row index of each column's unit entry is stored.
    Instances are immutable.
    """

    __slots__ = ("rows", "cols", "col_index")

    def __init__(self, rows: int, col_index) -> None:
        if rows <= 0:
            raise ValueError(f"rows must be positive, got {rows}")
        raw = np.asarray(col_index)
        try:
            with np.errstate(invalid="ignore"):
                idx = raw.astype(np.int64, copy=False)
        except OverflowError:
            raise ValueError(f"column indices must lie in [1, {rows}]") from None
        if not np.array_equal(idx, raw):
            raise ValueError("column indices must be integers")
        if idx.ndim != 1:
            raise ValueError("col_index must be one-dimensional")
        if idx.size and (idx.min() < 1 or idx.max() > rows):
            raise ValueError(f"column indices must lie in [1, {rows}]")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", int(idx.size))
        idx.setflags(write=False)
        object.__setattr__(self, "col_index", idx)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("LogicalMatrix is immutable")

    @classmethod
    def identity(cls, k: int) -> "LogicalMatrix":
        return cls(k, np.arange(1, k + 1))

    @classmethod
    def delta(cls, rows: int, index: int) -> "LogicalMatrix":
        """The unit column vector delta_rows^index."""
        return cls(rows, [index])

    def column(self, c: int) -> int:
        """1-based unit-row index of column ``c`` (1-based)."""
        if not 1 <= c <= self.cols:
            raise ValueError(f"column {c} out of range [1, {self.cols}]")
        return int(self.col_index[c - 1])

    def dense(self) -> np.ndarray:
        _check_size(self.rows, self.cols)
        out = np.zeros((self.rows, self.cols))
        out[self.col_index - 1, np.arange(self.cols)] = 1.0
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, LogicalMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and bool(np.array_equal(self.col_index, other.col_index))
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.col_index.tobytes()))

    def __repr__(self) -> str:
        body = " ".join(str(int(i)) for i in self.col_index[:16])
        if self.cols > 16:
            body += " ..."
        return f"delta{self.rows}[{body}]"


class BooleanMatrix:
    """Dense 0/1 matrix stored as a row-major bool array."""

    __slots__ = ("rows", "cols", "bits")

    def __init__(self, bits) -> None:
        arr = np.ascontiguousarray(np.asarray(bits, dtype=bool))
        if arr.ndim != 2:
            raise ValueError("bits must be two-dimensional")
        object.__setattr__(self, "rows", arr.shape[0])
        object.__setattr__(self, "cols", arr.shape[1])
        arr.setflags(write=False)
        object.__setattr__(self, "bits", arr)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("BooleanMatrix is immutable")

    def row_masks(self) -> list[int]:
        """Each row as an integer bitmask, bit c set iff entry (row, c+1) is 1."""
        masks = []
        for r in range(self.rows):
            mask = 0
            for c in np.flatnonzero(self.bits[r]):
                mask |= 1 << int(c)
            masks.append(mask)
        return masks

    def __eq__(self, other) -> bool:
        if not isinstance(other, BooleanMatrix):
            return NotImplemented
        return bool(np.array_equal(self.bits, other.bits))

    def __hash__(self):
        return hash((self.rows, self.cols, self.bits.tobytes()))

    def __repr__(self) -> str:
        return f"BooleanMatrix({self.rows}x{self.cols})"


def _as_2d(a) -> np.ndarray:
    if isinstance(a, LogicalMatrix):
        return a.dense()
    arr = np.asarray(a, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {arr.ndim}")
    return arr


def stp(a, b) -> np.ndarray:
    """Left semi-tensor product of two real matrices.

    Both factors are padded by Kronecker identity blocks up to
    lcm(cols(a), rows(b)); with conforming dimensions this is the ordinary
    matrix product.
    """
    am = _as_2d(a)
    bm = _as_2d(b)
    ar, ac = am.shape
    br, bc = bm.shape
    lam = math.lcm(ac, br)
    ia = lam // ac
    ib = lam // br
    _check_size(ar * ia, lam, "left STP factor")
    _check_size(lam, bc * ib, "right STP factor")
    _check_size(ar * ia, bc * ib, "STP result")
    left = np.kron(am, np.eye(ia)) if ia > 1 else am
    right = np.kron(bm, np.eye(ib)) if ib > 1 else bm
    return left @ right


def kron(a, b):
    """Kronecker product; logical times logical stays logical."""
    if isinstance(a, LogicalMatrix) and isinstance(b, LogicalMatrix):
        _check_size(a.rows * b.rows, a.cols * b.cols, "Kronecker result")
        combined = ((a.col_index - 1) * b.rows)[:, None] + b.col_index[None, :]
        return LogicalMatrix(a.rows * b.rows, combined.ravel())
    am = _as_2d(a)
    bm = _as_2d(b)
    _check_size(am.shape[0] * bm.shape[0], am.shape[1] * bm.shape[1], "Kronecker result")
    return np.kron(am, bm)


def khatri_rao(a, b):
    """Column-wise Kronecker product of two matrices with equal column counts."""
    if isinstance(a, LogicalMatrix) and isinstance(b, LogicalMatrix):
        if a.cols != b.cols:
            raise ValueError(f"column counts differ: {a.cols} vs {b.cols}")
        _check_size(a.rows * b.rows, a.cols, "Khatri-Rao result")
        return LogicalMatrix(a.rows * b.rows, (a.col_index - 1) * b.rows + b.col_index)
    am = _as_2d(a)
    bm = _as_2d(b)
    if am.shape[1] != bm.shape[1]:
        raise ValueError(f"column counts differ: {am.shape[1]} vs {bm.shape[1]}")
    _check_size(am.shape[0] * bm.shape[0], am.shape[1], "Khatri-Rao result")
    return np.einsum("ik,jk->ijk", am, bm).reshape(am.shape[0] * bm.shape[0], am.shape[1])


def logical_compose(a: LogicalMatrix, b: LogicalMatrix) -> LogicalMatrix:
    """Product of two logical matrices in O(cols(b)) index lookups.

    Equals ``stp`` on the dense representations when cols(a) = rows(b).
    """
    if not (isinstance(a, LogicalMatrix) and isinstance(b, LogicalMatrix)):
        raise TypeError("logical_compose needs two LogicalMatrix operands")
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    return LogicalMatrix(a.rows, a.col_index[b.col_index - 1])
