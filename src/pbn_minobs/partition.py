"""Pair-state sets and the diagonal / indistinguishable / distinguishable split.

Pair (i, j) of single-network states lives at linear index (i-1)*2^n + j in
the pair space of size 4^n.  The mirror of (i, j) is (j, i); dynamics and
output tests are mirror-symmetric, so analyses run on the full pair space and
results are folded to the canonical i <= j representatives for display.
Sets are :class:`StateSet` values over one read-only bool array, which the
fixpoints and the folds below read and build directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import PbnModel
from .stp import integer_indices


class StateSet:
    """Immutable subset of {1, ..., universe} backed by one read-only bool array.

    Entry k-1 of ``bits`` holds membership of index k.  The constructor copies
    ``bits``; sets built by the operators own their fresh arrays.
    """

    __slots__ = ("universe", "bits")

    def __init__(self, universe: int, bits):
        if universe <= 0:
            raise ValueError("universe must be positive")
        arr = np.asarray(bits)
        if arr.dtype != np.bool_ or arr.shape != (universe,):
            raise ValueError(f"bits must be a bool array of shape ({universe},)")
        self._set(universe, arr.copy())

    def _set(self, universe: int, bits: np.ndarray) -> None:
        bits.flags.writeable = False
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "bits", bits)

    @classmethod
    def _own(cls, bits: np.ndarray) -> "StateSet":
        """Wrap a fresh 1-D bool array that no one else holds, without copying."""
        obj = object.__new__(cls)
        obj._set(bits.size, bits)
        return obj

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("StateSet is immutable")

    @classmethod
    def empty(cls, universe: int) -> "StateSet":
        return cls(universe, np.zeros(universe, dtype=bool))

    @classmethod
    def full(cls, universe: int) -> "StateSet":
        return cls(universe, np.ones(universe, dtype=bool))

    @classmethod
    def from_indices(cls, universe: int, indices) -> "StateSet":
        if not isinstance(indices, np.ndarray):
            indices = list(indices)
        idx = integer_indices(indices, universe, "indices")
        outside = idx[(idx < 1) | (idx > universe)]
        if outside.size:
            raise ValueError(f"index {outside[0]} out of range [1, {universe}]")
        bits = np.zeros(universe, dtype=bool)
        bits[idx - 1] = True
        return cls(universe, bits)

    @classmethod
    def from_bool_array(cls, arr) -> "StateSet":
        flat = np.asarray(arr, dtype=bool).reshape(-1)
        return cls(flat.size, flat)

    def to_bool_array(self) -> np.ndarray:
        """The stored read-only membership array."""
        return self.bits

    def _check(self, other: "StateSet") -> None:
        if not isinstance(other, StateSet):
            raise TypeError(f"expected StateSet, got {type(other).__name__}")
        if other.universe != self.universe:
            raise ValueError(f"universe mismatch: {self.universe} vs {other.universe}")

    def __contains__(self, k: int) -> bool:
        return 1 <= k <= self.universe and bool(self.bits[k - 1])

    def __or__(self, other: "StateSet") -> "StateSet":
        self._check(other)
        return StateSet._own(self.bits | other.bits)

    def __and__(self, other: "StateSet") -> "StateSet":
        self._check(other)
        return StateSet._own(self.bits & other.bits)

    def __sub__(self, other: "StateSet") -> "StateSet":
        self._check(other)
        return StateSet._own(self.bits & ~other.bits)

    def issubset(self, other: "StateSet") -> bool:
        self._check(other)
        return not (self.bits & ~other.bits).any()

    def isdisjoint(self, other: "StateSet") -> bool:
        self._check(other)
        return not (self.bits & other.bits).any()

    def __len__(self) -> int:
        return int(np.count_nonzero(self.bits))

    def __bool__(self) -> bool:
        return bool(self.bits.any())

    def __iter__(self):
        return iter(self.indices())

    def indices(self) -> tuple[int, ...]:
        return tuple((np.flatnonzero(self.bits) + 1).tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, StateSet):
            return NotImplemented
        return self.universe == other.universe and bool(np.array_equal(self.bits, other.bits))

    def __hash__(self):
        return hash((self.universe, self.bits.tobytes()))

    def __repr__(self) -> str:
        shown = self.indices()
        body = ", ".join(map(str, shown[:12]))
        if len(shown) > 12:
            body += ", ..."
        return f"StateSet({self.universe}, {{{body}}})"


# ---------------------------------------------------------------------------
# Pair-space index arithmetic
# ---------------------------------------------------------------------------

def pair_index(i: int, j: int, n: int) -> int:
    """Linear pair-space index of (i, j), matching delta_2^n^i |x delta_2^n^j."""
    size = 1 << n
    if not (1 <= i <= size and 1 <= j <= size):
        raise ValueError(f"pair ({i}, {j}) out of range [1, {size}]^2")
    return (i - 1) * size + j


def pair_split(k: int, n: int) -> tuple[int, int]:
    size = 1 << n
    if not 1 <= k <= size * size:
        raise ValueError(f"pair index {k} out of range [1, {size * size}]")
    return (k - 1) // size + 1, (k - 1) % size + 1


def mirror_index(k: int, n: int) -> int:
    """Index of (j, i) for the pair (i, j) at index k; an involution."""
    i, j = pair_split(k, n)
    return pair_index(j, i, n)


def diagonal_set(n: int) -> StateSet:
    size = 1 << n
    bits = np.zeros(size * size, dtype=bool)
    bits[:: size + 1] = True
    return StateSet._own(bits)


def _as_square(s: StateSet, n: int) -> np.ndarray:
    size = 1 << n
    if s.universe != size * size:
        raise ValueError(f"state set universe {s.universe} does not match pair space {size * size}")
    return s.bits.reshape(size, size)


def mirror_close(s: StateSet, n: int) -> StateSet:
    """Union of the set with its mirror image."""
    grid = _as_square(s, n)
    return StateSet._own((grid | grid.T).reshape(-1))


def canonicalize(s: StateSet, n: int) -> StateSet:
    """Fold every pair to its i <= j representative."""
    grid = _as_square(s, n)
    return StateSet._own(np.triu(grid | grid.T).reshape(-1))


def folded_pairs(s: StateSet, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """int64 arrays (index, i, j) of every canonical i <= j representative, in index order."""
    grid = _as_square(s, n)
    k = np.arange(1 << n)
    upper = grid | grid.T
    upper &= k[:, None] <= k  # the i <= j half, masked in place: no filtered copies
    z = np.flatnonzero(upper)
    return z + 1, (z >> n) + 1, (z & ((1 << n) - 1)) + 1


def folded_indices(z: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`folded_pairs` of a mirror-closed set given by its ascending 0-based indices."""
    first, second = z >> n, z & ((1 << n) - 1)
    keep = np.flatnonzero(first <= second)  # an index array: faster than a bool mask
    return z[keep] + 1, first[keep] + 1, second[keep] + 1


# ---------------------------------------------------------------------------
# The output-based partition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Partition:
    """Diagonal pairs s0, and the canonical i < j pairs split by output equality."""

    s0: StateSet
    s1: StateSet
    s2: StateSet


def partition_states(model: PbnModel) -> Partition:
    """Split the pair space by the output matrix.

    s1 holds the i < j pairs the output cannot tell apart, s2 those it can;
    s0 is the diagonal.
    """
    h = model.output.col_index
    equal = h[:, None] == h[None, :]
    upper = np.triu(np.ones_like(equal), k=1)
    return Partition(
        s0=diagonal_set(model.n),
        s1=StateSet._own((equal & upper).reshape(-1)),
        s2=StateSet._own((~equal & upper).reshape(-1)),
    )
