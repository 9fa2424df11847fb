"""Small GF(2) linear algebra on bit-packed rows.

Rows and columns are Python ints used as bitsets; bit j of a row int is the
entry in column j (least-significant bit = lowest column index). This is the
convention used by the text format and by every kernel downstream.

The batched kernel at the end decides independence for whole numpy arrays
of such words at once, for the erasure counts and the simulator alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import PreconditionError

__all__ = [
    "BitMatrix",
    "gf2_basis",
    "gf2_rank",
    "independent_words",
    "lowest_bit",
    "reduce_words",
]


@dataclass(frozen=True)
class BitMatrix:
    """A rows x cols matrix over GF(2); each row is an int bitset."""

    rows: tuple[int, ...]
    cols: int

    def __post_init__(self) -> None:
        if self.cols < 0:
            raise PreconditionError("negative column count")
        for r in self.rows:
            if r < 0 or r >> self.cols:
                raise PreconditionError("row has bits beyond declared width")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def column(self, j: int) -> int:
        """Column j packed into an int, bit i = entry in row i."""
        if not 0 <= j < self.cols:
            raise IndexError(j)
        v = 0
        for i, r in enumerate(self.rows):
            v |= ((r >> j) & 1) << i
        return v

    def column_ints(self) -> list[int]:
        """All columns as ints (bit i = row i). The kernels work on this form."""
        if not self.rows:
            return [0] * self.cols
        return [_from_bits("".join(col)) for col in zip(*self._bit_rows())]

    def rank(self) -> int:
        return gf2_rank(self.rows)

    def select_columns(self, idx: Sequence[int]) -> "BitMatrix":
        """Submatrix keeping the given columns, in the given order."""
        for j in idx:
            if not 0 <= j < self.cols:
                raise PreconditionError(f"column index {j} out of range")
        rows = tuple(_from_bits("".join(bits[j] for j in idx)) for bits in self._bit_rows())
        return BitMatrix(rows, len(idx))

    def delete_columns(self, idx: Sequence[int]) -> "BitMatrix":
        drop = set(idx)
        return self.select_columns([j for j in range(self.cols) if j not in drop])

    def columns_independent(self, idx: Sequence[int]) -> bool:
        """True iff the selected columns are linearly independent over GF(2)."""
        return len(gf2_basis(self.column(j) for j in idx)) == len(idx)

    def to_text(self) -> str:
        """Text form: 'rows cols' header, then one 0/1 line per row."""
        return "\n".join([f"{len(self.rows)} {self.cols}", *self._bit_rows()]) + "\n"

    def _bit_rows(self) -> list[str]:
        """Each row as a '0'/'1' string, column 0 first."""
        return [bin(r | 1 << self.cols)[3:][::-1] for r in self.rows]

    @classmethod
    def from_text(cls, text: str) -> "BitMatrix":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise PreconditionError("empty matrix text")
        head = lines[0].split()
        if len(head) != 2 or not all(p.isdigit() for p in head):
            raise PreconditionError(f"bad header line: {lines[0]!r}")
        nr, nc = int(head[0]), int(head[1])
        if len(lines) != nr + 1:
            raise PreconditionError(f"expected {nr} rows, got {len(lines) - 1}")
        rows = []
        for ln in lines[1:]:
            if len(ln) != nc or set(ln) - {"0", "1"}:
                raise PreconditionError(f"bad row line: {ln!r}")
            rows.append(_from_bits(ln))
        return cls(tuple(rows), nc)


def _from_bits(bits: str) -> int:
    """The int whose bit j is character j of a '0'/'1' string."""
    return int(bits[::-1] or "0", 2)


def gf2_basis(vectors: Iterable[int]) -> list[int]:
    """Echelon basis of the span of int-bitset vectors, in insertion order.

    Each vector is reduced against the basis so far by leading bit and kept
    if anything is left, so the vectors were independent iff every one of
    them is kept.
    """
    basis: dict[int, int] = {}  # leading bit -> reduced vector
    for x in vectors:
        while x:
            b = x.bit_length() - 1
            if b not in basis:
                basis[b] = x
                break
            x ^= basis[b]
    return list(basis.values())


def gf2_rank(rows: Sequence[int]) -> int:
    """Rank of a matrix given as int-bitset rows."""
    return len(gf2_basis(rows))


def reduce_words(x: np.ndarray, basis: np.ndarray, pivots: np.ndarray) -> np.ndarray:
    """Reduce words x (in place) against one echelon basis per entry.

    basis[s] and pivots[s] hold the s-th basis vector of every entry and its
    one-hot pivot. Vector s has no bit at the pivots of vectors before it,
    so reducing in insertion order clears every pivot: x ends at zero iff it
    lies in the span. A zero vector (pivot 0) reduces nothing.
    """
    for b, p in zip(basis, pivots):
        x ^= b * ((x & p) != 0)
    return x


def lowest_bit(x: np.ndarray) -> np.ndarray:
    return x & (~x + 1)


def independent_words(vals: np.ndarray) -> np.ndarray:
    """True for every set whose words are linearly independent.

    vals[t, i] is the t-th word of set i; vals is reduced in place. Each
    word is reduced against the ones before it in its set and kept as the
    next basis vector, so a set is independent iff no word reduces to zero.
    """
    basis = np.empty_like(vals)
    pivots = np.empty_like(vals)
    ok = np.ones(vals.shape[1:], dtype=bool)
    for t, x in enumerate(vals):
        reduce_words(x, basis[:t], pivots[:t])
        ok &= x != 0
        basis[t] = x
        pivots[t] = lowest_bit(x)
    return ok
