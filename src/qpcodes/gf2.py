"""Small GF(2) linear algebra on bit-packed rows.

Rows and columns are Python ints used as bitsets; bit j of a row int is the
entry in column j (least-significant bit = lowest column index). This is the
convention used by the text format and by every kernel downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import PreconditionError

__all__ = [
    "BitVector",
    "BitMatrix",
    "gf2_basis",
    "gf2_rank",
]


@dataclass(frozen=True)
class BitVector:
    """A length-n vector over GF(2), payload packed into one int."""

    length: int
    bits: int

    def __post_init__(self) -> None:
        if self.length < 0:
            raise PreconditionError("negative length")
        if self.bits < 0 or self.bits >> self.length:
            raise PreconditionError("payload has bits beyond declared length")

    @property
    def weight(self) -> int:
        return self.bits.bit_count()

    def __getitem__(self, j: int) -> int:
        if not 0 <= j < self.length:
            raise IndexError(j)
        return (self.bits >> j) & 1

    def to_text(self) -> str:
        return "".join("1" if (self.bits >> j) & 1 else "0" for j in range(self.length))

    @classmethod
    def from_text(cls, s: str) -> "BitVector":
        if set(s) - {"0", "1"}:
            raise PreconditionError(f"not a bit string: {s!r}")
        bits = 0
        for j, ch in enumerate(s):
            if ch == "1":
                bits |= 1 << j
        return cls(len(s), bits)


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

    def row(self, i: int) -> BitVector:
        return BitVector(self.cols, self.rows[i])

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
        return [self.column(j) for j in range(self.cols)]

    def rank(self) -> int:
        return gf2_rank(self.rows)

    def select_columns(self, idx: Sequence[int]) -> "BitMatrix":
        """Submatrix keeping the given columns, in the given order."""
        for j in idx:
            if not 0 <= j < self.cols:
                raise PreconditionError(f"column index {j} out of range")
        new_rows = []
        for r in self.rows:
            nr = 0
            for pos, j in enumerate(idx):
                nr |= ((r >> j) & 1) << pos
            new_rows.append(nr)
        return BitMatrix(tuple(new_rows), len(idx))

    def delete_columns(self, idx: Sequence[int]) -> "BitMatrix":
        keep = [j for j in range(self.cols) if j not in set(idx)]
        return self.select_columns(keep)

    def columns_independent(self, idx: Sequence[int]) -> bool:
        """True iff the selected columns are linearly independent over GF(2)."""
        return len(gf2_basis(self.column(j) for j in idx)) == len(idx)

    def transpose(self) -> "BitMatrix":
        return BitMatrix(tuple(self.column(j) for j in range(self.cols)), len(self.rows))

    def to_text(self) -> str:
        """Text form: 'rows cols' header, then one 0/1 line per row."""
        lines = [f"{len(self.rows)} {self.cols}"]
        for r in self.rows:
            lines.append("".join("1" if (r >> j) & 1 else "0" for j in range(self.cols)))
        return "\n".join(lines) + "\n"

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
            rows.append(BitVector.from_text(ln).bits)
        return cls(tuple(rows), nc)


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
