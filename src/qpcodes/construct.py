"""Parity-check constructions for the distance-4 quasi-perfect code family.

Everything grows out of four literal seed matrices by the doubling step
(new top row = zeros|ones, old matrix repeated side by side). The block
form with replicated binary-counter columns is built independently and
asserted equal, which pins down the column ordering once and for all.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import BudgetError, ConsistencyError, PreconditionError
from .gf2 import BitMatrix

__all__ = [
    "Lineage",
    "CodeSpec",
    "Code",
    "seed",
    "double",
    "peel",
    "extended_hamming",
    "panchenko",
    "general_qp",
    "admissible_lengths",
    "shorten",
    "covering_radius",
    "is_quasi_perfect",
]

SEED_NAMES = ("M", "S", "EH3", "example_9_5")

# the longest code a doubling may build: every family builder goes through
# double, so this one cap bounds them all
_MAX_COLUMNS = 1 << 18
_SYNDROME_BUDGET_R = 16


def _whole(value) -> int:
    """A sidecar's int(value), refusing a bool or a fraction, which int() misreads."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not a whole number")
    return int(value)


@dataclass(frozen=True)
class Lineage:
    """Construction trace: seed name, doubling count, g parameter, removed columns."""

    seed: str | None = None
    doublings: int = 0
    g: int | None = None
    shortened: tuple[int, ...] = ()

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "doublings": self.doublings,
            "g": self.g,
            "shortened": list(self.shortened),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Lineage":
        seed = obj.get("seed")
        if seed is not None and seed not in SEED_NAMES:
            raise ValueError(f"unknown seed {seed!r}")
        return cls(
            seed=seed,
            doublings=_whole(obj.get("doublings", 0)),
            g=None if obj.get("g") is None else _whole(obj["g"]),
            shortened=tuple(map(_whole, obj.get("shortened", ()))),
        )


@dataclass(frozen=True)
class CodeSpec:
    n: int
    r: int
    d: int | None
    lineage: Lineage = Lineage()

    def __post_init__(self) -> None:
        if self.n < 1 or self.r < 1:
            raise PreconditionError(f"bad code dimensions n={self.n} r={self.r}")

    def to_json(self) -> dict:
        return {"n": self.n, "r": self.r, "d": self.d, "lineage": self.lineage.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "CodeSpec":
        return cls(
            n=_whole(obj["n"]),
            r=_whole(obj["r"]),
            d=None if obj.get("d") is None else _whole(obj["d"]),
            lineage=Lineage.from_json(obj.get("lineage", {})),
        )


@dataclass(frozen=True)
class Code:
    spec: CodeSpec
    H: BitMatrix

    def __post_init__(self) -> None:
        if self.H.nrows != self.spec.r or self.H.cols != self.spec.n:
            raise PreconditionError(
                f"H is {self.H.nrows}x{self.H.cols}, spec says {self.spec.r}x{self.spec.n}"
            )

    def rank(self) -> int:
        return self.H.rank()

    def dimension(self) -> int:
        return self.spec.n - self.rank()


def seed(name: str) -> Code:
    """One of the four literal starting matrices."""
    if name == "M":
        h = BitMatrix((0b10, 0b11), 2)
        return Code(CodeSpec(2, 2, None, Lineage(seed="M", g=0)), h)
    if name == "S":
        rows = tuple((1 << i) | (1 << 4) for i in range(4))
        return Code(CodeSpec(5, 4, 5, Lineage(seed="S", g=2)), BitMatrix(rows, 5))
    if name == "EH3":
        return double(seed("M"))
    if name == "example_9_5":
        text = ["000001111", "100010000", "010011001", "001010101", "000110011"]
        rows = tuple(int(line[::-1], 2) for line in text)
        return Code(CodeSpec(9, 5, 4, Lineage(seed="example_9_5", g=3)), BitMatrix(rows, 9))
    raise PreconditionError(f"unknown seed {name!r}; choose from {SEED_NAMES}")


def double(c: Code) -> Code:
    """Length-doubling step: top row zeros|ones, old matrix duplicated below."""
    d = c.spec.d
    if d is not None and d < 3:
        raise PreconditionError("doubling bookkeeping is defined for d >= 3 only")
    n = c.spec.n
    if 2 * n > _MAX_COLUMNS:
        raise BudgetError(f"doubling to {2 * n} columns passes the {_MAX_COLUMNS}-column cap")
    top = ((1 << n) - 1) << n
    rows = (top,) + tuple(r | (r << n) for r in c.H.rows)
    new_d = 3 if d == 3 else 4
    spec = CodeSpec(
        2 * n,
        c.spec.r + 1,
        new_d,
        replace(c.spec.lineage, doublings=c.spec.lineage.doublings + 1),
    )
    return Code(spec, BitMatrix(rows, 2 * n))


def peel(h: BitMatrix) -> tuple[BitMatrix, int]:
    """(base, m): H read as m length doublings of base, m as large as H's
    own rows show; the inverse of m doubles. One doubling is a top row
    0...0|1...1 over the base written twice side by side, r | r << n/2 in
    every other row; so while n is even and H has two rows or more, a row 0
    and halves of that form peel off. The check reads the matrix, never a
    code's recorded lineage.
    """
    m = 0
    while h.cols and h.cols % 2 == 0 and h.nrows >= 2:
        half = h.cols // 2
        ones = (1 << half) - 1
        low = [r & ones for r in h.rows[1:]]
        if h.rows[0] != ones << half or any(r != lo | lo << half for r, lo in zip(h.rows[1:], low)):
            break
        h, m = BitMatrix(tuple(low), half), m + 1
    return h, m


def extended_hamming(r: int) -> Code:
    """The [2^(r-1), 2^(r-1)-r, 4] extended Hamming code, r >= 3."""
    if r < 3:
        raise PreconditionError("extended_hamming needs r >= 3")
    c = seed("M")
    for _ in range(r - 2):
        c = double(c)
    return c


def _block_form(seed_h: BitMatrix, r: int, g: int) -> BitMatrix:
    """Counter-block matrix: columns of block k carry k's bits (MSB on top), seed below."""
    top_rows = r - g - 2
    width = seed_h.cols
    d_blocks = 1 << top_rows
    rows = []
    for t in range(top_rows):
        # row t carries bit b = top_rows-1-t of the block counter: 2^b blocks
        # off, then 2^b on, 2^t times over
        half = width << (top_rows - 1 - t)
        rows.append(_repeat(((1 << half) - 1) << half, 2 * half, 1 << t))
    rows += [_repeat(sr, width, d_blocks) for sr in seed_h.rows]
    return BitMatrix(tuple(rows), width * d_blocks)


def _repeat(pattern: int, width: int, times: int) -> int:
    """times copies of a width-bit pattern side by side."""
    return pattern * (((1 << (width * times)) - 1) // ((1 << width) - 1))


def panchenko(r: int) -> Code:
    """Panchenko code [5*2^(r-4), n-r, 4], r >= 5: counter blocks over S."""
    if r < 5:
        raise PreconditionError("panchenko needs r >= 5")
    return general_qp(r, 2, seed("S"))


def general_qp(r: int, g: int, seed_code: Code) -> Code:
    """Doubling chain from a [2^g+1, 2^g+1-(g+2), 4] seed up to redundancy r."""
    if r < 5:
        raise PreconditionError("general_qp needs r >= 5")
    if g != 0 and not 2 <= g <= r - 3:  # admissible_g(r), without listing it
        raise PreconditionError(f"g={g} not in admissible set for r={r} (g=1 excluded)")
    if seed_code.spec.r != g + 2 or seed_code.spec.n != (1 << g) + 1:
        raise PreconditionError(
            f"seed is [{seed_code.spec.n}] with redundancy {seed_code.spec.r}; "
            f"g={g} needs length {(1 << g) + 1} and redundancy {g + 2}"
        )
    c = seed_code
    for _ in range(r - g - 2):
        c = double(c)
    expect_n = (1 << (r - 2)) + (1 << (r - 2 - g))
    if c.spec.n != expect_n:
        raise ConsistencyError(f"doubled to n={c.spec.n}, admissible length is {expect_n}")
    blocks = _block_form(seed_code.H, r, g)
    if blocks != c.H:
        raise ConsistencyError("block construction disagrees with doubling chain")
    return c


def admissible_g(r: int) -> list[int]:
    return [0] + list(range(2, r - 2))


def admissible_lengths(r: int) -> list[tuple[int, int]]:
    """All (g, n) with n = 2^(r-2) + 2^(r-2-g); g runs over {0, 2, 3, ..., r-3}."""
    if r < 5:
        raise PreconditionError("admissible_lengths needs r >= 5")
    return [(g, (1 << (r - 2)) + (1 << (r - 2 - g))) for g in admissible_g(r)]


def shorten(c: Code, cols: list[int] | tuple[int, ...]) -> Code:
    """Drop the listed columns; redundancy rows are kept, distance is recomputed."""
    from .spectrum import spectrum_of_matrix  # local import, avoids a cycle

    cols = tuple(cols)
    if not cols:
        return c
    if len(set(cols)) != len(cols):
        raise PreconditionError("duplicate column indices")
    for j in cols:
        if not 0 <= j < c.spec.n:
            raise PreconditionError(f"column {j} out of range")
    if len(cols) >= c.spec.n:
        raise PreconditionError("cannot remove every column")
    h = c.H.delete_columns(cols)
    lineage = replace(c.spec.lineage, shortened=c.spec.lineage.shortened + cols)
    new_d = spectrum_of_matrix(h).min_nonzero()
    if c.spec.d is not None and new_d is not None and new_d < c.spec.d:
        raise ConsistencyError("distance decreased under shortening")
    return Code(CodeSpec(h.cols, c.spec.r, new_d, lineage), h)


def covering_radius(c: Code) -> int:
    """Max over syndromes of the least number of H-columns summing to it (BFS layering)."""
    if c.spec.r > _SYNDROME_BUDGET_R:
        raise BudgetError(f"covering radius BFS budgeted for r <= {_SYNDROME_BUDGET_R}")
    cols = set(c.H.column_ints())
    target = 1 << c.H.rank()
    reached = {0}
    frontier = {0}
    radius = 0
    while len(reached) < target:
        frontier = {s ^ col for s in frontier for col in cols} - reached
        if not frontier:
            raise ConsistencyError("syndrome BFS stalled below full span")
        reached |= frontier
        radius += 1
    return radius


def is_quasi_perfect(c: Code) -> bool:
    """Single-error-correcting (d in {3,4}) with covering radius exactly 2."""
    from .spectrum import spectrum_of_matrix  # local import, avoids a cycle

    # actual minimum distance, by dual-space enumeration
    if spectrum_of_matrix(c.H).min_nonzero() not in (3, 4):
        return False
    return covering_radius(c) == 2
