"""Weight spectra: doubling recursions, dual-space oracle, MacWilliams transform.

Two independent routes exist for every code in the family. The recursion
route steps a half-length spectrum up through each doubling; the oracle
route enumerates the row space of H (2^rank words) and converts to the
primal spectrum with an exact integer MacWilliams transform. Any
non-integral or negative intermediate is raised as an inconsistency, never
rounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .construct import Code, peel
from .errors import BudgetError, ConsistencyError, PreconditionError
from .gf2 import BitMatrix, gf2_basis

__all__ = [
    "WeightSpectrum",
    "comb0",
    "double_spectrum_step",
    "double_dual_spectrum_step",
    "row_space_spectrum",
    "spectrum_of_matrix",
    "oracle_spectrum",
    "dual_spectrum",
    "spectrum_by_doubling",
    "macwilliams",
]

_ORACLE_RANK_BUDGET = 26
# bits in the spectrum either route builds, (n + 1) counts of at most k + 1
# bits: 2^32 (512 MiB) holds eh17 and pan17, whose oracle spectra take under
# half a GiB, and refuses eh18 (2 GiB) and eh19 (8 GiB)
_SPECTRUM_BITS_BUDGET = 1 << 32
# work of a doubling chain to length n, taken as n^3: its last step, which
# dominates, does about n/2 Horner steps on up to n rows (n/2 for an even
# code) of about n/32 limbs each. 2^38 admits pan14 (n = 5,120, 0.91 s) and
# refuses pan15 (8.2-8.8 s; 1 thread, 2-core x86-64 host, numpy 2.4) and eh14
_DOUBLING_WORK_BUDGET = 1 << 38


# Horner steps of double_spectrum_step between carry passes over its limbs
_CARRY_EVERY = 28
_LIMB_MASK = np.uint64(0xFFFFFFFF)


def _carry(limbs: np.ndarray, carries: np.ndarray) -> np.ndarray:
    """One carry pass over rows of 32-bit limbs held in uint64, low limb first.
    Returns `carries`, of the same shape, filled with what it took out of each
    limb (the top limb's are dropped)."""
    np.right_shift(limbs, 32, out=carries)
    limbs &= _LIMB_MASK
    limbs[:, 1:] += carries[:, :-1]
    return carries


def _check_spectrum_budget(n: int, k: int) -> None:
    """Refuse, before any work, a length-n dimension-k spectrum past the budget."""
    if (n + 1) * (k + 1) > _SPECTRUM_BITS_BUDGET:
        raise BudgetError(
            f"spectrum of a [{n},{k}] code needs up to {(n + 1) * (k + 1)} bits, "
            f"over the 2^{_SPECTRUM_BITS_BUDGET.bit_length() - 1}-bit budget"
        )


def comb0(a: int, b: int) -> int:
    """Binomial with the summation convention: zero outside 0 <= b <= a."""
    if b < 0 or a < 0 or b > a:
        return 0
    return math.comb(a, b)


@dataclass(frozen=True)
class WeightSpectrum:
    """counts[w] = number of words of Hamming weight w; len(counts) = n + 1."""

    n: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.counts) != self.n + 1:
            raise PreconditionError("counts must have length n + 1")
        if any(c < 0 for c in self.counts):
            raise PreconditionError("negative count")
        if self.counts[0] < 1:
            raise PreconditionError("zero word missing")

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def dimension(self) -> int:
        t = self.total
        k = t.bit_length() - 1
        if t != 1 << k:
            raise ConsistencyError(f"spectrum total {t} is not a power of two")
        return k

    def min_nonzero(self) -> int | None:
        for w in range(1, self.n + 1):
            if self.counts[w]:
                return w
        return None

    def nonzero_items(self) -> list[tuple[int, int]]:
        return [(w, c) for w, c in enumerate(self.counts) if c]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.dimension,
            "counts": {str(w): str(c) for w, c in self.nonzero_items()},
        }


def double_spectrum_step(s: WeightSpectrum) -> WeightSpectrum:
    """Spectrum of the doubled code from the half-length spectrum.

    A'(x) = sum_{w>=4} 2^(w-1) A_w x^w (1+x^2)^(half-w) + sum_{v even} C(half, v) x^(2v),
    the second sum being D_v, the words built on the zero word.

    Valid only when the input code has no nonzero word of weight < 4.
    """
    half = s.n
    for w in (1, 2, 3):
        if w <= half and s.counts[w]:
            raise PreconditionError(
                f"input spectrum has A_{w} = {s.counts[w]} != 0; "
                "the doubling recursion requires minimum weight >= 4"
            )
    # The first sum is taken by Horner in (1+x^2) on a uint64 array whose row
    # i holds the coefficient of x^(g*i) as L 32-bit limbs, low limb first.
    # g is 1, or 2 for an even code (no odd w with A_w != 0), whose doubled
    # code is even too, so that its odd rows are not carried along as zeros.
    # A step adds the array, shifted down by the rows of one x^2, into a
    # second buffer (an in-place add of overlapping views would copy); the
    # rows below that shift stay 0, since a term lands in row w/g >= 2, and
    # rows past `top` are still 0. Every row is a sum of nonnegative terms of
    # one output count, itself at most the doubled total, so L limbs hold it
    # and no carry leaves the top limb. Limbs are carried only every
    # _CARRY_EVERY steps, and until no carry is left at the end: after a pass
    # each is below 2^33, and a step at most doubles it and adds a term's limb
    # (< 2^32), so s steps later it is below 3 * 2^32 * 2^s, under 2^63 for
    # s <= 28.
    g = 1 if any(s.counts[1::2]) else 2
    shift = 2 // g
    limbs = (s.total << (half - 1)).bit_length() // 32 + 2
    acc = np.zeros((2 * half // g + 1, limbs), np.uint64)
    spare = np.zeros_like(acc)
    top = -1  # highest row that may be nonzero; -1 before the first term
    for w, a in enumerate(s.counts):
        if top >= 0:
            np.add(acc[shift : top + 1 + shift], acc[: top + 1], out=spare[shift : top + 1 + shift])
            acc, spare = spare, acc
            top += shift
            if w % _CARRY_EVERY == 0:
                # spare takes the carries: its rows below the shift stay 0, as
                # acc's are, and the next step rewrites the rest up to top
                _carry(acc[: top + 1], spare[: top + 1])
        if a and w >= 4:
            term = a << (w - 1)
            n32 = term.bit_length() // 32 + 1
            acc[w // g, :n32] += np.frombuffer(term.to_bytes(4 * n32, "little"), "<u4")
            top = max(top, w // g)
    while _carry(acc, spare).any():
        pass
    del spare  # else both buffers, the bytes and the counts below are all live at once
    raw = acc.astype("<u4").tobytes()
    del acc
    size = 4 * limbs
    out = [0] * (2 * half + 1)
    out[::g] = [int.from_bytes(raw[i : i + size], "little") for i in range(0, len(raw), size)]
    del raw
    d = 1  # D_v = C(half, v), v even, by its running ratio
    for v in range(0, half + 1, 2):
        out[2 * v] += d
        d = d * ((half - v) * (half - v - 1)) // ((v + 1) * (v + 2))
    result = WeightSpectrum(2 * half, tuple(out))
    # word count must grow by exactly 2^(half-1): dimension k -> k + half - 1
    if result.total != s.total << (half - 1):
        raise ConsistencyError(
            f"doubled spectrum totals {result.total}, expected {s.total << (half - 1)}"
        )
    return result


def double_dual_spectrum_step(s_dual: WeightSpectrum, r_new: int) -> WeightSpectrum:
    """Dual spectrum across one doubling: weights double, plus 2^(r_new-1) words
    of weight half_n from cosets of the new top row. Defined for even half_n only."""
    half = s_dual.n
    if half % 2 != 0:
        raise PreconditionError(
            f"half-length {half} is odd; the dual image is not weight-aligned, "
            "use the MacWilliams route instead"
        )
    if s_dual.total != 1 << (r_new - 1):
        raise ConsistencyError(
            f"dual spectrum totals {s_dual.total}, expected 2^{r_new - 1}"
        )
    out = [0] * (2 * half + 1)
    for v in range(half + 1):
        out[2 * v] = s_dual.counts[v]
    out[half] += 1 << (r_new - 1)
    return WeightSpectrum(2 * half, tuple(out))


def row_space_spectrum(h: BitMatrix) -> WeightSpectrum:
    """Exact weight spectrum of the row space of h (the dual code), by Gray-code walk."""
    basis = gf2_basis(h.rows)
    rank = len(basis)
    if rank > _ORACLE_RANK_BUDGET:
        raise BudgetError(f"row space of rank {rank} exceeds 2^{_ORACLE_RANK_BUDGET} budget")
    counts = [0] * (h.cols + 1)
    counts[0] = 1
    word = 0
    for i in range(1, 1 << rank):
        word ^= basis[(i & -i).bit_length() - 1]
        counts[word.bit_count()] += 1
    return WeightSpectrum(h.cols, tuple(counts))


def spectrum_of_matrix(h: BitMatrix) -> WeightSpectrum:
    """Primal spectrum of the code {x : Hx = 0}: dual enumeration + MacWilliams."""
    _check_spectrum_budget(h.cols, h.cols - h.rank())
    dual = row_space_spectrum(h)
    return macwilliams(dual, dual.dimension)


def oracle_spectrum(c: Code) -> WeightSpectrum:
    return spectrum_of_matrix(c.H)


def dual_spectrum(c: Code) -> WeightSpectrum:
    return row_space_spectrum(c.H)


def spectrum_by_doubling(c: Code) -> WeightSpectrum:
    """Recursion route: peel the doublings off H, oracle the base's
    spectrum, then one step per doubling."""
    _check_spectrum_budget(c.spec.n, c.dimension())
    if c.spec.n**3 > _DOUBLING_WORK_BUDGET:
        raise BudgetError(
            f"doubling recursion to length {c.spec.n} is over the 2^"
            f"{_DOUBLING_WORK_BUDGET.bit_length() - 1} work budget (n^3); the oracle route applies"
        )
    base, m = peel(c.H)
    if not m:
        raise PreconditionError("H is not written as a length doubling; only the oracle route applies")
    s = spectrum_of_matrix(base)
    for _ in range(m):
        s = double_spectrum_step(s)
    return s


def macwilliams(s: WeightSpectrum, k: int) -> WeightSpectrum:
    """Dual spectrum of a 2^k-word length-n code, exact integer arithmetic.

    B_j = 2^-k * sum_w A_w K_j(w) with binary Krawtchouk K_j; computed by the
    three-term recurrence in j. Non-integral or negative output raises, since
    it can only mean the input was not a valid spectrum.
    """
    if k < 0 or s.total != 1 << k:
        raise PreconditionError(f"spectrum totals {s.total}, not 2^{k}")
    n = s.n
    acc = [0] * (n + 1)
    for w, a_w in s.nonzero_items():
        k_prev = 1
        acc[0] += a_w
        if n >= 1:
            k_cur = n - 2 * w
            acc[1] += a_w * k_cur
            for j in range(1, n):
                nom = (n - 2 * w) * k_cur - (n - j + 1) * k_prev
                if nom % (j + 1):
                    raise ConsistencyError("Krawtchouk recurrence lost integrality")
                k_prev, k_cur = k_cur, nom // (j + 1)
                acc[j + 1] += a_w * k_cur
    out = []
    for j, v in enumerate(acc):
        q, rem = divmod(v, 1 << k)
        if rem or q < 0:
            raise ConsistencyError(
                f"MacWilliams output at weight {j} is {v}/2^{k}; input spectrum inconsistent"
            )
        out.append(q)
    return WeightSpectrum(n, tuple(out))
