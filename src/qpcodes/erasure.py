"""Erasure-pattern correctability: exact counts, lower bounds, estimates.

A weight-rho erasure pattern is correctable iff the rho erased positions
index linearly independent columns of H. S_rho counts correctable patterns;
delta_rho = S_rho / C(n,rho) is the conditional probability of correct
decoding. Three roads to it live here:

* psi: a closed-form lower bound subtracting codeword-anchored dependent
  sets, exact whenever 2*rho <= 3*d - 1;
* s_rho_exact / s_rho_sampled: the true count by pruned enumeration, or an
  unbiased subset-sampling estimate when C(n,rho) is out of budget;
* psi_tilde and friends: the recursive refinement of psi driven by spectra
  of shortened codes, plus the closed-form entropy floors.

The enumeration and sampling kernels share one elimination, the batched
kernel in gf2: H's columns are written in the coordinates of a row basis
of H, one word per column in the narrowest unsigned dtype that holds
rank(H) <= 64 bits, and a whole array of partial subsets is reduced with
numpy array ops, one basis per array entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

import numpy as np

from .construct import Code, _shorten
from .errors import BudgetError, ConsistencyError, PreconditionError
from .gf2 import BitMatrix, gf2_basis, independent_words, lowest_bit, reduce_words
from .rng import DOMAIN_ERASURE_SAMPLING, derive_stream, thread_map
from .spectrum import WeightSpectrum, comb0, oracle_spectrum

__all__ = [
    "EntropyBounds",
    "ErasureReport",
    "SampleEstimate",
    "TableCell",
    "binary_entropy",
    "delta_entropy_bound",
    "delta_lower",
    "delta_tilde",
    "delta_tilde_2",
    "erasure_report",
    "is_exact_regime",
    "psi",
    "psi_tilde",
    "s_rho_exact",
    "s_rho_sampled",
    "table1",
    "trailing_shortening_provider",
]

SpectrumProvider = Callable[[int], WeightSpectrum]

_WORDS = (np.uint8, np.uint16, np.uint32, np.uint64)
_SLICE = 1 << 22
# samples per derived stream; part of the sampling plan, so changing it
# changes every sampled estimate
_SAMPLE_CHUNK = 1 << 20
# subsets per kernel call: keeps the kernel's scratch arrays small next to
# the chunk's draw, which peak memory already has to hold
_HIT_BATCH = 1 << 16


def psi(n: int, d: int, rho: int, s: WeightSpectrum) -> int:
    """Lower bound on S_rho: C(n,rho) minus patterns containing a codeword support.

    For rho < d every pattern is independent and the value is C(n,rho).
    The raw formula value is returned even where it is vacuous (it can go
    negative once rho exceeds the redundancy).
    """
    if not 0 <= rho <= n:
        raise PreconditionError(f"rho={rho} outside 0..{n}")
    if s.n != n:
        raise PreconditionError(f"spectrum is for length {s.n}, not {n}")
    if d < 1:
        raise PreconditionError("distance must be positive")
    if rho < d:
        return math.comb(n, rho)
    return math.comb(n, rho) - sum(
        s.counts[w] * comb0(n - w, rho - w) for w in range(d, rho + 1)
    )


def delta_lower(n: int, d: int, rho: int, s: WeightSpectrum) -> Fraction:
    return Fraction(psi(n, d, rho, s), math.comb(n, rho))


def is_exact_regime(d: int, rho: int) -> bool:
    """True iff the psi bound is an equality: rho <= d + (d-1)/2."""
    return 2 * rho <= 3 * d - 1


def trailing_shortening_provider(code: Code) -> SpectrumProvider:
    """A_w source for the recursive bound: length m = drop trailing columns.

    Which columns are removed matters for the shortened spectra; this
    default is the reproducible convention used everywhere in the package.
    Each length is walked once: a shortened code's distance check reads the
    spectrum the provider keeps. Build one provider per code and pass it to
    every erasure_report on that code.
    """
    n = code.spec.n
    cache: dict[int, WeightSpectrum] = {}

    def provide(m: int) -> WeightSpectrum:
        if not 0 < m <= n:
            raise PreconditionError(f"provider asked for length {m}, code has {n}")
        if m not in cache:
            cache[m] = oracle_spectrum(code) if m == n else _shorten(code, tuple(range(m, n)))[1]
        return cache[m]

    return provide


def psi_tilde(
    n: int, d: int, rho: int, provider: SpectrumProvider, *, depth: int | None = None
) -> int:
    """Recursive refinement of psi: dependent sets are counted as a codeword
    support plus an *independent* remainder in the shortened code.

    depth=None runs the recursion to its natural base case (remainder below
    d); depth=k truncates after k levels, treating deeper remainders as all
    independent. depth=1 reproduces psi; depth=2 is the two-step estimate.
    """
    if not 0 <= rho <= n:
        raise PreconditionError(f"rho={rho} outside 0..{n}")
    if depth is not None and depth < 1:
        raise PreconditionError("depth must be >= 1")
    memo: dict[tuple[int, int, int | None], int] = {}

    def f(m: int, q: int, rem: int | None) -> int:
        if q < d or rem == 0:
            return comb0(m, q)
        key = (m, q, rem)
        if key not in memo:
            counts = provider(m).counts
            nxt = None if rem is None else rem - 1
            memo[key] = comb0(m, q) - sum(
                counts[w] * f(m - w, q - w, nxt)
                for w in range(d, min(q, m) + 1)
                if counts[w]
            )
        return memo[key]

    return f(n, rho, depth)


def delta_tilde(n: int, d: int, rho: int, provider: SpectrumProvider) -> Fraction:
    return Fraction(psi_tilde(n, d, rho, provider), math.comb(n, rho))


def delta_tilde_2(n: int, d: int, rho: int, provider: SpectrumProvider) -> Fraction:
    return Fraction(psi_tilde(n, d, rho, provider, depth=2), math.comb(n, rho))


def binary_entropy(x: float) -> float:
    if not 0.0 <= x <= 1.0:
        raise PreconditionError("entropy argument must be in [0, 1]")
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


@dataclass(frozen=True)
class EntropyBounds:
    entropy_bound: float
    weak_bound: float | None  # None when rho >= z: the simple bound is vacuous


def delta_entropy_bound(d: int, rho: int, z: float) -> EntropyBounds:
    """Closed-form floor on delta_rho from the binomial approximation:
    1 - 2^(-z + rho*H(d/rho)), weakened to 1 - 2^(rho-z) for rho < z."""
    if not 1 <= d <= rho:
        raise PreconditionError("needs 1 <= d <= rho")
    entropy = 1.0 - 2.0 ** (-z + rho * binary_entropy(d / rho))
    weak = 1.0 - 2.0 ** (rho - z) if rho < z else None
    return EntropyBounds(entropy, weak)


# ---------------------------------------------------------------------------
# column words for the independence kernel
# ---------------------------------------------------------------------------


def _column_words(h: BitMatrix) -> np.ndarray:
    """H's columns in the coordinates of a row basis of H, one word each.

    Columns have the same dependencies in any basis of the row space, so
    zero or redundant rows of H change nothing; the word is as wide as
    rank(H), in the narrowest unsigned dtype that holds it.
    """
    basis = gf2_basis(h.rows)
    if len(basis) > 64:
        raise PreconditionError(f"rank {len(basis)} exceeds the 64-bit independence kernel")
    dtype = next(t for t in _WORDS if np.iinfo(t).bits >= len(basis))
    return np.array(BitMatrix(tuple(basis), h.cols).column_ints(), dtype=dtype)


# ---------------------------------------------------------------------------
# exact enumeration
# ---------------------------------------------------------------------------


def _count_independent_below(cols: np.ndarray, n: int, rho: int, j0: int) -> int:
    """Independent rho-subsets whose smallest member is column j0.

    Level-synchronized walk of the pruned prefix tree: the frontier holds
    (highest index, basis, pivots) for every independent prefix, sorted by
    the highest index so the parents of a candidate column form a slice.
    """
    if not cols[j0]:
        return 0
    if rho == 1:
        return 1
    last = np.array([j0], dtype=np.int64)
    basis = cols[j0 : j0 + 1].reshape(1, 1)
    pivots = lowest_bit(basis)
    for level in range(1, rho):
        final = level + 1 == rho
        remaining = rho - level - 1
        hits = 0
        parts_last: list[np.ndarray] = []
        parts_basis: list[np.ndarray] = []
        parts_pivots: list[np.ndarray] = []
        for j in range(j0 + level, n - remaining):
            hi = int(np.searchsorted(last, j))
            for lo in range(0, hi, _SLICE):
                part = slice(lo, min(lo + _SLICE, hi))
                pb, pp = basis[:, part], pivots[:, part]
                x = reduce_words(np.full(pb.shape[1], cols[j], dtype=cols.dtype), pb, pp)
                nz = x != 0
                if final:
                    hits += int(np.count_nonzero(nz))
                    continue
                xs = x[nz]
                if not xs.size:
                    continue
                parts_basis.append(np.vstack([pb[:, nz], xs]))
                parts_pivots.append(np.vstack([pp[:, nz], lowest_bit(xs)]))
                parts_last.append(np.full(xs.size, j, dtype=np.int64))
        if final:
            return hits
        if not parts_basis:
            return 0
        basis = np.concatenate(parts_basis, axis=1)
        pivots = np.concatenate(parts_pivots, axis=1)
        last = np.concatenate(parts_last)
    raise AssertionError("unreachable")


def s_rho_exact(
    code: Code,
    rho: int,
    *,
    budget: int = 10**10,
    threads: int | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> int:
    """Exact number of correctable weight-rho erasure patterns.

    Counts rho-subsets of H's columns with rank rho by walking the
    lexicographic prefix tree, pruning every dependent prefix. Work is
    split over the first column index; the count is a plain integer sum,
    so the result is identical for any thread count.
    """
    h = code.H
    n = h.cols
    if not 0 <= rho <= n:
        raise PreconditionError(f"rho={rho} outside 0..{n}")
    if rho == 0:
        return 1
    total = math.comb(n, rho)
    if total > budget:
        raise BudgetError(
            f"exact count would examine C({n},{rho}) = {total} subsets, over budget {budget}"
        )
    if rho > h.rank():
        return 0  # a subset's rank is capped by rank(H)
    counter = partial(_count_independent_below, _column_words(h), n, rho)
    roots = range(n - rho + 1)
    out = 0
    with thread_map(counter, roots, threads) as parts:
        for done, part in enumerate(parts, 1):
            out += part
            if progress is not None:
                progress(done, len(roots))
    return out


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SampleEstimate:
    """Uniform rho-subset sample: hits = subsets found independent."""

    n: int
    rho: int
    samples: int
    hits: int
    master_seed: int

    @property
    def estimate(self) -> Fraction:
        return Fraction(self.hits, self.samples)

    @property
    def std_error(self) -> float:
        # variance floor via the (hits+1)/(N+2) point to keep CI nonzero at 0 or N hits
        p = (self.hits + 1) / (self.samples + 2)
        return math.sqrt(p * (1.0 - p) / self.samples)

    @property
    def ci95_halfwidth(self) -> float:
        return 1.96 * self.std_error


def _count_hits(cols: np.ndarray, idxs: np.ndarray) -> int:
    """Rows of idxs (m, rho) whose columns are independent."""
    return int(np.count_nonzero(independent_words(cols[idxs.T])))


def _sample_chunk(cols: np.ndarray, n: int, rho: int, master_seed: int, job: tuple[int, int]) -> int:
    index, size = job
    rng = derive_stream(master_seed, DOMAIN_ERASURE_SAMPLING, index)
    hits = 0
    got = 0
    while got < size:
        draw = rng.integers(0, n, size=(size - got, rho), dtype=np.int64)
        draw.sort(axis=1)
        if rho > 1:
            draw = draw[np.all(draw[:, 1:] != draw[:, :-1], axis=1)]
        got += draw.shape[0]
        for lo in range(0, draw.shape[0], _HIT_BATCH):
            hits += _count_hits(cols, draw[lo : lo + _HIT_BATCH])
    return hits


def s_rho_sampled(
    code: Code,
    rho: int,
    samples: int,
    master_seed: int,
    *,
    threads: int | None = None,
) -> SampleEstimate:
    """Unbiased estimate of delta_rho from uniform random rho-subsets.

    Subsets are drawn by rejection (sorted index tuples, duplicates
    redrawn), in fixed-size chunks with one derived stream each, so the
    estimate is reproducible for a given master seed at any thread count.
    """
    h = code.H
    n = h.cols
    if not 1 <= rho <= n:
        raise PreconditionError(f"rho={rho} outside 1..{n}")
    if samples < 1:
        raise PreconditionError("need at least one sample")
    jobs = [
        (i, min(_SAMPLE_CHUNK, samples - i * _SAMPLE_CHUNK))
        for i in range((samples + _SAMPLE_CHUNK - 1) // _SAMPLE_CHUNK)
    ]
    worker = partial(_sample_chunk, _column_words(h), n, rho, master_seed)
    with thread_map(worker, jobs, threads) as parts:
        hits = sum(parts)
    return SampleEstimate(n=n, rho=rho, samples=samples, hits=hits, master_seed=master_seed)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ErasureReport:
    n: int
    rho: int
    total: int
    psi: int
    psi_tilde: int
    delta_lower: Fraction
    delta_tilde: Fraction
    delta_tilde_2: Fraction
    method: str  # exact | sampled | psi-bound | recursive
    s_rho_exact: int | None = None
    delta_exact: Fraction | None = None
    sample: SampleEstimate | None = None
    entropy_bound: float | None = None
    weak_bound: float | None = None

    def __post_init__(self) -> None:
        if self.s_rho_exact is not None:
            # psi may be negative at large rho, where the closed form stops
            # carrying probability information; it must still never exceed
            # the true count
            if not self.psi <= self.s_rho_exact <= self.total:
                raise ConsistencyError(
                    f"bound ordering violated: psi={self.psi}, "
                    f"S={self.s_rho_exact}, total={self.total}"
                )
        for name in ("delta_lower", "delta_tilde", "delta_tilde_2", "delta_exact"):
            v = getattr(self, name)
            if v is not None and not 0 <= v <= 1:
                raise ConsistencyError(f"{name}={v} outside [0, 1]")

    @property
    def s_exact_or_estimate(self) -> Fraction | None:
        if self.s_rho_exact is not None:
            return Fraction(self.s_rho_exact)
        if self.sample is not None:
            return self.sample.estimate * self.total
        return None

    @property
    def delta_exact_or_estimate(self) -> Fraction | None:
        if self.s_rho_exact is not None:
            return Fraction(self.s_rho_exact, self.total)
        if self.sample is not None:
            return self.sample.estimate
        return None

    @property
    def ci_halfwidth(self) -> float | None:
        return self.sample.ci95_halfwidth if self.sample is not None else None


def erasure_report(
    code: Code,
    rho: int,
    *,
    method: str = "auto",
    samples: int = 10**8,
    master_seed: int = 1,
    exact_limit: int = 10**9,
    z: float | None = None,
    recursion_depth: int | None = None,
    provider: SpectrumProvider | None = None,
) -> ErasureReport:
    """All erasure statistics for one (code, rho) in a single record.

    method: auto picks exact when C(n,rho) <= exact_limit, else sampling;
    psi-bound and recursive skip the count entirely. Every spectrum comes
    from provider, the full-length one included; it must serve this code,
    and defaults to a new trailing_shortening_provider(code), so callers
    reporting several rho on one code pass one provider to share its walks.
    """
    n = code.spec.n
    d = code.spec.d
    if d is None:
        raise PreconditionError("the zero code has no erasure statistics")
    if not 0 <= rho <= n:
        raise PreconditionError(f"rho={rho} outside 0..{n}")
    if z is not None and not 0 <= z < math.inf:
        raise PreconditionError(f"z={z} must be finite and >= 0")
    total = math.comb(n, rho)
    chosen = method
    if method == "auto":
        chosen = "exact" if total <= exact_limit else "sampled"
    if chosen not in ("exact", "sampled", "psi-bound", "recursive"):
        raise PreconditionError(f"unknown method {chosen!r}")
    if chosen == "sampled" and samples < 1:
        raise PreconditionError("need at least one sample")
    rank = code.H.rank()
    if rho > rank:
        # no rho columns can be independent; the closed-form bound is vacuous here
        zero = Fraction(0)
        return ErasureReport(
            n=n, rho=rho, total=total, psi=0, psi_tilde=0,
            delta_lower=zero, delta_tilde=zero, delta_tilde_2=zero,
            method="exact", s_rho_exact=0, delta_exact=zero,
        )
    prov = trailing_shortening_provider(code) if provider is None else provider
    raw_psi = psi(n, d, rho, prov(n))
    raw_tilde = psi_tilde(n, d, rho, prov, depth=recursion_depth)
    tilde2 = psi_tilde(n, d, rho, prov, depth=2)
    s_exact: int | None = None
    sample: SampleEstimate | None = None
    if chosen == "exact":
        s_exact = s_rho_exact(code, rho)
    elif chosen == "sampled":
        sample = s_rho_sampled(code, rho, samples, master_seed)
    bounds = delta_entropy_bound(d, rho, z) if z is not None and d <= rho else None
    return ErasureReport(
        n=n,
        rho=rho,
        total=total,
        psi=raw_psi,
        psi_tilde=raw_tilde,
        # the raw integers keep their sign; as probability floors, negative
        # values say nothing more than zero does
        delta_lower=Fraction(max(raw_psi, 0), total),
        delta_tilde=Fraction(max(raw_tilde, 0), total),
        delta_tilde_2=Fraction(max(tilde2, 0), total),
        method=chosen,
        s_rho_exact=s_exact,
        delta_exact=Fraction(s_exact, total) if s_exact is not None else None,
        sample=sample,
        entropy_bound=bounds.entropy_bound if bounds else None,
        weak_bound=bounds.weak_bound if bounds else None,
    )


# reference four-digit decimals for the benchmark grid. Most printed values
# are truncated (pan8 rho=6: exact 0.883059, printed 0.8830), but eh8 rho=7
# is rounded (exact 0.687853, printed 0.6879); comparisons allow 1e-4 of
# slack, which covers either
TABLE1_REFERENCE: dict[tuple[str, int], dict[int, str]] = {
    ("hamming", 7): {4: "0.9836", 5: "0.9180", 6: "0.7469", 7: "0.4121"},
    ("panchenko", 7): {4: "0.9870", 5: "0.9287", 6: "0.7656", 7: "0.4306"},
    ("hamming", 8): {4: "0.9920", 5: "0.9600", 6: "0.8741", 7: "0.6879"},
    ("panchenko", 8): {4: "0.9934", 5: "0.9647", 6: "0.8830", 7: "0.6996"},
}


@dataclass(frozen=True)
class TableCell:
    label: str
    r: int
    n: int
    rho: int
    report: ErasureReport
    reference: str | None

    @property
    def value(self) -> Fraction | None:
        got = self.report.delta_exact_or_estimate
        return got if got is not None else self.report.delta_lower

    @property
    def deviation(self) -> float | None:
        if self.reference is None or self.value is None:
            return None
        return float(self.value) - float(self.reference)


def table1(
    codes: list[tuple[str, Code]],
    rhos: tuple[int, ...] = (4, 5, 6, 7),
    *,
    exact_limit: int = 10**9,
    samples: int = 10**8,
    master_seed: int = 1,
) -> list[TableCell]:
    """The benchmark delta grid: exact counts where affordable, sampling above.

    codes are (label, code) pairs; a label and r keyed in TABLE1_REFERENCE
    pick up the published value.
    """
    cells = []
    for label, code in codes:
        provider = trailing_shortening_provider(code)
        for rho in rhos:
            rep = erasure_report(
                code,
                rho,
                method="auto",
                samples=samples,
                master_seed=master_seed,
                exact_limit=exact_limit,
                provider=provider,
            )
            ref = TABLE1_REFERENCE.get((label, code.spec.r), {}).get(rho)
            cells.append(TableCell(label, code.spec.r, code.spec.n, rho, rep, ref))
    return cells
