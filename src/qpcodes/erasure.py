"""Erasure-pattern correctability: exact counts, lower bounds, estimates.

A weight-rho erasure pattern is correctable iff the rho erased positions
index linearly independent columns of H. S_rho counts correctable patterns;
delta_rho = S_rho / C(n,rho) is the conditional probability of correct
decoding. Three roads to it live here:

* psi: a closed-form lower bound subtracting codeword-anchored dependent
  sets, exact whenever 2*rho <= 3*d - 1;
* s_rho_exact / s_rho_sampled: the true count, or an unbiased
  subset-sampling estimate when C(n,rho) is out of budget. The count has
  two exact routes that return the same integer: Moebius inversion on the
  subspace lattice, and the pruned enumeration of rho-subsets. The lattice
  peels the length doublings off H (read from the matrix), leaving a base
  of rank s under m doublings (m = 0 when none peel); counts the base's
  support weights, the subspaces of GF(2)^s of each dimension <= rho that
  hold c base columns; lifts them through the doublings; and weighs them
  by the Moebius function. It runs when those subspaces number no more
  than the C(n,rho) subsets, the enumeration otherwise;
* psi_tilde and friends: the recursive refinement of psi driven by spectra
  of shortened codes, plus the closed-form entropy floors.

Every count reads H's columns in the coordinates of a row basis of H, one
word per column in the narrowest unsigned dtype that holds rank(H) <= 64
bits. The enumeration and sampling kernels share one elimination, the
batched kernel in gf2, which reduces a whole array of partial subsets with
numpy array ops, one basis per array entry. The sampler runs it on every
drawn row of indices unsorted: a row that repeats an index is never
independent, so the repeats are only counted, to redraw that many rows.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate, combinations
from typing import Callable

import numpy as np

from . import spectrum
from .construct import Code, peel
from .errors import BudgetError, ConsistencyError, PreconditionError
from .gf2 import BitMatrix, gf2_basis, independent_words, reduce_words
from .rng import DOMAIN_ERASURE_SAMPLING, derive_stream, thread_count, thread_map
from .spectrum import WeightSpectrum, comb0

__all__ = [
    "EntropyBounds",
    "ErasureReport",
    "SampleEstimate",
    "binary_entropy",
    "delta_entropy_bound",
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
Progress = Callable[[int, int], None] | None

_WORDS = (np.uint8, np.uint16, np.uint32, np.uint64)
# bound on the (prefix, column) pairs of one enumeration call, as a block holds
# _SLICE // n prefixes; 2^18 beat 2^16 and 2^20 on pan10 cut to 100 columns, rho = 5
_SLICE = 1 << 18
# samples per derived stream; part of the sampling plan, so changing it
# changes every sampled estimate
_SAMPLE_CHUNK = 1 << 20
# rows per draw and per kernel call: bounds the draw, its indices and the
# kernel's scratch arrays, so a chunk's memory does not grow with its size.
# Not part of the sampling plan: the batches read one stream in order
_HIT_BATCH = 1 << 16
# subspaces per lattice slice (rounded down to a power of two): bounds its span
_LATTICE_SLICE = 1 << 12
# an exact count visiting fewer units (subspaces or subsets) than this runs
# on the calling thread: on 2 cores, both routes took longer on 2 threads
# than on 1 below 4M units, and gained only from about 8M
_THREADED_UNITS = 1 << 22


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
    return math.comb(n, rho) - sum(
        s.counts[w] * comb0(n - w, rho - w) for w in range(d, rho + 1)
    )


def _floor(count: int, total: int) -> Fraction:
    """count / total as a floor on delta_rho: a negative count says no more than 0."""
    return Fraction(max(count, 0), total)


def is_exact_regime(d: int, rho: int) -> bool:
    """True iff the psi bound is an equality: rho <= d + (d-1)/2."""
    return 2 * rho <= 3 * d - 1


def trailing_shortening_provider(code: Code, full: WeightSpectrum | None = None) -> SpectrumProvider:
    """A_w source for the recursive bound: length m is the code on H's first m columns.

    Which columns are removed matters for the shortened spectra; this
    default is the reproducible convention used everywhere in the package.
    Each length is walked once and kept, and full, a spectrum of the code
    walked already, is length n's. A spectrum with a nonzero word below the
    stated d, full included, is refused. Build one per code for every
    erasure_report on it.
    """
    n, d = code.spec.n, code.spec.d
    if full is not None and full.n != n:
        raise PreconditionError(f"spectrum is for length {full.n}, not {n}")
    cache: dict[int, WeightSpectrum] = {} if full is None else {n: full}

    def provide(m: int) -> WeightSpectrum:
        if not 0 < m <= n:
            raise PreconditionError(f"provider asked for length {m}, code has {n}")
        if m not in cache:
            cache[m] = spectrum.spectrum_of_matrix(code.H if m == n else code.H.select_columns(range(m)))
        s = cache[m]
        if d is not None and any(s.counts[1:d]):
            raise ConsistencyError(f"length {m} has a word of weight {s.min_nonzero()}, below the stated d={d}")
        return s

    return provide


def psi_tilde(
    n: int, d: int, rho: int, provider: SpectrumProvider, *, depth: int | None = None
) -> int:
    """Recursive refinement of psi: dependent sets are counted as a codeword
    support plus an *independent* remainder in the shortened code.

    A step takes a codeword weight from the pattern weight q and the length
    alike, so each level is valued on q at length n - rho + q. depth=k stops
    after k levels (1 is psi, 2 the two-step estimate); as a level takes at
    least d, depth=None is depth rho // d.
    """
    if not 0 <= rho <= n:
        raise PreconditionError(f"rho={rho} outside 0..{n}")
    if d < 1:
        raise PreconditionError("distance must be positive")
    if depth is not None and depth < 1:
        raise PreconditionError("depth must be >= 1")
    c = n - rho
    top = rho // d if depth is None else min(depth, rho // d)
    # top down: the spectrum of every weight each level reaches
    levels = [{rho: provider(n).counts}] if top else []
    while len(levels) < top:
        below = {q - w for q, a in levels[-1].items() for w in range(d, q - d + 1) if a[w]}
        levels.append({q: provider(c + q).counts for q in sorted(below, reverse=True)})
    # bottom up: a remainder the level below does not value is all independent
    value: dict[int, int] = {}
    for level in reversed(levels):
        value = {
            q: math.comb(c + q, q)
            - sum(a[w] * value.get(q - w, math.comb(c + q - w, q - w)) for w in range(d, q + 1) if a[w])
            for q, a in level.items()
        }
    return value.get(rho, math.comb(n, rho))


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

    Depth-first walk of the pruned prefix tree, a block of _SLICE // n
    prefixes at a time. A block pairs each prefix, copied by np.repeat, with
    every later column j that leaves room for the rest of the subset, and
    reduces the pairs in one call; the pairs whose word stays nonzero are
    the block's survivors, walked to the end before the next block, and the
    last level only counts them. So a part holds at most rho blocks.
    """
    block = max(1, _SLICE // n)

    def walk(basis: np.ndarray, last: np.ndarray) -> int:
        level, hits = basis.shape[0], 0
        for lo in range(0, last.size, block):
            k = n - (rho - level) - last[lo : lo + block]  # j = last+1 .. n-(rho-level)
            pb = np.repeat(basis[:, lo : lo + block], k, axis=1)
            j = np.repeat(last[lo : lo + block] + 1 - np.cumsum(k) + k, k)
            j += np.arange(j.size)
            x = reduce_words(cols[j], pb)
            keep = x != 0
            if level + 1 == rho:
                hits += int(np.count_nonzero(keep))
            else:  # the survivors replace the pairs, which are freed before going down
                pb, j = np.vstack([pb[:, keep], x[keep]]), j[keep]
                hits += walk(pb, j)
        return hits

    last = j0 + np.flatnonzero(cols[j0 : j0 + 1])  # no prefix if column j0 is zero
    return walk(cols[None, last], last) if rho > 1 else last.size


def _gaussian_binomial(m: int, k: int) -> int:
    """[m choose k]_2: the number of k-dimensional subspaces of GF(2)^m
    (0 when k < 0 or k > m)."""
    if not 0 <= k <= m:
        return 0
    num = den = 1
    for i in range(k):
        num *= (1 << (m - i)) - 1
        den *= (1 << (i + 1)) - 1
    return num // den


def _mobius_weight(rank: int, rho: int, i: int) -> int:
    """The Moebius weight of a subspace U of dimension i: the sum of mu(U, V)
    over the V of dimension rho above U. mu(U, V) = (-1)^k 2^C(k,2) with
    k = rho - i, the same for each of the [rank-i choose rho-i]_2 such V."""
    return (-1) ** (rho - i) * 2 ** math.comb(rho - i, 2) * _gaussian_binomial(rank - i, rho - i)


def _mobius_sum(lifted: Counter, rank: int, rho: int) -> int:
    """S_rho from lifted[i, x], the i-dimensional subspaces U of GF(2)^rank
    holding x columns: a rho-set is independent iff it spans a rho-space, and
    C(x, rho) counts the rho-sets in U. The one lattice step that reads rho."""
    mu = [_mobius_weight(rank, rho, i) for i in range(rho + 1)]
    return sum(a * math.comb(x, rho) * mu[i] for (i, x), a in lifted.items() if i <= rho)


def _lattice_term(cnt: np.ndarray, pivots: tuple) -> np.ndarray:
    """hist[c]: the subspaces W of the base space GF(2)^s with these echelon
    pivots that hold c base columns, cnt[v] the base columns equal to word v.

    Basis vector i is a word of tables[i]: those with lowest bit pivots[i]
    and no bit at another pivot, in increasing order. A counter's mixed-radix
    digits index the tables, one W per value, in slices of a power of two
    (at most _LATTICE_SLICE). Within a slice each digit runs over a run of
    its table, so the slice's span is XOR-filled row block by row block from
    those runs, broadcast over a grid of the digits; x sums cnt over the span
    in cnt's dtype, which holds it as no x exceeds the base's columns.
    """
    words = np.arange(cnt.size, dtype=np.min_scalar_type(cnt.size - 1))
    free = words[words & sum(1 << p for p in pivots) == 0]
    tables = [free[:: 1 << (p - i)] | words[1 << p] for i, p in enumerate(pivots)]
    offs = list(accumulate([0] + [t.size.bit_length() - 1 for t in tables]))
    step = 1 << min(offs[-1], _LATTICE_SLICE.bit_length() - 1)
    grid = [min(t.size, max(1, step >> o)) for t, o in zip(tables, offs)]
    span = np.zeros([1 << len(pivots)] + grid[::-1], dtype=words.dtype)
    hist = np.zeros(int(cnt.sum()) + 1, dtype=np.int64)
    for lo in range(0, 1 << offs[-1], step):
        for i, (t, o, n) in enumerate(zip(tables, offs, grid)):
            d = (lo >> o) & (t.size - 1)
            np.bitwise_xor(span[: 1 << i], t[d : d + n].reshape([n] + [1] * i), out=span[1 << i : 2 << i])
        x = np.take(cnt, span).sum(axis=0, dtype=cnt.dtype)
        hist += np.bincount(x.ravel(), minlength=hist.size)
    return hist


def _summed(counter: Callable, parts, threads: int | None, progress: Progress):
    """Sum of counter's ints or int64 arrays (which hold any count a walk could
    finish) over parts on thread_map's workers, exact and so the same for any
    thread count; progress(done, total) fires once per part, and needs len(parts)."""
    out = 0
    with thread_map(counter, parts, threads) as counts:
        for done, count in enumerate(counts, 1):
            out += count
            if progress is not None:
                progress(done, len(parts))
    return out


def _count_by_enumeration(h: BitMatrix, rho: int, threads: int | None, progress: Progress) -> int:
    """S_rho for 1 <= rho by the pruned prefix-tree walk, one part per first column."""
    counter = partial(_count_independent_below, _column_words(h), h.cols, rho)
    return _summed(counter, range(h.cols - rho + 1), threads, progress)


def _lift(hist: np.ndarray, m: int) -> Counter:
    """lifted[i, x]: the i-dimensional U in GF(2)^m x GF(2)^s holding x of
    the columns GF(2)^m x the base's, from hist[w][c] on the base. U projects
    onto some W, meets GF(2)^m x 0 in some K of dimension k, has dimension
    w + k and holds 2^k c columns; [m choose k]_2 * 2^(w(m-k)) U share a W and k."""
    lifted: Counter = Counter()
    for w, c in np.argwhere(hist).tolist():
        for k in range(m + 1):
            lifted[w + k, c << k] += _gaussian_binomial(m, k) * 2 ** (w * (m - k)) * int(hist[w, c])
    return lifted


def _support_weights(words: np.ndarray, s: int, dims: range, threads: int | None, progress: Progress) -> np.ndarray:
    """hist[w][c]: the w-dimensional subspaces W of GF(2)^s that hold c of
    the base's column words, for w in dims (other rows 0), one part per
    echelon pivot set. W's annihilator is an (s-w)-dimensional subcode of the
    base's dual, zero on just those columns: hist is the dual's support weight
    distribution, hist[s-1][c] = B_{n-c} for c < n, and hist[s][n] = 1."""
    cnt = np.bincount(words.astype(np.intp), minlength=1 << s).astype(np.min_scalar_type(words.size))
    level = np.eye(dims[-1] + 1, dtype=np.int64)  # a part's histogram goes to row w
    parts = [p for w in dims for p in combinations(range(s), w)]
    return _summed(lambda p: np.outer(level[len(p)], _lattice_term(cnt, p)), parts, threads, progress)


def _count_on_lattice(base: BitMatrix, m: int, rho: int, threads: int | None, progress: Progress) -> int:
    """S_rho by Moebius inversion on the subspace lattice of GF(2)^rank(H),
    for the H that peel reads as m doublings of base: the base's support
    weights, up to dimension rho, lifted through the m doublings, then
    weighed by _mobius_sum."""
    words = _column_words(base)
    s = int(words.max()).bit_length()  # the words span GF(2)^s: one elimination
    hist = _support_weights(words, s, range(min(rho, s) + 1), threads, progress)
    return _mobius_sum(_lift(hist, m), s + m, rho)


def s_rho_exact(
    code: Code,
    rho: int,
    *,
    budget: int = 10**10,
    threads: int | None = None,
    progress: Progress = None,
) -> int:
    """Exact number of correctable weight-rho erasure patterns.

    Two exact routes give the same integer, and the one with less to visit
    runs: Moebius inversion on the subspace lattice when GF(2)^s, the space
    of the base left once peel takes the doublings off H, has no more
    subspaces of dimension <= rho than there are rho-subsets of columns,
    else the pruned enumeration of rho-subsets. Each route splits its work
    into parts (the base's echelon pivot sets, or the first column index)
    whose counts are summed as integers, so the result is identical for
    any thread count; progress(done, total) fires once per part. A route
    with fewer than _THREADED_UNITS units to visit runs on the calling
    thread whatever threads says: its parts are short, and each numpy call
    drops and retakes the interpreter lock, so a second worker only makes
    the first wait. threads is still checked first. The budget is read in
    the units of the route that runs, base subspaces or rho-subsets, so a
    refusal means that route would really visit that many; a rho above
    rank(H) counts 0 before the budget is read.
    """
    h = code.H
    n = h.cols
    if not 0 <= rho <= n:
        raise PreconditionError(f"rho={rho} outside 0..{n}")
    if rho == 0:
        return 1
    rank = h.rank()
    if rho > rank:
        return 0  # a subset's rank is capped by rank(H), whatever the budget
    total = math.comb(n, rho)
    # the peeled lattice walks the subspaces of the base's GF(2)^s, and
    # rank(H) = m + s. It also needs a table of 2^s column counts; the rule
    # keeps 2^s below C(n, rho), as the j = 0 and 1 terms alone sum to 2^s
    base, m = peel(h)
    s = rank - m
    subspaces = sum(_gaussian_binomial(s, j) for j in range(min(rho, s) + 1))
    if subspaces <= total:
        route, units, work = partial(_count_on_lattice, base, m), subspaces, f"{subspaces} subspaces of GF(2)^{s}"
    else:
        route, units, work = partial(_count_by_enumeration, h), total, f"C({n},{rho}) = {total} subsets"
    if units > budget:
        raise BudgetError(f"exact count would visit {work}, over budget {budget}")
    workers = thread_count(threads)
    return route(rho, workers if units >= _THREADED_UNITS else 1, progress)


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


def _count_hits(cols: np.ndarray, idx: np.ndarray) -> int:
    """Columns of idx (rho, m) with independent words, gathered one intp row at a time."""
    vals = np.empty(idx.shape, dtype=cols.dtype)
    for t in range(idx.shape[0]):
        np.take(cols, idx[t], out=vals[t])
    return int(np.count_nonzero(independent_words(vals)))


def _sample_chunk(cols: np.ndarray, n: int, rho: int, master_seed: int, job: tuple[int, int]) -> int:
    """Hits among one chunk's size rho-subsets, drawn and counted in
    batches of at most _HIT_BATCH rows. A row that repeats an index is
    redrawn; the kernel finds it dependent all the same. For n <= 2^32 the
    uint32 draw gives the int64 draw's rows (one 32-bit method, one
    stream), and no batch asks for more rows than are missing, so every
    batch size reads the same rows up to the same last one."""
    index, size = job
    rng = derive_stream(master_seed, DOMAIN_ERASURE_SAMPLING, index)
    hits = got = 0
    while got < size:
        idx = rng.integers(0, n, size=(min(size - got, _HIT_BATCH), rho), dtype=np.uint32)
        idx = np.ascontiguousarray(idx.T, dtype=np.min_scalar_type(n - 1))
        repeated = np.zeros(idx.shape[1], dtype=bool)
        for i, j in combinations(range(rho), 2):
            repeated |= idx[i] == idx[j]
        got += idx.shape[1] - int(np.count_nonzero(repeated))
        hits += _count_hits(cols, idx)
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

    Subsets are drawn by rejection (rows of rho indices, a row that repeats
    an index redrawn), in fixed-size chunks with one derived stream each, so
    the estimate is reproducible for a given master seed at any thread count.
    """
    n = code.H.cols
    if not 0 <= rho <= n:
        raise PreconditionError(f"rho={rho} outside 0..{n}")
    if samples < 1:
        raise PreconditionError("need at least one sample")
    # (index, size) of each chunk, made as the workers take them
    jobs = enumerate(min(_SAMPLE_CHUNK, samples - lo) for lo in range(0, samples, _SAMPLE_CHUNK))
    hits = _summed(partial(_sample_chunk, _column_words(code.H), n, rho, master_seed), jobs, threads, None)
    return SampleEstimate(n=n, rho=rho, samples=samples, hits=hits, master_seed=master_seed)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ErasureReport:
    """Erasure statistics of one (code, rho): counts only, each floor read from its count.

    psi, psi_tilde and psi_tilde_2 (psi_tilde at depth 2) are the signed
    formula values while rho <= rank(H); delta_lower, delta_tilde and
    delta_tilde_2 floor them over total at 0, and delta_exact is S / total.
    Above rank(H) no rho columns are independent, and the report sets all
    three to 0: there they are placeholders, not the formula, which psi()
    and psi_tilde() still return and which goes negative (eh6 at rho=7: psi
    is -1,418,560).
    """

    n: int
    rho: int
    total: int
    psi: int
    psi_tilde: int
    psi_tilde_2: int
    method: str  # exact | sampled | psi-bound | recursive
    s_rho_exact: int | None = None
    sample: SampleEstimate | None = None
    entropy_bound: float | None = None
    weak_bound: float | None = None

    def __post_init__(self) -> None:
        # so every floor lies in [0, 1]; psi may be negative at large rho,
        # where the closed form stops carrying probability information, but
        # must still never exceed the true count
        for name in ("psi", "psi_tilde", "psi_tilde_2"):
            if getattr(self, name) > self.total:
                raise ConsistencyError(f"{name}={getattr(self, name)} exceeds total={self.total}")
        if self.s_rho_exact is not None and not max(self.psi, 0) <= self.s_rho_exact <= self.total:
            raise ConsistencyError(
                f"bound ordering violated: psi={self.psi}, S={self.s_rho_exact}, total={self.total}"
            )

    @property
    def delta_lower(self) -> Fraction:
        return _floor(self.psi, self.total)

    @property
    def delta_tilde(self) -> Fraction:
        return _floor(self.psi_tilde, self.total)

    @property
    def delta_tilde_2(self) -> Fraction:
        return _floor(self.psi_tilde_2, self.total)

    @property
    def delta_exact(self) -> Fraction | None:
        return None if self.s_rho_exact is None else Fraction(self.s_rho_exact, self.total)

    @property
    def s_exact_or_estimate(self) -> Fraction | None:
        if self.s_rho_exact is not None:
            return Fraction(self.s_rho_exact)
        if self.sample is not None:
            return self.sample.estimate * self.total
        return None

    @property
    def delta_exact_or_estimate(self) -> Fraction | None:
        if self.s_rho_exact is None and self.sample is not None:
            return self.sample.estimate
        return self.delta_exact

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
    if recursion_depth is not None and recursion_depth < 1:
        raise PreconditionError("depth must be >= 1")
    if not 0 <= master_seed < 1 << 64:
        raise PreconditionError("master seed must fit in 64 bits")
    total = math.comb(n, rho)
    chosen = method
    if method == "auto":
        chosen = "exact" if total <= exact_limit else "sampled"
    if chosen not in ("exact", "sampled", "psi-bound", "recursive"):
        raise PreconditionError(f"unknown method {chosen!r}")
    if method in ("auto", "sampled") and samples < 1:
        raise PreconditionError("need at least one sample")
    rank = code.H.rank()
    if rho > rank:
        # no rho columns can be independent; the closed-form bound is vacuous here
        return ErasureReport(
            n=n, rho=rho, total=total, psi=0, psi_tilde=0, psi_tilde_2=0, method="exact", s_rho_exact=0
        )
    prov = trailing_shortening_provider(code) if provider is None else provider
    raw_psi = psi(n, d, rho, prov(n))
    raw_tilde = psi_tilde(n, d, rho, prov, depth=recursion_depth)
    raw_tilde_2 = psi_tilde(n, d, rho, prov, depth=2)
    s_exact: int | None = None
    sample: SampleEstimate | None = None
    if chosen == "exact":
        s_exact = s_rho_exact(code, rho)
        if is_exact_regime(d, rho) and s_exact != raw_psi:
            raise ConsistencyError(f"S={s_exact} differs from psi={raw_psi}, exact at d={d}, rho={rho}")
    elif chosen == "sampled":
        sample = s_rho_sampled(code, rho, samples, master_seed)
    bounds = delta_entropy_bound(d, rho, z) if z is not None and d <= rho else None
    return ErasureReport(
        n=n,
        rho=rho,
        total=total,
        psi=raw_psi,
        psi_tilde=raw_tilde,
        psi_tilde_2=raw_tilde_2,
        method=chosen,
        s_rho_exact=s_exact,
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


def table1(
    codes: list[tuple[str, Code]],
    rhos: tuple[int, ...] = (4, 5, 6, 7),
    *,
    exact_limit: int = 10**9,
    samples: int = 10**8,
    master_seed: int = 1,
) -> list[tuple[str, Code, ErasureReport]]:
    """The benchmark delta grid: exact counts where affordable, sampling above.

    codes are (label, code) pairs; one (label, code, report) per code and
    rho, in the order they run.
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
            cells.append((label, code, rep))
    return cells
