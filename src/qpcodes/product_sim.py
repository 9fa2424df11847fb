"""Product-code memory simulation: two [72,64,4] component codes, an iid
bit-flip channel, and a single-pass row/column erasure-list decoder.

The decoder never guesses error values. It flags rows and columns by
syndrome, treats the smaller flagged set as an erasure pattern if that
pattern is short enough (<= d_plus) and independent, refills the erased
positions of every line from one syndrome table, then rechecks everything.
A trial therefore ends in exactly one of three states: success, detected
failure (decoder knows it lost), or miscorrection (clean syndromes, wrong
array; visible only against the transmitted ground truth).

Each component H is kept once, as its column words (bit i = row i); a
line's syndrome is the XOR of the words of the positions it holds, in
decode and encode as in the batch classifier.

Decoding is translation invariant, so the Monte Carlo run simulates the
zero array and classifies outcomes from the error pattern alone; the unit
tests check the invariance against encoded random payloads. The channel
draws the gaps between flipped bits rather than one uniform per bit: each
uniform u of a trial's stream inverts to a geometric gap
floor(log1p(-u) / log1p(-p)) + 1, so a trial of 5,184 bits reads about
5,184 p + 1 uniforms, and the uniforms of a whole chunk of trials, and of
its few trials drawn again in full, come from one array computation each
(rng.stream_uniforms), not a Python call per trial. The stratified draw
puts exactly k errors in each trial of stratum k, where numpy's
choice(bits, k, replace=False) would put them; it runs choice's own Floyd
algorithm on the raw words of a whole run of trials' streams
(rng.stream_words), one array step for all trials at a time. A chunk of
trials is kept as the (trial, position) pairs of its errors, and is
classified in one batch pass over the row and column syndromes those
positions make. Only the routed trials with a silent line, the only ones
that can end in a miscorrection, are laid out as arrays and run through
decode. One run loop and one estimator serve both strategies: plain is the
stratified estimator on a single stratum of weight 1. The workers draw
plain chunks, whose whole-array draw scales with them; the calling thread
draws the stratified runs, whose Floyd steps are many small array calls
that would only take turns on the interpreter lock, and the workers
classify them. The estimate is kept as its exact, unreduced numerator and
denominator, and reduced to a Fraction only when read.

A trial's stream is keyed by the seed and its index alone, never by
d_plus, so the cells of one p in a Table 2 grid see the same trials.
failure_probabilities takes all of them at once: each job draws its trials
and builds their row and column syndromes once, then classifies them under
every d_plus.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from typing import Callable

import numpy as np

from .construct import Code, panchenko, shorten
from .errors import PreconditionError
from .gf2 import gf2_echelon, independent_words
from .rng import (
    DOMAIN_SIM_STRATA, DOMAIN_SIM_TRIALS, derive_stream, stream_uniforms, stream_words, thread_map,
)

__all__ = [
    "DecodeOutcome",
    "ProductCode",
    "SimConfig",
    "SimResult",
    "TABLE2_REFERENCE",
    "channel",
    "decode",
    "default_product_code",
    "encode",
    "failure_probabilities",
    "failure_probability",
]

# reference values for the failure-probability benchmark grid, keyed by
# (p, d_plus); the sub-1e-9 entries cannot come from the documented channel
# and decoder (plain Monte Carlo at those p values measures failure rates
# many orders of magnitude higher), so they are qualitative targets whose
# deviation is reported, never asserted
TABLE2_REFERENCE: dict[tuple[float, int], str] = {
    (1e-1, 3): "1", (1e-2, 3): "0.996", (5e-3, 3): "0.250", (1e-3, 3): "1.1e-09", (5e-4, 3): "2.3e-14",
    (1e-1, 4): "1", (1e-2, 4): "0.988", (5e-3, 4): "0.092", (1e-3, 4): "1.6e-12", (5e-4, 4): "5.1e-18",
    (1e-1, 5): "1", (1e-2, 5): "0.967", (5e-3, 5): "0.027", (1e-3, 5): "7.0e-14", (5e-4, 5): "1.045e-18",
    (1e-1, 6): "1", (1e-2, 6): "0.926", (5e-3, 6): "0.008", (1e-3, 6): "5.8e-14", (5e-4, 6): "1.029e-18",
}

_SUCCESS, _DETECTED, _MISCORRECTION = 0, 1, 2
# trials that one job draws and classifies in one batch: a plain chunk, whose
# Philox pass is a few hundred array operations whatever its size, or a run
# of neighbouring strata, whose Floyd loop takes one step, about 26 array
# calls, per error of its largest stratum (109 steps at p = 1e-2)
_CHUNK_TRIALS = 1024
# a plain chunk buffers at most about this many uniforms, however high p is
_CHUNK_UNIFORMS = 1 << 17
# Generator.choice(n, k, replace=False) runs Floyd's algorithm when n is at
# most this, or k <= n // 50; otherwise it shuffles the tail of arange(n)
_FLOYD_POPULATION = 10_000
# strata with P(K=k) below this are dropped; their mass is the tail bound
_EPS_TAIL = 1e-12
# an erasure table has one entry per packed syndrome, 2^rows in all
_MAX_ROWS = 16


def _parity_positions(cols: list[int]) -> tuple[list[int], list[int]]:
    """(parity, info) positions of a systematic encoder.

    Parity is the first column basis met scanning left to right: column j
    joins iff it is outside the span of the columns before it, which is the
    pivot set of the reduced echelon form of H.
    """
    parity = gf2_echelon(cols)
    return list(parity), [j for j in range(len(cols)) if j not in parity]


def _syndromes(lines: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Packed syndrome of every 0/1 line along the last axis: the XOR of
    the column words (bit i = H row i) of the positions the line holds."""
    return np.bitwise_xor.reduce(lines * words, axis=-1)


def _erasure_table(words: np.ndarray, erased: list[int]) -> np.ndarray | None:
    """Index of the filling that produces each packed syndrome, -1 if none.

    Filling f puts bit t of f at position erased[t]. Two fillings share a
    syndrome exactly when the erased column words of H are dependent; then
    there is no unique refill and the result is None. Every word is below
    2^rows, rows the largest word's bit length, so more erased columns than
    rows are dependent without looking.
    """
    rows = int(words.max(initial=0)).bit_length()
    if len(erased) > rows:
        return None
    fillings = np.arange(1 << len(erased))
    syn = _syndromes(fillings[:, None] >> np.arange(len(erased)) & 1, words[erased])
    table = np.full(1 << rows, -1)
    table[syn] = fillings
    return table if np.array_equal(table[syn], fillings) else None


class ProductCode:
    """Rectangular array code: every row in row_code, every column in col_code."""

    def __init__(self, row_code: Code, col_code: Code) -> None:
        for code in (row_code, col_code):
            if code.H.nrows > _MAX_ROWS:
                raise PreconditionError(
                    f"component H has {code.H.nrows} rows; the decoder's erasure "
                    f"table is built for at most {_MAX_ROWS}"
                )
        self.row_code = row_code
        self.col_code = col_code
        self.n_row = row_code.spec.n  # array width
        self.n_col = col_code.spec.n  # array height
        self.k_row = row_code.dimension()
        self.k_col = col_code.dimension()
        self.row_cols = row_code.H.column_ints()
        self.col_cols = col_code.H.column_ints()
        # H as its column words; at most _MAX_ROWS = 16 rows fit uint16
        self.row_words = np.asarray(self.row_cols, dtype=np.uint16)
        self.col_words = np.asarray(self.col_cols, dtype=np.uint16)
        self.parity_row, self.info_row = _parity_positions(self.row_cols)
        self.parity_col, self.info_col = _parity_positions(self.col_cols)

    @property
    def bits(self) -> int:
        return self.n_row * self.n_col


def default_product_code() -> ProductCode:
    base = panchenko(8)
    comp = shorten(base, list(range(72, 80)))
    return ProductCode(comp, comp)


@dataclass(frozen=True)
class SimConfig:
    p: float
    d_plus: int
    trials: int
    master_seed: int
    strategy: str = "plain"  # plain | stratified

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise PreconditionError("p must be in [0, 1]")
        if self.d_plus < 3:
            raise PreconditionError("d_plus below d-1 = 3 is outside the studied range")
        if self.trials < 1:
            raise PreconditionError("need at least one trial")
        if self.strategy not in ("plain", "stratified"):
            raise PreconditionError(f"unknown strategy {self.strategy!r}")
        if not 0 <= self.master_seed < 1 << 64:
            raise PreconditionError("master seed must fit in 64 bits")


@dataclass(frozen=True)
class DecodeOutcome:
    outcome: str  # success | detected_failure | miscorrection
    corrected_via: str  # rows | columns | none
    erasure_weight: int


def _fill_lines(
    lines: np.ndarray, words: np.ndarray, erased: list[int], table: np.ndarray
) -> np.ndarray:
    """Erase the listed positions in every line and refill them from the
    table; lines that no filling fits are left zero-filled for the recheck."""
    filled = lines.copy()
    filled[:, erased] = 0
    f = np.maximum(table[_syndromes(filled, words)], 0)
    filled[:, erased] = f[:, None] >> np.arange(len(erased)) & 1
    return filled


def _is_codeword(pc: ProductCode, arr: np.ndarray) -> bool:
    return not (_syndromes(arr, pc.row_words).any() or _syndromes(arr.T, pc.col_words).any())


def encode(pc: ProductCode, payload: np.ndarray) -> np.ndarray:
    """Systematic product encoding: payload at the info positions, then every
    row and every column refills its parity positions."""
    payload = np.asarray(payload, dtype=np.uint8)
    if payload.shape != (pc.k_col, pc.k_row):
        raise PreconditionError(f"payload must be {pc.k_col}x{pc.k_row}")
    arr = np.zeros((pc.n_col, pc.n_row), dtype=np.uint8)
    arr[np.ix_(pc.info_col, pc.info_row)] = payload
    arr = _fill_lines(arr, pc.row_words, pc.parity_row, _erasure_table(pc.row_words, pc.parity_row))
    arr = _fill_lines(arr.T, pc.col_words, pc.parity_col, _erasure_table(pc.col_words, pc.parity_col)).T
    if not _is_codeword(pc, arr):
        raise PreconditionError("systematic encoding produced an invalid array")
    return arr


def _uniforms_per_trial(bits: int, p: float) -> int:
    """How many uniforms a trial buffers for its gaps: the mean flip count
    mu = bits * p, eight times its square root and 16 more, but never more
    than bits, which always reach past the last bit."""
    mu = bits * p
    return min(bits, math.ceil(mu + 8 * math.sqrt(mu)) + 16)


def _gap_ends(u: np.ndarray, bits: int, p: float) -> np.ndarray:
    """Each row of uniforms, in place, as the running sums of the gaps
    g = floor(log1p(-u) / log1p(-p)) + 1 they invert to; a running sum s
    flips position s - 1. A gap is cut at bits + 1, which moves no flip
    below bits and keeps every sum an exact small integer."""
    np.negative(u, out=u)
    np.log1p(u, out=u)
    # for p near the smallest float the quotient can overflow to inf, which the cut absorbs
    with np.errstate(over="ignore"):
        np.divide(u, math.log1p(-p), out=u)
    np.minimum(u, bits, out=u)
    np.floor(u, out=u)
    u += 1
    return np.cumsum(u, axis=1, out=u)


def _flip_positions(
    draw: Callable[[int, np.ndarray], np.ndarray], size: int, bits: int, p: float
) -> tuple[np.ndarray, np.ndarray]:
    """(trial, position) of every flip when each of the bits bits of size
    trials flips independently with probability p, 0 < p <= 1.

    draw(m, rows) returns the first m uniforms of the stream of each trial
    in rows (indices below size) as a (len(rows), m) array, which is then
    overwritten. A trial reads its
    uniforms u_1, u_2, ... in order and inverts each to the gap
    g_i = floor(log1p(-u_i) / log1p(-p)) + 1 to its next flip (Devroye,
    Non-Uniform Random Variate Generation, 1986, ch. X.2): it flips
    positions g_1 - 1, g_1 + g_2 - 1, ... below bits, which takes about
    bits * p + 1 uniforms rather than bits. The positions depend on the
    uniforms alone, not on how many are buffered: a trial whose buffered
    gaps end before bits is drawn again, bits uniforms from the start of
    its stream.
    """
    narrow = np.min_scalar_type(bits - 1)
    if p == 1.0:
        # log1p(-1) is -inf: every gap is 1
        return np.repeat(np.arange(size), bits), np.tile(np.arange(bits, dtype=narrow), size)
    ends = _gap_ends(draw(_uniforms_per_trial(bits, p), np.arange(size)), bits, p)
    short = np.flatnonzero(ends[:, -1] < bits)
    flipped = ends <= bits
    flipped[short] = False
    trial, i = np.nonzero(flipped)
    pos = ends[trial, i]
    if short.size:
        full = _gap_ends(draw(bits, short), bits, p)
        again, i = np.nonzero(full <= bits)
        trial = np.concatenate([trial, short[again]])
        pos = np.concatenate([pos, full[again, i]])
    pos -= 1
    return trial, pos.astype(narrow)


def channel(arr: np.ndarray, p: float, rng: np.random.Generator) -> np.ndarray:
    """Flip each bit independently with probability p.

    The bits are taken in C order. rng's uniforms are read in order, each
    inverted to the geometric gap floor(log1p(-u) / log1p(-p)) + 1 before
    the next flipped bit, so about arr.size * p + 1 of them are drawn. This
    is the plain simulator's channel (_flip_positions): given a trial's
    stream, channel flips the bits that trial flips. Each draw starts from
    rng's state at the call, so a draw that falls short is made again from
    the same uniforms.
    """
    if not 0.0 <= p <= 1.0:
        raise PreconditionError("p must be in [0, 1]")
    if p == 0.0 or arr.size == 0:
        return arr.copy()
    state = rng.bit_generator.state

    def draw(m: int, rows: np.ndarray) -> np.ndarray:
        rng.bit_generator.state = state
        return rng.random((len(rows), m))

    _, pos = _flip_positions(draw, 1, arr.size, p)
    flips = np.zeros(arr.size, dtype=np.uint8)
    flips[pos] = 1
    return arr ^ flips.reshape(arr.shape)


def decode(
    pc: ProductCode,
    received: np.ndarray,
    d_plus: int,
    transmitted: np.ndarray | None = None,
) -> DecodeOutcome:
    """One pass of detect, pick an erasure pattern, refill, recheck.

    Columns are preferred when both flagged sets qualify. Without the
    transmitted array, a clean recheck is reported as success; with it,
    clean-but-wrong becomes miscorrection.
    """
    received = np.asarray(received, dtype=np.uint8)
    if received.shape != (pc.n_col, pc.n_row):
        raise PreconditionError(f"received array must be {pc.n_col}x{pc.n_row}")
    if d_plus < 1:
        raise PreconditionError("d_plus must be >= 1")

    r_star = np.flatnonzero(_syndromes(received, pc.row_words)).tolist()
    c_star = np.flatnonzero(_syndromes(received.T, pc.col_words)).tolist()

    def table(star: list[int], words: np.ndarray) -> np.ndarray | None:
        return _erasure_table(words, star) if len(star) <= d_plus else None

    filled = received
    via = "none"
    weight = 0
    if (col_table := table(c_star, pc.row_words)) is not None:
        if c_star:
            filled = _fill_lines(received, pc.row_words, c_star, col_table)
            via, weight = "columns", len(c_star)
    elif (row_table := table(r_star, pc.col_words)) is not None:
        if r_star:
            filled = _fill_lines(received.T, pc.col_words, r_star, row_table).T
            via, weight = "rows", len(r_star)
    else:
        return DecodeOutcome("detected_failure", "none", min(len(c_star), len(r_star)))

    if not _is_codeword(pc, filled):
        return DecodeOutcome("detected_failure", via, weight)
    if transmitted is not None and not np.array_equal(filled, np.asarray(transmitted, dtype=np.uint8)):
        return DecodeOutcome("miscorrection", via, weight)
    return DecodeOutcome("success", via, weight)


# ---------------------------------------------------------------------------
# Monte Carlo drivers
# ---------------------------------------------------------------------------


def _erasable(flags: np.ndarray, words: np.ndarray, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """(count, ok) per trial: how many lines are flagged (True in its row
    of flags), and whether they are at most cap in number and independent
    as columns of H, whose column words (unsigned) are words. No flagged
    line at all is an empty, independent set. A smaller cap c reads
    ok & (count <= c)."""
    counts = np.count_nonzero(flags, axis=1)
    ok = counts == 0
    few = np.flatnonzero((counts > 0) & (counts <= cap))
    # the flagged lines of the trials of few, one trial after another, each
    # in increasing order, and where each trial's lines start
    _, lines = np.nonzero(flags[few])
    sizes = counts[few]
    starts = np.cumsum(sizes) - sizes
    for c in range(1, cap + 1):
        sel = sizes == c
        if sel.any():
            ok[few[sel]] = independent_words(words[lines[starts[sel, None] + np.arange(c)].T])
    return counts, ok


def _line_states(
    trial: np.ndarray, line: np.ndarray, words: np.ndarray, size: int, lines: int
) -> tuple[np.ndarray, np.ndarray]:
    """(flagged, hit), each (size, lines): error i lies on line line[i] of
    trial trial[i], where its parity-check column is words[i]. A line's
    syndrome is the XOR of its errors' words; it is flagged when that is
    nonzero and hit when it holds an error at all."""
    index = trial * lines + line
    syn = np.zeros(size * lines, dtype=words.dtype)
    np.bitwise_xor.at(syn, index, words)
    hit = np.bincount(index, minlength=size * lines) > 0
    return (syn != 0).reshape(size, lines), hit.reshape(size, lines)


def _classify_batch(
    pc: ProductCode, size: int, trial: np.ndarray, pos: np.ndarray, d_plus: tuple[int, ...]
) -> np.ndarray:
    """Outcome codes for size trials of errors laid over the zero array,
    one row per cap of d_plus.

    The errors are given by their positions: error i sits in trial[i] at
    flat position pos[i] (row * n_row + column) of that trial's array, and
    no pair repeats. Every trial is classified in one batch pass from the
    syndromes of its rows and columns, each the XOR of the parity-check
    columns its errors hit. A line is flagged when its syndrome is nonzero
    and silent when it holds errors under a zero syndrome. As in decode,
    the column route applies when at most min(d_plus, rows of H_row)
    columns are flagged and they are independent in H_row; failing that,
    the row route is tried the same way with rows and H_col, and a trial
    with neither route is a detected failure. When no line on its route is
    silent, every error of a routed trial lies in the erased lines, whose
    refill is unique: a success. Only routed trials with a silent line,
    the one way to a miscorrection, are laid out as arrays and run the
    full per-trial decode. The syndromes, and the independence of each
    flagged set up to the largest cap, are found once for every cap.
    """
    row, col = np.divmod(pos, pc.n_row)
    row_flag, row_hit = _line_states(trial, row, pc.row_words[col], size, pc.n_col)
    col_flag, col_hit = _line_states(trial, col, pc.col_words[row], size, pc.n_row)
    top = max(d_plus)
    col_count, col_ok = _erasable(col_flag, pc.row_words, min(top, pc.row_code.H.nrows))
    row_count, row_ok = _erasable(row_flag, pc.col_words, min(top, pc.col_code.H.nrows))
    col_silent = (col_hit & ~col_flag).any(axis=1)
    row_silent = (row_hit & ~row_flag).any(axis=1)
    out = np.full((len(d_plus), size), _DETECTED, dtype=np.int8)
    zero = np.zeros((pc.n_col, pc.n_row), dtype=np.uint8)
    for codes, dp in zip(out, d_plus):
        by_cols = col_ok & (col_count <= dp)
        routed = by_cols | (row_ok & (row_count <= dp))
        silent = np.where(by_cols, col_silent, row_silent)
        codes[routed & ~silent] = _SUCCESS
        for t in np.flatnonzero(routed & silent):
            errors = np.zeros(pc.bits, dtype=np.uint8)
            errors[pos[trial == t]] = 1
            res = decode(pc, errors.reshape(pc.n_col, pc.n_row), dp, transmitted=zero)
            codes[t] = {"success": _SUCCESS, "detected_failure": _DETECTED, "miscorrection": _MISCORRECTION}[res.outcome]
    return out


def _chunk_plan(trials: int, bits: int, p: float) -> list[tuple[int, int]]:
    """(start, size) of each plain chunk: _CHUNK_TRIALS trials, or fewer
    when p is so high that their uniforms would pass _CHUNK_UNIFORMS."""
    size = min(_CHUNK_TRIALS, max(1, _CHUNK_UNIFORMS // _uniforms_per_trial(bits, p)))
    return [(start, min(size, trials - start)) for start in range(0, trials, size)]


@dataclass(frozen=True, repr=False)
class SimResult:
    """The estimate is exact. It is kept as the integer pair it is built
    from, exact = (numerator, denominator), and estimate reduces that pair
    to lowest terms once, on first read: a stratified denominator runs to
    tens of thousands of bits, and its gcd can cost more than the run's
    draws. estimate_float, repr and JSON show it as a float, taken from the
    pair; int true division is correctly rounded, as float(Fraction) is, so
    that float is the reduced fraction's."""

    p: float
    d_plus: int
    trials: int
    failures: int
    miscorrections: int
    exact: tuple[int, int]
    ci95: float
    strategy: str
    master_seed: int
    tail_bound: float | None = None

    @cached_property
    def estimate(self) -> Fraction:
        return Fraction(*self.exact)

    @property
    def estimate_float(self) -> float:
        numerator, denominator = self.exact
        return numerator / denominator

    def to_json(self) -> dict:
        # the float takes the pair's place, so the keys keep the fields' order
        return dict(
            ("estimate", self.estimate_float) if k == "exact" else (k, v) for k, v in asdict(self).items()
        )

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in self.to_json().items())
        return f"SimResult({fields})"


def failure_probabilities(
    pc: ProductCode,
    cfgs: list[SimConfig],
    *,
    per_stratum: int = 2000,
    k_max: int | None = None,
    threads: int | None = None,
) -> list[SimResult]:
    """Estimated probability that a trial does not end in success, one
    result per config of cfgs, in order; the configs may differ only in
    d_plus.

    plain: cfg.trials independent channel draws, one derived stream per
    trial index, so any prefix/partition of the work gives identical bits.
    A trial's stream gives the gaps between its flipped bits, each
    geometric with parameter p (see channel), not one uniform per bit.
    stratified: condition on the total error count K ~ Binomial(bits, p)
    with exact rational weights; strata with P(K=k) < _EPS_TAIL (1e-12) or
    k > k_max are dropped and their total mass is reported as tail_bound (an upper bound on the
    truncation error). per_stratum trials are spent in each kept stratum.

    Both run one estimator: a stratum of weight w with f failures in its n
    trials adds w f / n to the estimate and w^2 q (1 - q) / n, with
    q = (f + 1) / (n + 2), to its variance. Plain is the one stratum of
    weight 1 that holds all cfg.trials trials. The estimate is the exact
    pair sum_k u_k f_k over denom * n, for P(K=k) = u_k / denom; each
    result keeps that pair and reduces it only if its estimate is read.

    A trial's stream does not depend on d_plus, so every config sees the
    same trials; each job draws them and builds their syndromes once, then
    classifies them under every config's d_plus. A plain chunk is drawn on
    the worker that classifies it, a stratified run on the calling thread
    (see below); either way the counts do not depend on threads or chunking.
    """
    if not cfgs:
        return []
    cfg = cfgs[0]
    if any(replace(c, d_plus=cfg.d_plus) != cfg for c in cfgs):
        raise PreconditionError("configs simulated together may differ only in d_plus")
    d_plus = tuple(c.d_plus for c in cfgs)

    def classify(drawn: tuple[list[int], int, np.ndarray, np.ndarray]) -> tuple[list[int], np.ndarray]:
        """The strata of a drawn job, and its outcome codes."""
        run_ks, size, trial, pos = drawn
        return run_ks, _classify_batch(pc, size, trial, pos, d_plus)

    # A job is drawn where its draw runs best. A plain chunk's draw is a few
    # whole-array passes that release the interpreter lock, so each worker
    # draws its own chunk, and the draws scale with the workers: drawn on
    # the calling thread instead, `table --which 2 --trials 2000` took
    # 28-35 ms against 24 ms on 2 cores. A stratified run's draw is Floyd's
    # loop of small array calls, one step per error of its largest stratum,
    # which two workers would run taking turns on the lock; so the calling
    # thread draws each run as thread_map pulls it (at most 2 x workers
    # ahead), while the workers classify the runs before it.
    if cfg.strategy == "plain":
        weights, denom, n = {0: 1}, 1, cfg.trials
        # at p = 0 the channel is the identity: every trial is the same clean success
        jobs = [] if cfg.p == 0.0 else _chunk_plan(cfg.trials, pc.bits, cfg.p)

        def work(chunk: tuple[int, int]) -> tuple[list[int], np.ndarray]:
            start, size = chunk
            # trial t flips the row-major positions the geometric gaps of its
            # own stream give, as in channel; the streams of the whole chunk,
            # and of its short trials after them, are each drawn in one array pass
            trial, pos = _flip_positions(
                lambda m, rows: stream_uniforms(cfg.master_seed, DOMAIN_SIM_TRIALS, start + rows, m),
                size, pc.bits, cfg.p,
            )
            return classify(([0], size, trial, pos))
    else:
        if per_stratum < 1:
            raise PreconditionError("per_stratum must be >= 1")
        weights, denom = _binomial_weights(pc.bits, cfg.p, _EPS_TAIL, k_max)
        if not weights:
            raise PreconditionError(f"every stratum has P(K=k) < {_EPS_TAIL} or k > k_max; raise k_max")
        ks, n = sorted(weights), per_stratum
        run = max(1, _CHUNK_TRIALS // n)
        runs = [ks[i:i + run] for i in range(0, len(ks), run)]
        jobs = ((run_ks, len(run_ks) * n, *_stratum_errors(pc.bits, cfg.master_seed, n, run_ks)) for run_ks in runs)
        work = classify

    # per stratum, the failures under each config
    failures = {k: np.zeros(len(cfgs), dtype=np.int64) for k in weights}
    mis = np.zeros(len(cfgs), dtype=np.int64)
    # each part's codes are counted as it arrives
    with thread_map(work, jobs, threads) as parts:
        for run_ks, codes in parts:
            fails = np.count_nonzero(codes.reshape(len(cfgs), len(run_ks), -1) != _SUCCESS, axis=2)
            for k, f in zip(run_ks, fails.T):
                failures[k] += f
            mis += np.count_nonzero(codes == _MISCORRECTION, axis=1)
    results = []
    for i, c in enumerate(cfgs):
        numerator = 0  # of the estimate, over denom * n
        variance = 0.0
        for k, counts in failures.items():
            f = int(counts[i])
            numerator += weights[k] * f
            q = (f + 1) / (n + 2)
            # int / int is correctly rounded, as float(Fraction) is
            variance += (weights[k] / denom) ** 2 * q * (1.0 - q) / n
        results.append(SimResult(
            p=c.p, d_plus=c.d_plus, trials=n * len(weights),
            failures=sum(int(counts[i]) for counts in failures.values()),
            miscorrections=int(mis[i]), exact=(numerator, denom * n),
            ci95=1.96 * math.sqrt(variance), strategy=c.strategy, master_seed=c.master_seed,
            tail_bound=None if c.strategy == "plain" else (denom - sum(weights.values())) / denom,
        ))
    return results


def failure_probability(
    pc: ProductCode,
    cfg: SimConfig,
    *,
    per_stratum: int = 2000,
    k_max: int | None = None,
    threads: int | None = None,
) -> SimResult:
    """Estimated probability that a trial does not end in success: the one
    result of failure_probabilities(pc, [cfg], ...)."""
    return failure_probabilities(pc, [cfg], per_stratum=per_stratum, k_max=k_max, threads=threads)[0]


def _binomial_weights(bits: int, p: float, eps_tail: float, k_max: int | None) -> tuple[dict[int, int], int]:
    """Integer numerators u_k of every kept stratum, and their common
    denominator: P(K=k) = u_k / denominator exactly.

    For p = a/c and b = c - a, u_k = C(bits,k) a^k b^(bits-k) over c^bits,
    so the u_k of all strata sum to c^bits and the dropped tail is the
    denominator minus the kept sum. A stratum is kept when k <= k_max and
    P(K=k) >= eps_tail. u_k is unimodal in k, so the walk stops at the
    first stratum below the cut that follows a kept one.
    """
    pf = Fraction(Decimal(repr(p)))
    a, c = pf.numerator, pf.denominator
    b = c - a
    if b == 0:
        # p = 1: all the mass sits on k = bits
        return ({bits: 1} if k_max is None or k_max >= bits else {}), 1
    denom = c**bits
    eps = Fraction(eps_tail)
    cut = eps.numerator * denom
    u = b**bits
    last = bits if k_max is None else min(bits, k_max)
    kept: dict[int, int] = {}
    # every division below is exact: u becomes C(bits,k) a^k b^(bits-k)
    for k in range(last + 1):
        if k > 0:
            u = u * (bits - k + 1) * a // (k * b)
        if u * eps.denominator >= cut:
            kept[k] = u
        elif kept:
            break
    return kept, denom


def _floyd_picks(
    bits: int, errors: np.ndarray, master_seed: int, indices: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(picks, replay) for trials that choose errors[t] of bits positions,
    errors sorted ascending. Row t of picks holds, in its first errors[t]
    entries, the set that Generator.choice(bits, errors[t], replace=False)
    draws from trial t's stream, derive_stream(master_seed,
    DOMAIN_SIM_STRATA, indices[t]). replay lists the trials left for
    choice itself.

    For a population of at most _FLOYD_POPULATION, or k <= bits // 50,
    choice runs Floyd's algorithm: for s = 0, ..., k - 1 it takes
    j = bits - k + s, draws val uniform on 0..j, and picks j if val was
    picked before, else val. A draw is Lemire's: m = h * (j + 1) for the
    stream's next 32-bit half h (low half of each word first), val = m >> 32,
    redrawn when m mod 2^32 < (2^32 - 1 - j) mod (j + 1). Here every
    trial takes step s at once, on arrays. Only k = bits meets j = 0, for
    which choice reads no half; such a trial reads its halves one step
    early here, but picks every position whatever they hold. A trial that
    meets a redraw (at most (j + 1) / 2^32 per step), or one with k past
    the Floyd regime, where choice shuffles the tail of arange(bits)
    instead, is listed in replay.
    """
    cap = bits if bits <= _FLOYD_POPULATION else bits // 50
    floyd = errors[:int(np.searchsorted(errors, cap, side="right"))]
    steps = int(floyd.max(initial=0))
    words = stream_words(master_seed, DOMAIN_SIM_STRATA, indices[:floyd.size], -(-steps // 8))
    halves = words.astype("<u8", copy=False).view("<u4")
    picks = np.zeros((errors.size, errors.max(initial=0)), dtype=np.min_scalar_type(bits - 1))
    redrawn = np.zeros(floyd.size, dtype=bool)
    # bit p % 8 of byte p // 8 of row t: trial t has picked position p
    row = bits // 8 + 1
    seen = np.zeros(floyd.size * row, dtype=np.uint8)
    base = np.arange(floyd.size) * row
    # the trials from live on have k > step
    for step, live in enumerate(np.searchsorted(floyd, np.arange(steps), side="right").tolist()):
        j = bits - floyd[live:] + step
        m = halves[live:, step] * (j + 1).view(np.uint64)
        val = (m >> np.uint64(32)).view(np.int64)
        redrawn[live:] |= (m & 0xFFFFFFFF).view(np.int64) < (0xFFFFFFFF - j) % (j + 1)
        pick = np.where(seen[base[live:] + (val >> 3)] >> (val & 7) & 1, j, val)
        seen[base[live:] + (pick >> 3)] |= (1 << (pick & 7)).astype(np.uint8)
        picks[live:floyd.size, step] = pick
    return picks, np.concatenate([np.flatnonzero(redrawn), np.arange(floyd.size, errors.size)])


def _stratum_errors(
    bits: int, master_seed: int, per_stratum: int, ks: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """(trial, position) of every error of per_stratum trials in each
    stratum of ks in turn, ks ascending. Trial t of stratum k draws from
    the stream derive_stream(master_seed, DOMAIN_SIM_STRATA, k << 32 | t)
    and puts its k errors where that stream's choice(bits, k,
    replace=False) falls. The raw words of every trial's stream come from
    one array pass; only a trial that _floyd_picks replays calls choice."""
    errors = np.repeat(ks, per_stratum)
    trials = np.tile(np.arange(per_stratum, dtype=np.uint64), len(ks))
    indices = errors.astype(np.uint64) << np.uint64(32) | trials
    picks, replay = _floyd_picks(bits, errors, master_seed, indices)
    for t in replay.tolist():
        k = int(errors[t])
        picks[t, :k] = derive_stream(master_seed, DOMAIN_SIM_STRATA, int(indices[t])).choice(bits, k, replace=False)
    return np.repeat(np.arange(errors.size), errors), picks[np.arange(picks.shape[1]) < errors[:, None]]
