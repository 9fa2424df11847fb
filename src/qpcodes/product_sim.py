"""Product-code memory simulation: two [72,64,4] component codes, an iid
bit-flip channel, and a single-pass row/column erasure-list decoder.

The decoder never guesses error values. It flags rows and columns by
syndrome, treats the smaller flagged set as an erasure pattern if that
pattern is short enough (<= d_plus) and independent, refills the erased
positions of every line from one syndrome table, then rechecks everything.
A trial therefore ends in exactly one of three states: success, detected
failure (decoder knows it lost), or miscorrection (clean syndromes, wrong
array; visible only against the transmitted ground truth).

Decoding is translation invariant, so the Monte Carlo drivers simulate the
zero array and classify outcomes from the error pattern alone; the unit
tests check the invariance against encoded random payloads. Each chunk of
trials is classified in one batch pass over its row and column syndromes,
and decode runs only for the routed trials with a silent line, the only
ones that can end in a miscorrection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import partial

import numpy as np

from .construct import Code, panchenko, shorten
from .errors import PreconditionError
from .gf2 import gf2_basis, independent_words
from .rng import DOMAIN_SIM_STRATA, DOMAIN_SIM_TRIALS, derive_stream, thread_map

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
_CHUNK_TRIALS = 1024
# strata with P(K=k) below this are dropped; their mass is the tail bound
_EPS_TAIL = 1e-12
# an erasure table has one entry per packed syndrome, 2^rows in all
_MAX_ROWS = 16


def _h_array(cols: list[int], nrows: int) -> np.ndarray:
    """H as a (rows, n) uint8 array, from its column ints (bit i = row i)."""
    return (np.array(cols)[None, :] >> np.arange(nrows)[:, None] & 1).astype(np.uint8)


def _parity_positions(cols: list[int]) -> tuple[list[int], list[int]]:
    """(parity, info) positions of a systematic encoder.

    Parity is the first column basis met scanning left to right: column j
    joins iff it is outside the span of the columns before it, which is the
    pivot set of the reduced echelon form of H.
    """
    parity: list[int] = []
    for j in range(len(cols)):
        if len(gf2_basis(cols[i] for i in parity + [j])) > len(parity):
            parity.append(j)
    return parity, [j for j in range(len(cols)) if j not in parity]


def _syndromes(lines: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Packed syndrome of every line along the last axis; bit i is H row i.

    One float32 matmul: 0/1 entries and line sums below 2^24, so the
    products are exact integers before the reduction mod 2.
    """
    bits = (lines.astype(np.float32) @ h.T.astype(np.float32)).astype(np.int64) & 1
    return bits @ (1 << np.arange(h.shape[0]))


def _erasure_table(h: np.ndarray, erased: list[int]) -> np.ndarray | None:
    """Index of the filling that produces each packed syndrome, -1 if none.

    Filling f puts bit t of f at position erased[t]. Two fillings share a
    syndrome exactly when the erased columns of H are dependent; then
    there is no unique refill and the result is None.
    """
    fillings = np.arange(1 << len(erased))
    syn = _syndromes(fillings[:, None] >> np.arange(len(erased)) & 1, h[:, erased])
    table = np.full(1 << h.shape[0], -1)
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
        self.h_row = _h_array(self.row_cols, row_code.H.nrows)
        self.h_col = _h_array(self.col_cols, col_code.H.nrows)
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
    lines: np.ndarray, h: np.ndarray, erased: list[int], table: np.ndarray
) -> np.ndarray:
    """Erase the listed positions in every line and refill them from the
    table; lines that no filling fits are left zero-filled for the recheck."""
    filled = lines.copy()
    filled[:, erased] = 0
    f = np.maximum(table[_syndromes(filled, h)], 0)
    filled[:, erased] = f[:, None] >> np.arange(len(erased)) & 1
    return filled


def _is_codeword(pc: ProductCode, arr: np.ndarray) -> bool:
    return not (_syndromes(arr, pc.h_row).any() or _syndromes(arr.T, pc.h_col).any())


def encode(pc: ProductCode, payload: np.ndarray) -> np.ndarray:
    """Systematic product encoding: payload at the info positions, then every
    row and every column refills its parity positions."""
    payload = np.asarray(payload, dtype=np.uint8)
    if payload.shape != (pc.k_col, pc.k_row):
        raise PreconditionError(f"payload must be {pc.k_col}x{pc.k_row}")
    arr = np.zeros((pc.n_col, pc.n_row), dtype=np.uint8)
    arr[np.ix_(pc.info_col, pc.info_row)] = payload
    arr = _fill_lines(arr, pc.h_row, pc.parity_row, _erasure_table(pc.h_row, pc.parity_row))
    arr = _fill_lines(arr.T, pc.h_col, pc.parity_col, _erasure_table(pc.h_col, pc.parity_col)).T
    if not _is_codeword(pc, arr):
        raise PreconditionError("systematic encoding produced an invalid array")
    return arr


def channel(arr: np.ndarray, p: float, rng: np.random.Generator) -> np.ndarray:
    """Flip each bit independently with probability p."""
    if not 0.0 <= p <= 1.0:
        raise PreconditionError("p must be in [0, 1]")
    if p == 0.0:
        return arr.copy()
    flips = (rng.random(size=arr.shape) < p).astype(np.uint8)
    return arr ^ flips


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

    r_star = np.flatnonzero(_syndromes(received, pc.h_row)).tolist()
    c_star = np.flatnonzero(_syndromes(received.T, pc.h_col)).tolist()

    def table(star: list[int], h: np.ndarray) -> np.ndarray | None:
        # more columns than H has rows are dependent without looking
        return _erasure_table(h, star) if len(star) <= min(d_plus, h.shape[0]) else None

    filled = received
    via = "none"
    weight = 0
    if (col_table := table(c_star, pc.h_row)) is not None:
        if c_star:
            filled = _fill_lines(received, pc.h_row, c_star, col_table)
            via, weight = "columns", len(c_star)
    elif (row_table := table(r_star, pc.h_col)) is not None:
        if r_star:
            filled = _fill_lines(received.T, pc.h_col, r_star, row_table).T
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


def _erasable(flags: np.ndarray, words: list[int], cap: int) -> np.ndarray:
    """Per trial, whether its flagged lines (True in a row of flags) are at
    most cap in number and independent as columns of H, whose column ints
    are words. No flagged line at all is an empty, independent set."""
    counts = np.count_nonzero(flags, axis=1)
    ok = counts == 0
    few = np.flatnonzero((counts > 0) & (counts <= cap))
    # the flagged indices of each trial first, in increasing order
    order = np.argsort(~flags[few], axis=1, kind="stable")
    words = np.asarray(words)
    for c in range(1, cap + 1):
        sel = counts[few] == c
        if sel.any():
            ok[few[sel]] = independent_words(words[order[sel, :c].T])
    return ok


def _classify_batch(pc: ProductCode, errors: np.ndarray, d_plus: int) -> np.ndarray:
    """Outcome codes for a batch of error arrays laid over the zero array.

    Every trial is classified in one batch pass from the syndromes of its
    rows and columns. A line is flagged when its syndrome is nonzero and
    silent when it holds errors under a zero syndrome. As in decode, the
    column route applies when at most min(d_plus, rows of H_row) columns
    are flagged and they are independent in H_row; failing that, the row
    route is tried the same way with rows and H_col, and a trial with
    neither route is a detected failure. When no line on its route is
    silent, every error of a routed trial lies in the erased lines, whose
    refill is unique: a success. Only routed trials with a silent line,
    the one way to a miscorrection, run the full per-trial decode.
    """
    row_flag = _syndromes(errors, pc.h_row) != 0
    col_flag = _syndromes(errors.transpose(0, 2, 1), pc.h_col) != 0
    by_cols = _erasable(col_flag, pc.row_cols, min(d_plus, pc.h_row.shape[0]))
    routed = by_cols | _erasable(row_flag, pc.col_cols, min(d_plus, pc.h_col.shape[0]))
    silent = np.where(
        by_cols,
        (errors.any(axis=1) & ~col_flag).any(axis=1),
        (errors.any(axis=2) & ~row_flag).any(axis=1),
    )
    out = np.full(errors.shape[0], _DETECTED, dtype=np.int8)
    out[routed & ~silent] = _SUCCESS
    zero = np.zeros((pc.n_col, pc.n_row), dtype=np.uint8)
    for t in np.flatnonzero(routed & silent):
        res = decode(pc, errors[t], d_plus, transmitted=zero)
        out[t] = {"success": _SUCCESS, "detected_failure": _DETECTED, "miscorrection": _MISCORRECTION}[res.outcome]
    return out


def _plain_chunk(pc: ProductCode, cfg: SimConfig, chunk: tuple[int, int]) -> np.ndarray:
    start, size = chunk
    errors = np.empty((size, pc.n_col, pc.n_row), dtype=np.uint8)
    for t in range(size):
        rng = derive_stream(cfg.master_seed, DOMAIN_SIM_TRIALS, start + t)
        errors[t] = rng.random(size=(pc.n_col, pc.n_row)) < cfg.p
    return _classify_batch(pc, errors, cfg.d_plus)


@dataclass(frozen=True, repr=False)
class SimResult:
    """estimate is exact; a stratified one can have a denominator far past
    the digits str() will print, so repr and JSON show it as a float."""

    p: float
    d_plus: int
    trials: int
    failures: int
    miscorrections: int
    estimate: Fraction
    ci95: float
    strategy: str
    master_seed: int
    tail_bound: float | None = None

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "d_plus": self.d_plus,
            "trials": self.trials,
            "failures": self.failures,
            "miscorrections": self.miscorrections,
            "estimate": float(self.estimate),
            "ci95": self.ci95,
            "strategy": self.strategy,
            "master_seed": self.master_seed,
            "tail_bound": self.tail_bound,
        }

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in self.to_json().items())
        return f"SimResult({fields})"


def _wald_halfwidth(successes: int, total: int) -> float:
    p = (successes + 1) / (total + 2)
    return 1.96 * math.sqrt(p * (1.0 - p) / total)


def failure_probability(
    pc: ProductCode,
    cfg: SimConfig,
    *,
    per_stratum: int = 2000,
    k_max: int | None = None,
    threads: int | None = None,
) -> SimResult:
    """Estimated probability that a trial does not end in success.

    plain: cfg.trials independent channel draws, one derived stream per
    trial index, so any prefix/partition of the work gives identical bits.
    stratified: condition on the total error count K ~ Binomial(bits, p)
    with exact rational weights; strata with P(K=k) < _EPS_TAIL (1e-12) or
    k > k_max are dropped and their total mass is reported as tail_bound (an upper bound on the
    truncation error). per_stratum trials are spent in each kept stratum.
    """
    if cfg.strategy == "plain":
        return _plain_failure(pc, cfg, threads)
    return _stratified_failure(pc, cfg, per_stratum, k_max, threads)


def _plain_failure(pc: ProductCode, cfg: SimConfig, threads: int | None) -> SimResult:
    if cfg.p == 0.0:
        # the channel is the identity: every trial is the same clean success
        return SimResult(
            p=cfg.p, d_plus=cfg.d_plus, trials=cfg.trials, failures=0,
            miscorrections=0, estimate=Fraction(0), ci95=_wald_halfwidth(0, cfg.trials),
            strategy="plain", master_seed=cfg.master_seed,
        )
    size = _CHUNK_TRIALS
    chunks = [
        (i * size, min(size, cfg.trials - i * size)) for i in range((cfg.trials + size - 1) // size)
    ]
    failures = 0
    mis = 0
    with thread_map(partial(_plain_chunk, pc, cfg), chunks, threads) as parts:
        for codes in parts:
            failures += int(np.count_nonzero(codes != _SUCCESS))
            mis += int(np.count_nonzero(codes == _MISCORRECTION))
    return SimResult(
        p=cfg.p, d_plus=cfg.d_plus, trials=cfg.trials, failures=failures,
        miscorrections=mis, estimate=Fraction(failures, cfg.trials),
        ci95=_wald_halfwidth(failures, cfg.trials), strategy="plain",
        master_seed=cfg.master_seed,
    )


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


def _stratum_outcomes(
    pc: ProductCode, cfg: SimConfig, per_stratum: int, k: int
) -> np.ndarray:
    errors = np.zeros((per_stratum, pc.n_col, pc.n_row), dtype=np.uint8)
    if k > 0:
        flat = errors.reshape(per_stratum, pc.bits)
        for t in range(per_stratum):
            rng = derive_stream(cfg.master_seed, DOMAIN_SIM_STRATA, (k << 32) | t)
            flat[t, rng.choice(pc.bits, size=k, replace=False)] = 1
    return _classify_batch(pc, errors, cfg.d_plus)


def _stratified_failure(
    pc: ProductCode,
    cfg: SimConfig,
    per_stratum: int,
    k_max: int | None,
    threads: int | None,
) -> SimResult:
    if per_stratum < 1:
        raise PreconditionError("per_stratum must be >= 1")
    weights, denom = _binomial_weights(pc.bits, cfg.p, _EPS_TAIL, k_max)
    if not weights:
        raise PreconditionError(f"every stratum has P(K=k) < {_EPS_TAIL} or k > k_max; raise k_max")
    ks = sorted(weights)
    with thread_map(partial(_stratum_outcomes, pc, cfg, per_stratum), ks, threads) as parts:
        outcomes = list(parts)
    numerator = 0  # of the estimate, over denom * per_stratum
    variance = 0.0
    failures = 0
    mis = 0
    for k, codes in zip(ks, outcomes):
        f = int(np.count_nonzero(codes != _SUCCESS))
        failures += f
        mis += int(np.count_nonzero(codes == _MISCORRECTION))
        numerator += weights[k] * f
        ptilde = (f + 1) / (per_stratum + 2)
        # int / int is correctly rounded, as float(Fraction) is
        variance += (weights[k] / denom) ** 2 * ptilde * (1.0 - ptilde) / per_stratum
    return SimResult(
        p=cfg.p, d_plus=cfg.d_plus, trials=per_stratum * len(ks), failures=failures,
        miscorrections=mis, estimate=Fraction(numerator, denom * per_stratum),
        ci95=1.96 * math.sqrt(variance), strategy="stratified",
        master_seed=cfg.master_seed, tail_bound=(denom - sum(weights.values())) / denom,
    )
