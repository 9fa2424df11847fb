"""Product-code memory simulation: two [72,64,4] component codes, an iid
bit-flip channel, and a single-pass row/column erasure-list decoder.

The decoder never guesses error values. It flags rows and columns by
syndrome, treats the smaller flagged set as an erasure pattern if that
pattern is short enough (<= d_plus) and independent, refills the erased
positions by solving each line's linear system, then rechecks everything.
A trial therefore ends in exactly one of three states: success, detected
failure (decoder knows it lost), or miscorrection (clean syndromes, wrong
array; visible only against the transmitted ground truth).

Decoding is translation invariant, so the Monte Carlo drivers simulate the
zero array and classify outcomes from the error pattern alone; the unit
tests check the invariance against encoded random payloads.
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
from .gf2 import gf2_basis
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


def _h_array(code: Code) -> np.ndarray:
    h = np.zeros((code.H.nrows, code.spec.n), dtype=np.uint8)
    for i, row in enumerate(code.H.rows):
        for j in range(code.spec.n):
            h[i, j] = (row >> j) & 1
    return h


def _systematic_generator(code: Code) -> tuple[np.ndarray, list[int], list[int]]:
    """Generator matrix (k x n, uint8) plus (pivot, info) column index lists."""
    n = code.spec.n
    rows = list(code.H.rows)
    pivots: list[int] = []
    # forward elimination by lowest-index pivot column
    reduced: list[int] = []
    for row in rows:
        x = row
        for p, r in zip(pivots, reduced):
            if (x >> p) & 1:
                x ^= r
        if x == 0:
            continue
        p = (x & -x).bit_length() - 1
        for i, r in enumerate(reduced):
            if (r >> p) & 1:
                reduced[i] = r ^ x
        pivots.append(p)
        reduced.append(x)
    order = np.argsort(pivots)
    pivots = [pivots[i] for i in order]
    reduced = [reduced[i] for i in order]
    info = [j for j in range(n) if j not in set(pivots)]
    k = len(info)
    gen = np.zeros((k, n), dtype=np.uint8)
    for gi, j in enumerate(info):
        gen[gi, j] = 1
        for p, r in zip(pivots, reduced):
            gen[gi, p] = (r >> j) & 1
    return gen, pivots, info


class ProductCode:
    """Rectangular array code: every row in row_code, every column in col_code."""

    def __init__(self, row_code: Code, col_code: Code) -> None:
        self.row_code = row_code
        self.col_code = col_code
        self.n_row = row_code.spec.n  # array width
        self.n_col = col_code.spec.n  # array height
        self.k_row = row_code.dimension()
        self.k_col = col_code.dimension()
        self.h_row = _h_array(row_code)
        self.h_col = _h_array(col_code)
        self._h_row_t32 = self.h_row.T.astype(np.float32)
        self._h_col_t32 = self.h_col.T.astype(np.float32)
        self.row_cols = row_code.H.column_ints()
        self.col_cols = col_code.H.column_ints()
        self.gen_row, self.parity_row, self.info_row = _systematic_generator(row_code)
        self.gen_col, self.parity_col, self.info_col = _systematic_generator(col_code)

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


def encode(pc: ProductCode, payload: np.ndarray) -> np.ndarray:
    """Systematic product encoding: payload rows first, then every column."""
    payload = np.asarray(payload, dtype=np.uint8)
    if payload.shape != (pc.k_col, pc.k_row):
        raise PreconditionError(f"payload must be {pc.k_col}x{pc.k_row}")
    mid = payload.astype(np.int64) @ pc.gen_row.astype(np.int64) % 2
    full = (pc.gen_col.astype(np.int64).T @ mid) % 2
    arr = full.astype(np.uint8)
    if (arr @ pc.h_row.T % 2).any() or (arr.T @ pc.h_col.T % 2).any():
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


def _erasure_solver(cols: list[int], idx: list[int]) -> dict[int, tuple[int, int]]:
    """Basis of the selected H columns with combination tracking.

    Returns lead-bit -> (reduced column, mask over idx positions); assumes
    the selected columns are independent.
    """
    basis: dict[int, tuple[int, int]] = {}
    for t, j in enumerate(idx):
        v, m = cols[j], 1 << t
        while v:
            b = v.bit_length() - 1
            if b not in basis:
                basis[b] = (v, m)
                break
            bv, bm = basis[b]
            v ^= bv
            m ^= bm
    return basis


def _solve_erasure(basis: dict[int, tuple[int, int]], syndrome: int) -> int | None:
    """Mask over erased positions reproducing the syndrome, or None if
    the system is inconsistent (the recheck then reports the failure)."""
    v, m = syndrome, 0
    while v:
        b = v.bit_length() - 1
        if b not in basis:
            return None
        bv, bm = basis[b]
        v ^= bv
        m ^= bm
    return m


def _pack_bits(vec: np.ndarray) -> int:
    out = 0
    for i, b in enumerate(vec):
        if b:
            out |= 1 << i
    return out


def _fill_lines(
    lines: np.ndarray, h: np.ndarray, cols: list[int], erased: list[int]
) -> np.ndarray:
    """Erase the listed positions in every line and refill by solving; lines
    whose system is inconsistent are left zero-filled for the recheck."""
    filled = lines.copy()
    filled[:, erased] = 0
    basis = _erasure_solver(cols, erased)
    syn = (filled.astype(np.int64) @ h.T.astype(np.int64)) % 2
    for r in range(filled.shape[0]):
        s = _pack_bits(syn[r])
        if s == 0:
            continue
        mask = _solve_erasure(basis, s)
        if mask is None:
            continue
        for t, j in enumerate(erased):
            filled[r, j] = (mask >> t) & 1
    return filled


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

    def row_flags(arr: np.ndarray) -> np.ndarray:
        return ((arr.astype(np.int64) @ pc.h_row.T.astype(np.int64)) % 2).any(axis=1)

    def col_flags(arr: np.ndarray) -> np.ndarray:
        return ((arr.T.astype(np.int64) @ pc.h_col.T.astype(np.int64)) % 2).any(axis=1)

    r_star = np.flatnonzero(row_flags(received)).tolist()
    c_star = np.flatnonzero(col_flags(received)).tolist()

    def correctable(star: list[int], cols: list[int]) -> bool:
        return len(star) <= d_plus and len(gf2_basis(cols[j] for j in star)) == len(star)

    filled = received
    via = "none"
    weight = 0
    if correctable(c_star, pc.row_cols):
        if c_star:
            filled = _fill_lines(received, pc.h_row, pc.row_cols, c_star)
            via, weight = "columns", len(c_star)
    elif correctable(r_star, pc.col_cols):
        if r_star:
            filled = _fill_lines(received.T, pc.h_col, pc.col_cols, r_star).T
            via, weight = "rows", len(r_star)
    else:
        return DecodeOutcome("detected_failure", "none", min(len(c_star), len(r_star)))

    if row_flags(filled).any() or col_flags(filled).any():
        return DecodeOutcome("detected_failure", via, weight)
    if transmitted is not None and not np.array_equal(filled, np.asarray(transmitted, dtype=np.uint8)):
        return DecodeOutcome("miscorrection", via, weight)
    return DecodeOutcome("success", via, weight)


# ---------------------------------------------------------------------------
# Monte Carlo drivers
# ---------------------------------------------------------------------------


def _classify_batch(pc: ProductCode, errors: np.ndarray, d_plus: int) -> np.ndarray:
    """Outcome codes for a batch of error arrays laid over the zero array.

    Flag counts come from one exact float32 matmul per direction (0/1
    entries, line sums < 2^24, so the floats are exact integers); only
    trials whose smaller flagged set is within d_plus need the full
    per-trial decode.
    """
    b = errors.shape[0]
    flat = errors.reshape(b * pc.n_col, pc.n_row).astype(np.float32)
    row_bad = (flat @ pc._h_row_t32).astype(np.int64) & 1
    row_counts = row_bad.any(axis=1).reshape(b, pc.n_col).sum(axis=1)
    flat_t = errors.transpose(0, 2, 1).reshape(b * pc.n_row, pc.n_col).astype(np.float32)
    col_bad = (flat_t @ pc._h_col_t32).astype(np.int64) & 1
    col_counts = col_bad.any(axis=1).reshape(b, pc.n_row).sum(axis=1)

    any_err = errors.any(axis=(1, 2))
    out = np.full(b, _DETECTED, dtype=np.int8)
    out[~any_err] = _SUCCESS
    silent = any_err & (row_counts == 0) & (col_counts == 0)
    out[silent] = _MISCORRECTION
    needs_full = any_err & ~silent & ((col_counts <= d_plus) | (row_counts <= d_plus))
    zero = np.zeros((pc.n_col, pc.n_row), dtype=np.uint8)
    for t in np.flatnonzero(needs_full):
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
    eps_tail: float = 1e-12,
    per_stratum: int = 2000,
    k_max: int | None = None,
    threads: int | None = None,
    chunk_trials: int = _CHUNK_TRIALS,
) -> SimResult:
    """Estimated probability that a trial does not end in success.

    plain: cfg.trials independent channel draws, one derived stream per
    trial index, so any prefix/partition of the work gives identical bits.
    stratified: condition on the total error count K ~ Binomial(bits, p)
    with exact rational weights; strata with P(K=k) < eps_tail are dropped
    and their total mass is reported as tail_bound (an upper bound on the
    truncation error). per_stratum trials are spent in each kept stratum.
    """
    if cfg.strategy == "plain":
        return _plain_failure(pc, cfg, threads, chunk_trials)
    return _stratified_failure(pc, cfg, eps_tail, per_stratum, k_max, threads)


def _plain_failure(
    pc: ProductCode, cfg: SimConfig, threads: int | None, chunk_trials: int
) -> SimResult:
    if cfg.p == 0.0:
        # the channel is the identity: every trial is the same clean success
        return SimResult(
            p=cfg.p, d_plus=cfg.d_plus, trials=cfg.trials, failures=0,
            miscorrections=0, estimate=Fraction(0), ci95=_wald_halfwidth(0, cfg.trials),
            strategy="plain", master_seed=cfg.master_seed,
        )
    chunks = [
        (i * chunk_trials, min(chunk_trials, cfg.trials - i * chunk_trials))
        for i in range((cfg.trials + chunk_trials - 1) // chunk_trials)
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


def _binomial_weights(bits: int, p: float, eps_tail: float, k_max: int | None) -> tuple[dict[int, Fraction], Fraction]:
    """Exact P(K=k) for every kept stratum, plus the dropped tail mass."""
    pf = Fraction(Decimal(repr(p)))
    a, c = pf.numerator, pf.denominator
    b = c - a
    if b == 0:
        if k_max is not None and k_max < bits:
            return {}, Fraction(1)
        return {bits: Fraction(1)}, Fraction(0)
    # walk the integer numerators u_k = C(bits,k) a^k b^(bits-k) over the
    # fixed denominator c^bits; every division below is exact, and Fraction
    # normalization (a gcd on thousand-digit ints) happens only for the few
    # strata that survive the cut
    denom = c**bits
    eps = Fraction(eps_tail)
    cut = eps.numerator * denom
    u = b**bits
    kept: dict[int, Fraction] = {}
    tail_num = 0
    for k in range(bits + 1):
        if k > 0:
            u = u * (bits - k + 1) * a // (k * b)
        if (k_max is not None and k > k_max) or u * eps.denominator < cut:
            tail_num += u
        else:
            kept[k] = Fraction(u, denom)
    return kept, Fraction(tail_num, denom)


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
    eps_tail: float,
    per_stratum: int,
    k_max: int | None,
    threads: int | None,
) -> SimResult:
    if per_stratum < 1:
        raise PreconditionError("per_stratum must be >= 1")
    weights, tail = _binomial_weights(pc.bits, cfg.p, eps_tail, k_max)
    if not weights:
        raise PreconditionError("every stratum fell below eps_tail; raise eps_tail or k_max")
    ks = sorted(weights)
    with thread_map(partial(_stratum_outcomes, pc, cfg, per_stratum), ks, threads) as parts:
        outcomes = list(parts)
    estimate = Fraction(0)
    variance = 0.0
    failures = 0
    mis = 0
    for k, codes in zip(ks, outcomes):
        f = int(np.count_nonzero(codes != _SUCCESS))
        failures += f
        mis += int(np.count_nonzero(codes == _MISCORRECTION))
        estimate += weights[k] * Fraction(f, per_stratum)
        ptilde = (f + 1) / (per_stratum + 2)
        variance += float(weights[k]) ** 2 * ptilde * (1.0 - ptilde) / per_stratum
    return SimResult(
        p=cfg.p, d_plus=cfg.d_plus, trials=per_stratum * len(ks), failures=failures,
        miscorrections=mis, estimate=estimate, ci95=1.96 * math.sqrt(variance),
        strategy="stratified", master_seed=cfg.master_seed, tail_bound=float(tail),
    )
