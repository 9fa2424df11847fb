import hashlib
import math
import threading
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpcodes import cli, product_sim
from qpcodes.construct import Code, CodeSpec, extended_hamming, panchenko, shorten
from qpcodes.errors import PreconditionError
from qpcodes.gf2 import BitMatrix, gf2_basis, gf2_rank
from qpcodes.product_sim import (
    DecodeOutcome,
    ProductCode,
    SimConfig,
    _binomial_weights,
    _chunk_plan,
    _classify_batch,
    _erasable,
    _erasure_table,
    _fill_lines,
    _flip_positions,
    _floyd_picks,
    _parity_positions,
    _stratum_errors,
    _syndromes,
    channel,
    decode,
    default_product_code,
    encode,
    failure_probabilities,
    failure_probability,
)
from qpcodes.rng import DOMAIN_SIM_STRATA, DOMAIN_SIM_TRIALS, derive_stream, stream_uniforms

PC = default_product_code()
ZERO = np.zeros((PC.n_col, PC.n_row), dtype=np.uint8)
# the same component with its columns reversed as the column code, so that
# a classifier mixing up the row and column codes shows
SKEW = ProductCode(PC.row_code, Code(PC.col_code.spec, PC.col_code.H.select_columns(range(71, -1, -1))))


def dependent_quad(cols):
    """Four column indices whose parity-check columns cancel."""
    return next(
        q
        for q in combinations(range(len(cols)), 4)
        if cols[q[0]] ^ cols[q[1]] ^ cols[q[2]] ^ cols[q[3]] == 0
    )


def dense_h(words, nrows):
    """H as a (rows, n) 0/1 array, from its column words (bit i = row i)."""
    return np.asarray(words, dtype=np.int64)[None, :] >> np.arange(nrows)[:, None] & 1


def random_codeword(seed):
    rng = derive_stream(seed, 0, 0)
    payload = (rng.random((PC.k_col, PC.k_row)) < 0.5).astype(np.uint8)
    return payload, encode(PC, payload)


def test_component_codes():
    assert (PC.n_row, PC.k_row) == (72, 64)
    assert (PC.n_col, PC.k_col) == (72, 64)
    assert PC.row_code.spec.d == 4
    assert PC.bits == 5184
    assert sorted(PC.parity_row + PC.info_row) == list(range(72))


@pytest.mark.parametrize("code", [
    PC.row_code,
    extended_hamming(6),
    panchenko(7),
    shorten(panchenko(7), [0, 5, 17, 39]),
], ids=["pan8-short8", "eh6", "pan7", "pan7-short4"])
def test_parity_positions_are_the_first_column_basis(code):
    # the definition: column j is parity iff it is outside the span of the
    # parity columns before it, each tested with a fresh basis
    cols = code.H.column_ints()
    parity = []
    for j in range(len(cols)):
        if len(gf2_basis(cols[i] for i in parity + [j])) > len(parity):
            parity.append(j)
    info = [j for j in range(len(cols)) if j not in parity]
    assert _parity_positions(cols) == (parity, info)
    assert len(parity) == code.H.rank()


def test_encode_is_systematic():
    payload, arr = random_codeword(3)
    assert arr.shape == (72, 72)
    assert np.array_equal(payload, arr[np.ix_(PC.info_col, PC.info_row)])
    assert ((arr.astype(int) @ dense_h(PC.row_cols, 8).T) % 2 == 0).all()
    assert ((arr.T.astype(int) @ dense_h(PC.col_cols, 8).T) % 2 == 0).all()


def test_encode_digest_is_pinned():
    # arrays the generator-matrix encoder produced for the same payloads
    digest = hashlib.sha256()
    for seed in range(8):
        payload = (derive_stream(seed, 0, 0).random((64, 64)) < 0.5).astype(np.uint8)
        digest.update(encode(PC, payload).tobytes())
    assert digest.hexdigest() == "b5d668c5c1ad604fadd840fef4240fcc89e40780da7537e655cc6780dafcd72f"


def test_syndromes_match_parity_check_rows():
    # bit i of a line's syndrome is the parity of the line's overlap with H row i
    rng = np.random.default_rng(11)
    lines = np.vstack([np.zeros(72), np.ones(72), rng.random((30, 72)) < 0.5]).astype(np.uint8)
    for code, words in ((PC.row_code, PC.row_words), (PC.col_code, PC.col_words),
                        (SKEW.row_code, SKEW.row_words), (SKEW.col_code, SKEW.col_words)):
        want = []
        for line in lines:
            packed = sum(1 << j for j in np.flatnonzero(line).tolist())
            want.append(sum((bin(row & packed).count("1") & 1) << i for i, row in enumerate(code.H.rows)))
        assert _syndromes(lines, words).tolist() == want
        assert _syndromes(lines.reshape(2, 16, 72), words).tolist() == [want[:16], want[16:]]


def test_erasure_table_verdict_matches_brute_force():
    rng = np.random.default_rng(3)
    subsets = [list(c) for k in range(4) for c in combinations(range(72), k)]
    subsets += [sorted(rng.choice(72, size=k, replace=False).tolist()) for k in range(4, 10) for _ in range(150)]
    lines = (rng.random((64, 72)) < 0.5).astype(np.uint8)
    for code, words in ((PC.row_code, PC.row_words), (SKEW.col_code, SKEW.col_words)):
        h = dense_h(words, code.H.nrows)
        cols = code.H.column_ints()
        verdicts = set()
        for t, idx in enumerate(subsets):
            table = _erasure_table(words, idx)
            independent = gf2_rank([cols[j] for j in idx]) == len(idx)
            assert (table is not None) == independent, idx
            verdicts.add(independent)
            if table is None or (t % 50 and len(idx) < 4):
                continue
            erased = lines.copy()
            erased[:, idx] = 0
            fits = table[erased @ h.T % 2 @ (1 << np.arange(len(h)))] >= 0
            filled = _fill_lines(lines, words, idx, table)
            assert not (filled[fits] @ h.T % 2).any()
            assert not filled[np.ix_(~fits, idx)].any()
        assert verdicts == {True, False}


def _code_with_rows(r):
    rows = tuple((1 << i) | (1 << r) for i in range(r))
    return Code(CodeSpec(r + 1, r, None), BitMatrix(rows, r + 1))


def test_component_h_over_16_rows_is_refused(monkeypatch, tmp_path):
    ProductCode(_code_with_rows(16), _code_with_rows(16))
    tall = _code_with_rows(17)
    with pytest.raises(PreconditionError, match="at most 16"):
        ProductCode(PC.row_code, tall)
    monkeypatch.setattr(cli, "default_product_code", lambda: ProductCode(tall, tall))
    argv = ["simulate", "--p", "0.01", "--dplus", "4", "--trials", "5", "--out", str(tmp_path / "s.json")]
    assert cli.main(argv) == 2


def test_encode_rejects_wrong_shape():
    with pytest.raises(PreconditionError):
        encode(PC, np.zeros((64, 63), dtype=np.uint8))


def test_encode_single_payload_bit_has_product_weight():
    payload = np.zeros((64, 64), dtype=np.uint8)
    payload[10, 30] = 1
    arr = encode(PC, payload)
    # the nonzero rows are row-code words (weight >= 4), and each nonzero
    # column is a column-code word, so the support is at least a 4x4 grid
    assert int(arr.sum()) >= 16


def test_channel_edge_probabilities():
    _, arr = random_codeword(4)
    rng = derive_stream(1, 0, 1)
    same = channel(arr, 0.0, rng)
    assert np.array_equal(same, arr) and same is not arr
    flipped = channel(arr, 1.0, derive_stream(1, 0, 2))
    assert np.array_equal(flipped, arr ^ 1)
    with pytest.raises(PreconditionError):
        channel(arr, 1.5, rng)


def test_channel_flip_rate_and_determinism():
    _, arr = random_codeword(5)
    out1 = channel(arr, 0.1, derive_stream(9, 0, 3))
    out2 = channel(arr, 0.1, derive_stream(9, 0, 3))
    assert np.array_equal(out1, out2)
    flips = int((out1 ^ arr).sum())
    mean, sigma = 518.4, math.sqrt(5184 * 0.1 * 0.9)
    assert abs(flips - mean) < 3 * sigma


def test_decode_clean_array():
    _, arr = random_codeword(6)
    out = decode(PC, arr, 4, arr)
    assert out == DecodeOutcome("success", "none", 0)


def test_decode_single_error_always_succeeds():
    _, arr = random_codeword(7)
    for d_plus in range(1, 9):
        y = arr.copy()
        y[11, 23] ^= 1
        out = decode(PC, y, d_plus, arr)
        assert out == DecodeOutcome("success", "columns", 1)
    # a second position, and without ground truth
    y = arr.copy()
    y[0, 71] ^= 1
    assert decode(PC, y, 1).outcome == "success"


def test_decode_few_scattered_errors():
    _, arr = random_codeword(8)
    y = arr.copy()
    for r, c in ((2, 9), (40, 33), (67, 50)):
        y[r, c] ^= 1
    out = decode(PC, y, 3, arr)
    assert out == DecodeOutcome("success", "columns", 3)


def test_decode_hidden_row_is_detected():
    # four errors matching a row-code codeword leave that row's syndrome
    # clean, so the row path never sees it; the column path sees exactly
    # the dependent quad and refuses it
    quad = dependent_quad(PC.row_cols)
    _, arr = random_codeword(9)
    y = arr.copy()
    for c in quad:
        y[5, c] ^= 1
    syndrome = 0
    for c in quad:
        syndrome ^= PC.row_cols[c]
    assert syndrome == 0
    out = decode(PC, y, 6, arr)
    assert out == DecodeOutcome("detected_failure", "none", 0)


def test_decode_hidden_column_is_detected():
    quad = dependent_quad(PC.col_cols)
    _, arr = random_codeword(10)
    y = arr.copy()
    for r in quad:
        y[r, 14] ^= 1
    out = decode(PC, y, 6, arr)
    assert out.outcome == "detected_failure"


def test_decode_product_codeword_is_silent():
    rquad = dependent_quad(PC.col_cols)
    cquad = dependent_quad(PC.row_cols)
    _, arr = random_codeword(11)
    y = arr.copy()
    for r in rquad:
        for c in cquad:
            y[r, c] ^= 1
    assert decode(PC, y, 6, arr) == DecodeOutcome("miscorrection", "none", 0)
    # without ground truth the clean recheck is all the decoder can see
    assert decode(PC, y, 6).outcome == "success"


def test_decode_row_path_and_column_preference():
    # five flagged columns exceed d_plus=4, but the single flagged row is
    # erasable; at d_plus=5 the same pattern goes through the column path
    idx = [0, 1, 2, 3, 5]
    syndrome = 0
    for c in idx:
        syndrome ^= PC.row_cols[c]
    assert syndrome != 0
    cols = PC.row_code.H.column_ints()
    assert gf2_rank([cols[j] for j in idx]) == len(idx)
    _, arr = random_codeword(12)
    y = arr.copy()
    for c in idx:
        y[7, c] ^= 1
    assert decode(PC, y, 4, arr) == DecodeOutcome("success", "rows", 1)
    assert decode(PC, y, 5, arr) == DecodeOutcome("success", "columns", 5)


def test_decode_inconsistent_fill_is_detected():
    # a hidden column codeword plus one stray error: the stray's column is
    # the only erasure, and the hidden rows' syndromes are unreachable from
    # it, so those rows stay dirty and the recheck reports the loss
    quad = dependent_quad(PC.col_cols)
    _, arr = random_codeword(13)
    y = arr.copy()
    for r in quad:
        y[r, 14] ^= 1
    stray = next(r for r in range(72) if r not in quad)
    y[stray, 20] ^= 1
    out = decode(PC, y, 6, arr)
    assert out.outcome == "detected_failure"
    assert out.corrected_via == "columns"
    assert out.erasure_weight == 1


def test_decode_translation_invariance():
    rng = derive_stream(14, 0, 0)
    for trial in range(12):
        errors = (rng.random((72, 72)) < 0.002).astype(np.uint8)
        payload = (rng.random((64, 64)) < 0.5).astype(np.uint8)
        arr = encode(PC, payload)
        ref = decode(PC, errors, 4, ZERO)
        out = decode(PC, arr ^ errors, 4, arr)
        assert out == ref


def test_decode_validation():
    with pytest.raises(PreconditionError):
        decode(PC, np.zeros((72, 71), dtype=np.uint8), 4)
    with pytest.raises(PreconditionError):
        decode(PC, ZERO, 0)


def test_sim_config_validation():
    good = dict(p=0.01, d_plus=4, trials=10, master_seed=1)
    SimConfig(**good)
    for bad in (
        dict(good, p=-0.1),
        dict(good, p=1.1),
        dict(good, d_plus=2),
        dict(good, trials=0),
        dict(good, strategy="bogus"),
        dict(good, master_seed=1 << 64),
    ):
        with pytest.raises(PreconditionError):
            SimConfig(**bad)


def test_plain_zero_error_rate():
    cfg = SimConfig(p=0.0, d_plus=4, trials=10**6, master_seed=1)
    res = failure_probability(PC, cfg)
    assert res.trials == 10**6
    assert res.failures == 0 and res.miscorrections == 0
    assert res.estimate == 0


def test_plain_is_deterministic_and_partition_invariant(monkeypatch):
    cfg = SimConfig(p=1.2e-3, d_plus=4, trials=400, master_seed=21)
    base = failure_probability(PC, cfg)
    again = failure_probability(PC, cfg)
    threaded = failure_probability(PC, cfg, threads=4)
    monkeypatch.setattr(product_sim, "_CHUNK_TRIALS", 64)
    rechunked = failure_probability(PC, cfg)
    assert base.failures == again.failures == threaded.failures == rechunked.failures
    assert base.estimate == Fraction(base.failures, 400)


@pytest.mark.parametrize("strategy", ["plain", "stratified"])
def test_worker_error_leaves_no_pool_thread(monkeypatch, strategy):
    calls = []

    def failing(*args):
        calls.append(1)
        raise RuntimeError("classifier failed")

    monkeypatch.setattr(product_sim, "_classify_batch", failing)
    monkeypatch.setattr(product_sim, "_CHUNK_TRIALS", 64)
    before = set(threading.enumerate())
    cfg = SimConfig(p=1.2e-3, d_plus=4, trials=64 * 40, master_seed=5, strategy=strategy)
    with pytest.raises(RuntimeError, match="classifier failed"):
        failure_probability(PC, cfg, threads=4, per_stratum=5)
    assert calls
    assert [t for t in threading.enumerate() if t not in before] == []


def test_plain_memory_does_not_grow_with_trials():
    # a chunk's arrays peak near 1.1 MB at p = 1e-3; keeping even one byte
    # per trial until the end would add over 60 KB to the larger run
    peaks = []
    for trials in (4096, 65536):
        tracemalloc.start()
        try:
            failure_probability(PC, SimConfig(p=1e-3, d_plus=4, trials=trials, master_seed=3), threads=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.05 * peaks[0], peaks
    # two workers hold a chunk each, and only a few results wait to be
    # taken, however many chunks the run has; a future kept per chunk
    # would add several KB each to these 256 chunks
    tracemalloc.start()
    try:
        failure_probability(PC, SimConfig(p=1e-3, d_plus=4, trials=262144, master_seed=3), threads=2)
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert peaks[2] < 2.2 * peaks[0], peaks


def test_plain_counts_match_per_trial_decode():
    cfg = SimConfig(p=1.2e-3, d_plus=4, trials=100, master_seed=33)
    res = failure_probability(PC, cfg)
    failures = 0
    mis = 0
    for t in range(100):
        errors = channel(ZERO, 1.2e-3, derive_stream(33, DOMAIN_SIM_TRIALS, t))
        out = decode(PC, errors, 4, ZERO)
        failures += out.outcome != "success"
        mis += out.outcome == "miscorrection"
    assert (res.failures, res.miscorrections) == (failures, mis)


def test_counts_are_pinned():
    # plain: the geometric-gap channel, whose rate the closed form checks
    # (test_plain_matches_closed_form); stratified: the mask-tracking decoder
    plain = failure_probability(PC, SimConfig(p=1e-3, d_plus=4, trials=3000, master_seed=17))
    assert (plain.failures, plain.miscorrections) == (1676, 0)
    assert plain.estimate == Fraction(419, 750)
    strat = failure_probability(
        PC,
        SimConfig(p=1.2e-3, d_plus=5, trials=1, master_seed=17, strategy="stratified"),
        per_stratum=150,
    )
    assert (strat.trials, strat.failures, strat.miscorrections) == (4650, 3703, 0)
    assert float(strat.estimate) == 0.5396517995295458


# failure rates of the column-then-row decoder under the iid channel, in
# closed form from the component's S_a and spectrum (ROADMAP item 2)
CLOSED_FORM = {(1e-3, 3): 0.73222, (1e-3, 4): 0.54496, (1e-3, 6): 0.21539, (5e-4, 3): 0.23975}


@pytest.mark.parametrize("p, d_plus", sorted(CLOSED_FORM))
def test_plain_matches_closed_form(p, d_plus):
    res = failure_probability(PC, SimConfig(p=p, d_plus=d_plus, trials=3000, master_seed=17))
    want = CLOSED_FORM[p, d_plus]
    assert abs(float(res.estimate) - want) < 4 * math.sqrt(want * (1 - want) / 3000)


def _flips(seed, trials, p):
    """Sorted (trial, position) pairs a plain chunk of trials draws, and how
    many trials were drawn again."""
    drawn = []

    def draw(m, rows):
        drawn.append(len(rows))
        return stream_uniforms(seed, DOMAIN_SIM_TRIALS, rows, m)

    trial, pos = _flip_positions(draw, trials, PC.bits, p)
    return sorted(zip(trial.tolist(), pos.tolist())), sum(drawn[1:])


@pytest.mark.parametrize("p", [1e-3, 1e-2, 0.3])
def test_short_draws_are_redrawn_exactly(monkeypatch, p):
    for seed in (3, 17, 2**63 + 9):
        want, replayed = _flips(seed, 40, p)
        assert replayed == 0
        # one buffered uniform: every trial with a flip before the last bit is drawn again
        monkeypatch.setattr(product_sim, "_uniforms_per_trial", lambda bits, p: 1)
        got, replayed = _flips(seed, 40, p)
        monkeypatch.undo()
        assert got == want
        assert replayed == len({t for t, pos in want if pos < PC.bits - 1}) > 0


def test_channel_law():
    # flips are iid Bernoulli(p): count, both ends and adjacent pairs within 4 sigma
    p, n, bits = 0.05, 2000, PC.bits
    flips = np.zeros((n, bits), dtype=bool)
    pairs, _ = _flips(41, n, p)
    trial, pos = np.array(pairs).T
    flips[trial, pos] = True
    assert len(pairs) == flips.sum()  # no position repeats
    counts = flips.sum(axis=1)
    mean, var = bits * p, bits * p * (1 - p)
    assert abs(counts.mean() - mean) < 4 * math.sqrt(var / n)
    k4 = var * (1 - 6 * p * (1 - p))  # fourth cumulant of the binomial
    assert abs(counts.var(ddof=1) - var) < 4 * math.sqrt((2 * var**2 * n / (n - 1) + k4) / n)
    for end in (0, bits - 1):
        assert abs(flips[:, end].mean() - p) < 4 * math.sqrt(p * (1 - p) / n)
    both = flips[:, :-1] & flips[:, 1:]
    # neighbouring pairs share a bit: 1-dependent sums
    per_row = (bits - 1) * p**2 * (1 - p**2) + 2 * (bits - 2) * (p**3 - p**4)
    assert abs(both.mean() - p**2) < 4 * math.sqrt(n * per_row) / both.size


def test_channel_extremes():
    pairs, _ = _flips(5, 3, 1.0)
    assert pairs == [(t, pos) for t in range(3) for pos in range(PC.bits)]
    with np.errstate(all="raise"):
        for p in (1e-12, 5e-324):
            res = failure_probability(PC, SimConfig(p=p, d_plus=3, trials=3000, master_seed=8))
            assert res.failures == 0
            assert channel(ZERO, p, derive_stream(8, DOMAIN_SIM_TRIALS, 0)).sum() == 0
    assert channel(ZERO[:0], 0.3, derive_stream(8, DOMAIN_SIM_TRIALS, 0)).shape == (0, 72)


def test_seeds_past_2_63_draw_apart():
    draws = [tuple(_flips(seed, 4, 1e-2)[0]) for seed in (2**63, 2**63 + 1, 2**63 + 2, 2**64 - 1)]
    assert len(set(draws)) == 4
    by_trial = [tuple(pos for t, pos in draws[0] if t == trial) for trial in range(4)]
    assert len(set(by_trial)) == 4


def erasable_by_sort(flags, words, cap):
    """_erasable by its definition: a stable argsort puts each trial's
    flagged lines first, in increasing order."""
    counts = np.count_nonzero(flags, axis=1)
    ok = counts == 0
    few = np.flatnonzero((counts > 0) & (counts <= cap))
    order = np.argsort(~flags[few], axis=1, kind="stable")
    for t, c, lines in zip(few, counts[few], order):
        ok[t] = gf2_rank(words[lines[:c]].tolist()) == c
    return counts, ok


@pytest.mark.parametrize("words", [PC.row_words, SKEW.col_words], ids=["row", "skew-col"])
def test_erasable_equals_the_argsort_definition(words):
    rng = np.random.default_rng(5)
    # rows from empty to full, most near the cap, where independence decides
    density = rng.choice([0.0, 0.01, 0.03, 0.06, 0.1, 0.5, 1.0], size=400)
    flags = rng.random((400, 72)) < density[:, None]
    counts = np.count_nonzero(flags, axis=1)
    assert (counts == 0).any() and (counts > 8).any()
    for cap in range(1, 9):  # 8: every row of H
        got = _erasable(flags, words, cap)
        want = erasable_by_sort(flags, words, cap)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), cap
        assert not got[1][counts > cap].any()
    assert _erasable(flags[:0], words, 8)[1].shape == (0,)


def test_chunk_plan():
    assert _chunk_plan(3000, PC.bits, 1e-2) == [(0, 1024), (1024, 1024), (2048, 952)]
    assert _chunk_plan(5, PC.bits, 1e-3) == [(0, 5)]
    # about 2^17 buffered uniforms at most: 126 per trial at p = 1e-2, 5184 at p = 1
    for p, size in ((5e-3, 1024), (1e-1, 182), (0.5, 43), (1.0, 25)):
        plan = _chunk_plan(2500, PC.bits, p)
        assert plan[0] == (0, size)
        assert [start for start, _ in plan] == list(range(0, 2500, size))
        assert sum(s for _, s in plan) == 2500
        assert size * product_sim._uniforms_per_trial(PC.bits, p) <= 2**17


def test_high_p_counts_do_not_depend_on_chunking(monkeypatch):
    cfg = SimConfig(p=0.5, d_plus=4, trials=150, master_seed=12)
    base = failure_probability(PC, cfg, threads=2)
    for chunk in (64, 7):
        monkeypatch.setattr(product_sim, "_CHUNK_TRIALS", chunk)
        res = failure_probability(PC, cfg, threads=2)
        assert (res.failures, res.miscorrections) == (base.failures, base.miscorrections)


def test_failures_monotone_in_d_plus():
    counts = []
    for d_plus in (3, 4, 5, 6):
        cfg = SimConfig(p=1.2e-3, d_plus=d_plus, trials=300, master_seed=5)
        counts.append(failure_probability(PC, cfg).failures)
    assert counts == sorted(counts, reverse=True)
    assert counts[0] > counts[-1]


SHARED = [("plain", 1e-3, 1), ("plain", 1e-3, 2), ("plain", 1e-2, 1), ("plain", 1e-2, 2),
          ("stratified", 1.2e-3, 1), ("stratified", 1.2e-3, 2)]


@pytest.mark.parametrize("strategy, p, threads", SHARED)
def test_shared_trials_equal_separate_runs(strategy, p, threads):
    # one draw classified under every d_plus gives, field for field, what a
    # run per d_plus gives; unsorted and repeated d_plus keep their order
    cfgs = [SimConfig(p=p, d_plus=d, trials=700, master_seed=29, strategy=strategy) for d in (3, 4, 5, 6, 4)]
    shared = failure_probabilities(PC, cfgs, per_stratum=30, threads=threads)
    separate = [failure_probability(PC, cfg, per_stratum=30, threads=threads) for cfg in cfgs]
    fields = ("d_plus", "trials", "failures", "miscorrections", "estimate", "ci95", "tail_bound")
    for a, b in zip(shared, separate):
        assert [getattr(a, f) for f in fields] == [getattr(b, f) for f in fields]
    assert shared == separate
    # at p = 1e-2 every trial fails under every d_plus; below it, d_plus shows
    assert len({res.failures for res in shared}) > 1 or p == 1e-2


@pytest.mark.parametrize("strategy", ["plain", "stratified"])
def test_shared_counts_are_kept_per_config(monkeypatch, strategy):
    # a stand-in classifier with one outcome per d_plus: each config's
    # failures and miscorrections are its own row's
    outcome = {3: 0, 4: 1, 5: 2}

    def fake(pc, size, trial, pos, d_plus):
        return np.array([[outcome[d]] * size for d in d_plus], dtype=np.int8)

    monkeypatch.setattr(product_sim, "_classify_batch", fake)
    cfgs = [SimConfig(p=1e-3, d_plus=d, trials=3000, master_seed=3, strategy=strategy) for d in (5, 3, 4)]
    res = failure_probabilities(PC, cfgs, per_stratum=200, threads=2)
    n = res[0].trials
    assert [(r.d_plus, r.failures, r.miscorrections) for r in res] == [(5, n, n), (3, 0, 0), (4, n, 0)]


def test_shared_configs_must_differ_only_in_d_plus():
    good = SimConfig(p=1e-3, d_plus=4, trials=50, master_seed=3)
    assert failure_probabilities(PC, []) == []
    for field, value in (("p", 2e-3), ("master_seed", 4), ("trials", 51), ("strategy", "stratified")):
        other = SimConfig(**{**vars(good), field: value, "d_plus": 5})
        with pytest.raises(PreconditionError, match="only in d_plus"):
            failure_probabilities(PC, [good, other])


def test_stratified_refusals():
    # at p = 1e-2 every kept stratum has k >= 1, so k_max = 0 keeps none
    cfg = SimConfig(p=1e-2, d_plus=4, trials=1, master_seed=1, strategy="stratified")
    with pytest.raises(PreconditionError, match="raise k_max"):
        failure_probability(PC, cfg, k_max=0)
    with pytest.raises(PreconditionError, match="per_stratum must be >= 1"):
        failure_probability(PC, cfg, per_stratum=0)


def test_binomial_weights_are_exact():
    bits, b, c = 5184, 99, 100  # p = 1/100
    # P(K=k) * c^bits = C(bits,k) b^(bits-k), from Pascal's row and powers of b
    powers = [1]
    for _ in range(bits):
        powers.append(powers[-1] * b)
    numerators = []
    comb = 1
    for k in range(bits + 1):
        numerators.append(comb * powers[bits - k])
        comb = comb * (bits - k) // (k + 1)
    eps = Fraction(1e-12)

    kept, denom = _binomial_weights(bits, 1e-2, 1e-12, None)
    assert denom == c**bits
    assert all(u == numerators[k] for k, u in kept.items())
    tail = sum(u for k, u in enumerate(numerators) if k not in kept)
    assert sum(kept.values()) + tail == denom
    assert all(u * 10**12 >= denom for u in kept.values())
    # the walk stops early: every stratum it dropped is below the cut
    assert all(u * eps.denominator < eps.numerator * denom for k, u in enumerate(numerators) if k not in kept)
    assert 0 < tail * 10**6 < denom
    capped, cap_denom = _binomial_weights(bits, 1e-2, 1e-12, 20)
    assert cap_denom == denom
    assert max(capped) <= 20
    assert cap_denom - sum(capped.values()) > tail


def test_binomial_weights_at_the_edges():
    assert _binomial_weights(5184, 0.0, 1e-12, None) == ({0: 1}, 1)
    assert _binomial_weights(5184, 1.0, 1e-12, None) == ({5184: 1}, 1)
    assert _binomial_weights(5184, 1.0, 1e-12, 20) == ({}, 1)


def _random_quad(cols, rng):
    """Four positions whose parity-check columns cancel: a weight-4 codeword."""
    while True:
        three = rng.choice(len(cols), size=3, replace=False).tolist()
        fourth = cols[three[0]] ^ cols[three[1]] ^ cols[three[2]]
        if fourth in cols and cols.index(fourth) not in three:
            return three + [cols.index(fourth)]


# fixed examples, no example database: the suite reads the same on every run
PROPERTY = settings(max_examples=50, deadline=None, database=None, derandomize=True)


def test_batch_classifier_matches_per_trial_decode():
    seen = set()

    @PROPERTY
    @given(
        pc=st.sampled_from([PC, SKEW]),
        seed=st.integers(0, 2**32 - 1),
        # caps in any order, repeats allowed: one classification serves them all
        d_plus=st.lists(st.integers(3, 9), min_size=1, max_size=4),
        p=st.sampled_from([0.0, 2e-4, 1e-3, 3e-3, 1e-2]),
        plants=st.lists(st.sampled_from(["row", "column", "grid", "diagonal"]), max_size=3),
    )
    def check(pc, seed, d_plus, p, plants):
        rng = np.random.default_rng(seed)
        errors = (rng.random((32, 72, 72)) < p).astype(np.uint8)
        for t in range(errors.shape[0]):
            for kind in plants:
                if rng.random() < 0.5:
                    continue
                # a silent row holds a row-code word, a silent column a
                # column-code word, and a grid is a product-code word; a
                # diagonal flags four dependent rows and four dependent columns
                rows = _random_quad(pc.col_cols, rng) if kind != "row" else [int(rng.integers(72))]
                cols = _random_quad(pc.row_cols, rng) if kind != "column" else [int(rng.integers(72))]
                if kind == "diagonal":
                    errors[t][rows, cols] ^= 1
                else:
                    errors[t][np.ix_(rows, cols)] ^= 1
        trial, row, col = np.nonzero(errors)
        codes = _classify_batch(pc, len(errors), trial, row * pc.n_row + col, tuple(d_plus))
        names = {"success": 0, "detected_failure": 1, "miscorrection": 2}
        assert codes.shape == (len(d_plus), len(errors))
        for got, dp in zip(codes, d_plus):
            expect = [names[decode(pc, e, dp, ZERO).outcome] for e in errors]
            assert got.tolist() == expect, dp
            seen.update(expect)

    check()
    assert seen == {0, 1, 2}


def test_batch_classifier_without_errors():
    # a chunk with no error at all, and the k=0 stratum: every trial is a
    # clean success and no array is laid out for decode
    none = np.zeros(0, dtype=np.int64)
    assert _classify_batch(PC, 9, none, none, (4, 3)).tolist() == [[0] * 9] * 2
    assert _classify_batch(PC, 6, *_stratum_errors(PC.bits, 4, 6, [0]), (3,)).tolist() == [[0] * 6]


def test_stratified_matches_plain():
    plain = failure_probability(
        PC, SimConfig(p=1.2e-3, d_plus=4, trials=2000, master_seed=7)
    )
    strat = failure_probability(
        PC,
        SimConfig(p=1.2e-3, d_plus=4, trials=1, master_seed=7, strategy="stratified"),
        per_stratum=200,
    )
    gap = abs(float(plain.estimate) - float(strat.estimate))
    joint = math.hypot(plain.ci95 / 1.96, strat.ci95 / 1.96)
    assert gap < 3 * joint
    assert strat.tail_bound is not None and strat.tail_bound < 1e-9
    assert strat.trials % 200 == 0


def assert_draw_is_choice(bits, seed, per_stratum, ks, only=None):
    """Every trial's error set is the one numpy's choice draws from its stream."""
    trial, pos = _stratum_errors(bits, seed, per_stratum, ks)
    for t, k in enumerate(np.repeat(ks, per_stratum).tolist()):
        if only is None or t in only:
            want = derive_stream(seed, DOMAIN_SIM_STRATA, (k << 32) | t % per_stratum).choice(bits, k, replace=False)
            got = pos[trial == t]
            assert got.size == k and set(got.tolist()) == set(want.tolist()), (bits, k, t)


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_stratum_draw_equals_choice(seed):
    # numpy's Floyd regime: every k up to the whole population of 5,184 bits
    assert_draw_is_choice(PC.bits, seed, 5, [0, 1, 3, 6, 20, 52, 120, 5184])
    for bits in (1, 2, 7, 100):
        assert_draw_is_choice(bits, seed, 4, sorted({0, 1, bits - 1, bits}))


def test_stratum_draw_replays_a_rejected_draw():
    # trial 5877 of stratum 120 under seed 0 meets a Lemire rejection (found
    # by a scan of 120,000 trials): its array draw is set aside and replayed
    _, replay = _floyd_picks(PC.bits, np.array([120]), 0, np.array([(120 << 32) | 5877], dtype=np.uint64))
    assert replay.tolist() == [0]
    assert_draw_is_choice(PC.bits, 0, 5878, [120], only={5876, 5877})


def test_stratum_draw_past_floyd_regime_falls_back_to_choice():
    # 25,600 bits: choice shuffles the tail of arange(bits) once k > 25600 // 50
    pc = ProductCode(panchenko(9), panchenko(9))
    errors = np.repeat([512, 513, 600], 2)
    _, replay = _floyd_picks(pc.bits, errors, 3, np.arange(errors.size, dtype=np.uint64))
    assert replay.tolist() == [2, 3, 4, 5]
    assert_draw_is_choice(pc.bits, 3, 2, [512, 513, 600])


def test_stratified_does_not_depend_on_run_size(monkeypatch):
    cfg = SimConfig(p=5e-3, d_plus=4, trials=1, master_seed=9, strategy="stratified")
    base = failure_probability(PC, cfg, per_stratum=7)
    for run in (1, 4096):
        monkeypatch.setattr(product_sim, "_CHUNK_TRIALS", run)
        res = failure_probability(PC, cfg, per_stratum=7)
        assert (res.failures, res.miscorrections, res.estimate) == (base.failures, base.miscorrections, base.estimate)


@pytest.mark.parametrize("p", [1e-3, 1e-2])
def test_stratified_does_not_depend_on_threads_or_run_size(monkeypatch, p):
    # the calling thread draws each run as the workers take them; neither
    # the worker count nor the runs' size may show in any field
    cfgs = [SimConfig(p=p, d_plus=d, trials=1, master_seed=9, strategy="stratified") for d in (3, 6)]
    base = failure_probabilities(PC, cfgs, per_stratum=7, threads=1)
    for run in (1, 7, 1024, 4096):
        monkeypatch.setattr(product_sim, "_CHUNK_TRIALS", run)
        for threads in (1, 2, 3):
            results = failure_probabilities(PC, cfgs, per_stratum=7, threads=threads)
            assert [r.to_json() for r in results] == [b.to_json() for b in base]
            assert [r.estimate for r in results] == [b.estimate for b in base]
            assert results == base


@pytest.mark.parametrize("threads", [1, 2])
def test_stratified_is_pinned_at_an_odd_p(threads):
    # an odd p gives a 189,430-bit reduced denominator; the float and the
    # JSON, taken from the unreduced pair, must be the reduced Fraction's
    cfg = SimConfig(p=1.23456789e-3, d_plus=4, trials=1, master_seed=1, strategy="stratified")
    res = failure_probability(PC, cfg, per_stratum=20, threads=threads)
    assert res.failures == 539
    assert res.to_json() == {
        "p": 0.00123456789, "d_plus": 4, "trials": 640, "failures": 539, "miscorrections": 0,
        "estimate": 0.7576662697756505, "ci95": 0.03325826178458175, "strategy": "stratified",
        "master_seed": 1, "tail_bound": 4.616565622901339e-13,
    }
    assert list(res.to_json()) == [
        "p", "d_plus", "trials", "failures", "miscorrections",
        "estimate", "ci95", "strategy", "master_seed", "tail_bound",
    ]
    est = res.estimate
    assert isinstance(est, Fraction)
    assert math.gcd(est.numerator, est.denominator) == 1
    assert est.denominator.bit_length() == 189430
    digest = hashlib.sha256()
    for x in (est.numerator, est.denominator):
        digest.update(x.to_bytes((x.bit_length() + 7) // 8, "little"))
    assert digest.hexdigest() == "5910c2d59beefdc7b0bc9d456dbace17c92d6b09df320276da427d001fb937f2"
    assert float(est) == 0.7576662697756505 == res.estimate_float == res.to_json()["estimate"]
    assert est == Fraction(*res.exact)
    assert res.estimate is est  # reduced once


def test_no_cli_path_reduces_the_estimate(monkeypatch, tmp_path):
    # the CLI prints and writes only the float, which comes from the
    # unreduced pair; reducing a stratified estimate can cost more than its run
    def refuse(self):
        raise AssertionError("the exact estimate was reduced")

    monkeypatch.setattr(product_sim.SimResult, "estimate", property(refuse))
    common = ["--p", "1.23456789e-3", "--stratified", "--per-stratum", "2"]
    assert cli.main(["simulate", "--dplus", "4", "--trials", "1", *common,
                     "--out", str(tmp_path / "s.json")]) == 0
    assert cli.main(["table", "--which", "2", "--dplus", "3,4", *common,
                     "--out", str(tmp_path / "t.csv")]) == 0
    assert cli.main(["simulate", "--p", "1e-3", "--dplus", "4", "--trials", "20",
                     "--out", str(tmp_path / "p.json")]) == 0


def test_stratified_is_deterministic():
    cfg = SimConfig(p=1.2e-3, d_plus=4, trials=1, master_seed=7, strategy="stratified")
    a = failure_probability(PC, cfg, per_stratum=100)
    b = failure_probability(PC, cfg, per_stratum=100, threads=3)
    assert a.estimate == b.estimate
    assert a.failures == b.failures


def test_stratified_edge_probabilities():
    zero = failure_probability(
        PC,
        SimConfig(p=0.0, d_plus=4, trials=1, master_seed=1, strategy="stratified"),
        per_stratum=50,
    )
    assert zero.estimate == 0 and zero.tail_bound == 0.0
    one = failure_probability(
        PC,
        SimConfig(p=1.0, d_plus=4, trials=1, master_seed=1, strategy="stratified"),
        per_stratum=10,
    )
    assert one.estimate == 1


def test_result_json():
    cfg = SimConfig(p=1.2e-3, d_plus=4, trials=50, master_seed=2)
    blob = failure_probability(PC, cfg).to_json()
    assert blob["p"] == 1.2e-3
    assert blob["strategy"] == "plain"
    assert blob["trials"] == 50
    assert blob["tail_bound"] is None
    assert isinstance(blob["estimate"], float)
    assert set(blob) == {
        "p", "d_plus", "trials", "failures", "miscorrections",
        "estimate", "ci95", "strategy", "master_seed", "tail_bound",
    }
