import hashlib
import math
import threading
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpcodes import cli, product_sim
from qpcodes.construct import Code, CodeSpec
from qpcodes.errors import PreconditionError
from qpcodes.gf2 import BitMatrix
from qpcodes.product_sim import (
    DecodeOutcome,
    ProductCode,
    SimConfig,
    _binomial_weights,
    _classify_batch,
    _erasure_table,
    _fill_lines,
    _syndromes,
    channel,
    decode,
    default_product_code,
    encode,
    failure_probability,
)
from qpcodes.rng import DOMAIN_SIM_TRIALS, derive_stream

PC = default_product_code()
ZERO = np.zeros((PC.n_col, PC.n_row), dtype=np.uint8)


def dependent_quad(cols):
    """Four column indices whose parity-check columns cancel."""
    return next(
        q
        for q in combinations(range(len(cols)), 4)
        if cols[q[0]] ^ cols[q[1]] ^ cols[q[2]] ^ cols[q[3]] == 0
    )


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


def test_encode_is_systematic():
    payload, arr = random_codeword(3)
    assert arr.shape == (72, 72)
    assert np.array_equal(payload, arr[np.ix_(PC.info_col, PC.info_row)])
    assert ((arr.astype(int) @ PC.h_row.T) % 2 == 0).all()
    assert ((arr.T.astype(int) @ PC.h_col.T) % 2 == 0).all()


def test_encode_digest_is_pinned():
    # arrays the generator-matrix encoder produced for the same payloads
    digest = hashlib.sha256()
    for seed in range(8):
        payload = (derive_stream(seed, 0, 0).random((64, 64)) < 0.5).astype(np.uint8)
        digest.update(encode(PC, payload).tobytes())
    assert digest.hexdigest() == "b5d668c5c1ad604fadd840fef4240fcc89e40780da7537e655cc6780dafcd72f"


def test_erasure_table_verdict_matches_brute_force():
    h = PC.h_row
    rng = np.random.default_rng(3)
    subsets = [list(c) for k in range(4) for c in combinations(range(72), k)]
    subsets += [sorted(rng.choice(72, size=k, replace=False).tolist()) for k in range(4, 10) for _ in range(150)]
    lines = (rng.random((64, 72)) < 0.5).astype(np.uint8)
    verdicts = set()
    for t, idx in enumerate(subsets):
        table = _erasure_table(h, idx)
        independent = PC.row_code.H.columns_independent(idx)
        assert (table is not None) == independent, idx
        verdicts.add(independent)
        if table is None or (t % 50 and len(idx) < 4):
            continue
        erased = lines.copy()
        erased[:, idx] = 0
        fits = table[_syndromes(erased, h)] >= 0
        filled = _fill_lines(lines, h, idx, table)
        assert not _syndromes(filled[fits], h).any()
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
    assert PC.row_code.H.columns_independent(idx)
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


def test_plain_counts_match_per_trial_decode():
    cfg = SimConfig(p=1.2e-3, d_plus=4, trials=100, master_seed=33)
    res = failure_probability(PC, cfg)
    failures = 0
    mis = 0
    for t in range(100):
        rng = derive_stream(33, DOMAIN_SIM_TRIALS, t)
        errors = (rng.random((72, 72)) < 1.2e-3).astype(np.uint8)
        out = decode(PC, errors, 4, ZERO)
        failures += out.outcome != "success"
        mis += out.outcome == "miscorrection"
    assert (res.failures, res.miscorrections) == (failures, mis)


def test_counts_are_pinned():
    # values the mask-tracking decoder gave for the same runs
    plain = failure_probability(PC, SimConfig(p=1e-3, d_plus=4, trials=3000, master_seed=17))
    assert (plain.failures, plain.miscorrections) == (1618, 0)
    assert plain.estimate == Fraction(809, 1500)
    strat = failure_probability(
        PC,
        SimConfig(p=1.2e-3, d_plus=5, trials=1, master_seed=17, strategy="stratified"),
        per_stratum=150,
    )
    assert (strat.trials, strat.failures, strat.miscorrections) == (4650, 3703, 0)
    assert float(strat.estimate) == 0.5396517995295458


def test_failures_monotone_in_d_plus():
    counts = []
    for d_plus in (3, 4, 5, 6):
        cfg = SimConfig(p=1.2e-3, d_plus=d_plus, trials=300, master_seed=5)
        counts.append(failure_probability(PC, cfg).failures)
    assert counts == sorted(counts, reverse=True)
    assert counts[0] > counts[-1]


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
# the same component with its columns reversed as the column code, so that
# a classifier mixing up the row and column codes shows
SKEW = ProductCode(PC.row_code, Code(PC.col_code.spec, PC.col_code.H.select_columns(range(71, -1, -1))))


def test_batch_classifier_matches_per_trial_decode():
    seen = set()

    @PROPERTY
    @given(
        pc=st.sampled_from([PC, SKEW]),
        seed=st.integers(0, 2**32 - 1),
        d_plus=st.integers(3, 9),
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
        codes = _classify_batch(pc, errors, d_plus)
        names = {"success": 0, "detected_failure": 1, "miscorrection": 2}
        expect = [names[decode(pc, e, d_plus, ZERO).outcome] for e in errors]
        assert codes.tolist() == expect
        seen.update(expect)

    check()
    assert seen == {0, 1, 2}


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
