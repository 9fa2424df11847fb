import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from qpcodes import cli, erasure, spectrum
from qpcodes.construct import Code, CodeSpec, Lineage, extended_hamming, panchenko, seed, shorten
from qpcodes.erasure import (
    ErasureReport,
    delta_entropy_bound,
    delta_lower,
    delta_tilde,
    delta_tilde_2,
    erasure_report,
    is_exact_regime,
    psi,
    psi_tilde,
    s_rho_exact,
    s_rho_sampled,
    table1,
    trailing_shortening_provider,
)
from qpcodes.errors import BudgetError, ConsistencyError, PreconditionError
from qpcodes.gf2 import BitMatrix, gf2_rank
from qpcodes.spectrum import oracle_spectrum

pan5 = panchenko(5)
eh4 = extended_hamming(4)


def brute_s_rho(h: BitMatrix, rho: int) -> int:
    return sum(1 for sub in combinations(range(h.cols), rho) if h.columns_independent(sub))


def bare_code(h: BitMatrix) -> Code:
    return Code(CodeSpec(h.cols, h.nrows, None, Lineage()), h)


def with_padding_rows(code: Code, extra: int) -> Code:
    # zero rows leave every rank question unchanged, and the kernel reads the
    # columns of a row basis, so they must not change any count either
    h = BitMatrix(code.H.rows + (0,) * extra, code.H.cols)
    return bare_code(h)


def structured_matrix(rng: random.Random, nrows: int, rank: int, n: int) -> BitMatrix:
    """An nrows x n matrix of the given rank whose columns are base vectors,
    sums of two or three of them, repeats and zeros, so small column sets
    are often dependent at any rank."""
    while True:
        base = [rng.getrandbits(nrows) for _ in range(rank)]
        if gf2_rank(base) == rank:
            break
    cols = list(base)
    while len(cols) < n:
        kind = rng.random()
        if kind < 0.05:
            cols.append(0)
        elif kind < 0.15:
            cols.append(rng.choice(cols))
        else:
            x = 0
            for v in rng.sample(base, min(rng.choice((2, 3)), rank)):
                x ^= v
            cols.append(x)
    rng.shuffle(cols)
    return BitMatrix(tuple(sum(((c >> i) & 1) << j for j, c in enumerate(cols))
                           for i in range(nrows)), n)


def invertible_mix(rng: random.Random, h: BitMatrix) -> BitMatrix:
    """A*H for a random invertible A over GF(2)."""
    r = h.nrows
    while True:
        a = [rng.getrandbits(r) for _ in range(r)]
        if gf2_rank(a) == r:
            break
    rows = []
    for mask in a:
        x = 0
        for i in range(r):
            if (mask >> i) & 1:
                x ^= h.rows[i]
        rows.append(x)
    return BitMatrix(tuple(rows), h.cols)


def test_psi_known_values():
    eh7 = oracle_spectrum(extended_hamming(7))
    assert psi(64, 4, 4, eh7) == 624960
    assert psi(64, 4, 5, eh7) == 6999552
    assert psi(64, 4, 6, eh7) == 55371456
    p7 = oracle_spectrum(panchenko(7))
    assert psi(40, 4, 4, p7) == 90200
    assert psi(40, 4, 5, p7) == 611072
    assert psi(8, 4, 4, oracle_spectrum(eh4)) == 56


def test_psi_below_distance_is_total():
    s = oracle_spectrum(eh4)
    assert psi(8, 4, 3, s) == math.comb(8, 3)
    assert psi(8, 4, 0, s) == 1


def test_psi_validation():
    s = oracle_spectrum(eh4)
    with pytest.raises(PreconditionError):
        psi(8, 4, 9, s)
    with pytest.raises(PreconditionError):
        psi(9, 4, 4, s)
    with pytest.raises(PreconditionError):
        psi(8, 0, 4, s)


def test_exact_regime_predicate():
    assert is_exact_regime(4, 5)
    assert not is_exact_regime(4, 6)
    assert is_exact_regime(3, 4)
    assert not is_exact_regime(3, 5)


def test_exact_count_matches_brute_force_on_family_codes():
    for code in (eh4, pan5, seed("example_9_5")):
        n = code.spec.n
        for rho in range(0, min(n, 7) + 1):
            expect = brute_s_rho(code.H, rho) if rho else 1
            assert s_rho_exact(code, rho) == expect


def test_exact_count_equals_psi_in_exact_regime():
    for code in (eh4, extended_hamming(5), pan5, panchenko(6), seed("example_9_5")):
        s = oracle_spectrum(code)
        for rho in range(4, 6):
            if rho > code.spec.n:
                continue
            assert s_rho_exact(code, rho) == psi(code.spec.n, 4, rho, s)


def test_exact_count_known_midsize_values():
    assert s_rho_exact(extended_hamming(7), 4) == 624960
    assert s_rho_exact(extended_hamming(7), 5) == 6999552


def test_exact_count_trivial_cases():
    assert s_rho_exact(pan5, 0) == 1
    assert s_rho_exact(pan5, 1) == 10  # every column nonzero since d >= 2
    assert s_rho_exact(pan5, 6) == 0  # rank is only 5
    assert s_rho_exact(eh4, 5) == 0


def test_packed_and_python_engines_agree():
    rng = random.Random(5)
    for _ in range(12):
        n = rng.randint(6, 12)
        nrows = rng.randint(2, 8)
        rows = tuple(rng.randrange(1 << n) for _ in range(nrows))
        h = BitMatrix(rows, n)
        fast = bare_code(h)
        slow = with_padding_rows(fast, 9 - nrows)
        assert slow.H.nrows > 8
        for rho in (2, 3, 4):
            expect = brute_s_rho(h, rho)
            assert s_rho_exact(fast, rho) == expect
            assert s_rho_exact(slow, rho) == expect


def test_exact_count_thread_invariance():
    expect = s_rho_exact(extended_hamming(7), 4, threads=1)
    for t in (2, 4, 8):
        assert s_rho_exact(extended_hamming(7), 4, threads=t) == expect


@pytest.mark.parametrize("threads", [1, 3])
def test_exact_count_progress_fires_once_per_root(threads):
    calls = []
    s_rho_exact(pan5, 4, threads=threads, progress=lambda done, total: calls.append((done, total)))
    roots = 10 - 4 + 1
    assert calls == [(done, roots) for done in range(1, roots + 1)]


def test_exact_count_permutation_invariance():
    perm = [7, 2, 9, 0, 4, 1, 8, 3, 6, 5]
    permuted = bare_code(pan5.H.select_columns(perm))
    for rho in range(1, 6):
        assert s_rho_exact(permuted, rho) == s_rho_exact(pan5, rho)


def test_exact_count_budget_refusal():
    with pytest.raises(BudgetError) as err:
        s_rho_exact(extended_hamming(7), 7, budget=10**6)
    assert str(math.comb(64, 7)) in str(err.value)


def test_sampling_is_deterministic_across_threads_and_repeats():
    a = s_rho_sampled(pan5, 4, 20000, master_seed=42, threads=1)
    for t in (2, 5):
        assert s_rho_sampled(pan5, 4, 20000, master_seed=42, threads=t) == a
    assert s_rho_sampled(pan5, 4, 20000, master_seed=42) == a


def test_sampling_unbiased_within_three_sigma():
    exact = Fraction(s_rho_exact(pan5, 4), math.comb(10, 4))
    for master_seed in (1, 2, 3):
        est = s_rho_sampled(pan5, 4, 30000, master_seed)
        sigma = est.std_error
        assert abs(float(est.estimate) - float(exact)) <= 3 * sigma


def test_sampling_chunking_does_not_change_the_plan():
    # chunk size is part of the stream plan; these hit totals pin it, one
    # draw inside the first chunk and one reaching into the second
    assert s_rho_sampled(pan5, 4, 5000, master_seed=9).hits == 4746
    assert s_rho_sampled(pan5, 4, (1 << 20) + 1000, master_seed=9).hits == 999650


def test_sampling_validation():
    with pytest.raises(PreconditionError):
        s_rho_sampled(pan5, 0, 100, 1)
    with pytest.raises(PreconditionError):
        s_rho_sampled(pan5, 4, 0, 1)


def test_wide_matrix_sampling_has_no_sample_cap():
    wide = with_padding_rows(pan5, 5)
    samples = 10**6 + 1
    assert s_rho_sampled(wide, 4, samples, 1) == s_rho_sampled(pan5, 4, samples, 1)


def test_wide_matrix_sampling_fallback_agrees():
    wide = with_padding_rows(pan5, 5)
    a = s_rho_sampled(pan5, 4, 4000, master_seed=7)
    b = s_rho_sampled(wide, 4, 4000, master_seed=7)
    assert a.hits == b.hits


# (rank range, rows, length, rho range): one case per kernel word width, with
# rho kept small where n is large so the brute-force oracle stays cheap
KERNEL_CASES = [
    ((1, 8), 8, 14, (1, 5)),
    ((9, 16), 16, 20, (2, 4)),
    ((17, 32), 32, 36, (2, 3)),
    ((33, 64), 64, 44, (2, 3)),
    ((10, 40), 80, 44, (2, 3)),  # more than 64 rows, rank at most 64
]


@pytest.mark.parametrize("ranks,nrows,n,rhos", KERNEL_CASES,
                         ids=["uint8", "uint16", "uint32", "uint64", "80rows"])
def test_kernel_matches_brute_force_at_every_word_width(ranks, nrows, n, rhos):
    rng = random.Random(sum(ranks) * nrows)
    for _ in range(2):
        rank = rng.randint(ranks[0], min(ranks[1], nrows, n))
        h = structured_matrix(rng, nrows, rank, n)
        assert h.rank() == rank
        words = erasure._column_words(h)
        assert words.dtype == np.min_scalar_type((1 << rank) - 1)
        code = bare_code(h)
        for rho in range(rhos[0], rhos[1] + 1):
            subsets = list(combinations(range(n), rho))
            expect = [h.columns_independent(sub) for sub in subsets]
            assert s_rho_exact(code, rho, threads=1) == sum(expect)
            idxs = np.array(subsets, dtype=np.int64)
            assert erasure._count_hits(words, idxs) == sum(expect)
            # and row by row, so that no two errors can cancel in the totals
            for pick in rng.sample(range(len(subsets)), min(200, len(subsets))):
                assert erasure._count_hits(words, idxs[pick : pick + 1]) == expect[pick]


def test_kernel_refuses_rank_above_64():
    n = 66
    h = BitMatrix(tuple(1 << i for i in range(65)), n)
    with pytest.raises(PreconditionError):
        s_rho_exact(bare_code(h), 2)
    with pytest.raises(PreconditionError):
        s_rho_sampled(bare_code(h), 2, 10, 1)


def test_sampled_hits_invariant_under_row_mixing():
    rng = random.Random(11)
    for code in (panchenko(7), extended_hamming(9), bare_code(structured_matrix(rng, 20, 18, 40))):
        mixed = bare_code(invertible_mix(rng, code.H))
        assert mixed.H != code.H
        for rho in (4, 6):
            a = s_rho_sampled(code, rho, 20000, master_seed=rho)
            assert s_rho_sampled(mixed, rho, 20000, master_seed=rho) == a


def test_psi_tilde_depth_one_is_psi():
    code = extended_hamming(7)
    prov = trailing_shortening_provider(code)
    s = oracle_spectrum(code)
    for rho in range(4, 8):
        assert psi_tilde(64, 4, rho, prov, depth=1) == psi(64, 4, rho, s)


def test_psi_tilde_collapses_below_twice_distance():
    # recursion depth never exceeds one while rho < 2d, so the refinement
    # coincides with the closed form there
    code = panchenko(7)
    prov = trailing_shortening_provider(code)
    s = oracle_spectrum(code)
    for rho in range(4, 8):
        assert psi_tilde(40, 4, rho, prov) == psi(40, 4, rho, s)
        assert delta_tilde(40, 4, rho, prov) == delta_lower(40, 4, rho, s)
        assert delta_tilde_2(40, 4, rho, prov) == delta_lower(40, 4, rho, s)


def test_psi_tilde_refines_psi_at_deeper_recursion():
    code = extended_hamming(7)
    prov = trailing_shortening_provider(code)
    s = oracle_spectrum(code)
    rho = 8
    assert psi_tilde(64, 4, rho, prov) > psi(64, 4, rho, s)
    assert psi_tilde(64, 4, rho, prov) <= math.comb(64, rho)


def test_bound_ordering_with_exact_count_at_deep_recursion():
    c = shorten(extended_hamming(8), list(range(14, 128)))
    assert c.spec.d == 4  # the first 14 columns still hold a dependent quadruple
    prov = trailing_shortening_provider(c)
    s = oracle_spectrum(c)
    for rho in range(4, 9):
        lo = psi(14, 4, rho, s)
        mid = psi_tilde(14, 4, rho, prov)
        hi = s_rho_exact(c, rho)
        assert lo <= mid <= hi <= math.comb(14, rho)
        assert hi == brute_s_rho(c.H, rho)


def test_report_with_negative_closed_form():
    # at rho near the rank the closed form can dip below zero; the report
    # keeps the signed integer but floors the probability at zero instead
    # of refusing the whole record
    keep = {8, 11, 12, 13, 15, 16, 49, 54, 56, 59, 61, 63}
    c = shorten(extended_hamming(7), [j for j in range(64) if j not in keep])
    assert c.H.rank() == 7
    rep = erasure_report(c, 7)
    assert rep.method == "exact"
    assert rep.psi < 0 <= rep.s_rho_exact
    assert rep.delta_lower == 0
    assert rep.delta_exact == Fraction(rep.s_rho_exact, math.comb(12, 7))


def test_entropy_bounds():
    b = delta_entropy_bound(4, 6, 7.0)
    assert b.weak_bound == pytest.approx(0.5)
    assert b.entropy_bound > b.weak_bound  # entropy form is the tighter floor
    eq = delta_entropy_bound(4, 4, 7.0)
    assert eq.entropy_bound == pytest.approx(1 - 2.0**-7)
    vac = delta_entropy_bound(4, 8, 7.0)
    assert vac.weak_bound is None
    with pytest.raises(PreconditionError):
        delta_entropy_bound(4, 3, 7.0)


def test_report_exact_path():
    rep = erasure_report(pan5, 4)
    assert rep.method == "exact"
    assert rep.psi == rep.psi_tilde == rep.s_rho_exact == 200
    assert rep.delta_exact == rep.delta_lower == Fraction(20, 21)
    assert rep.ci_halfwidth is None
    assert rep.s_exact_or_estimate == 200


def test_report_takes_every_spectrum_from_one_provider(monkeypatch):
    calls = []
    monkeypatch.setattr(erasure, "oracle_spectrum", lambda c: calls.append(c) or oracle_spectrum(c))
    assert erasure_report(panchenko(6), 5).s_rho_exact == s_rho_exact(panchenko(6), 5)
    assert [c.spec.n for c in calls] == [20]  # the full-length spectrum, once


def _walked_lengths(monkeypatch):
    """Lengths of every row-space walk from here on: oracle_spectrum and
    shorten both reach spectrum_of_matrix through the spectrum module."""
    walks = []
    original = spectrum.spectrum_of_matrix
    monkeypatch.setattr(spectrum, "spectrum_of_matrix", lambda h: walks.append(h.cols) or original(h))
    return walks


def test_cli_walks_each_length_of_a_code_once(monkeypatch, tmp_path):
    walks = _walked_lengths(monkeypatch)
    argv = ["erasure", "--code", "pan7", "--rho-min", "4", "--rho-max", "8", "--psi", "--out", str(tmp_path / "e.csv")]
    assert cli.main(argv) == 0
    assert walks == [40]  # one provider for the four rho <= rank(H)
    walks.clear()
    argv = ["table", "--which", "1", "--codes", "pan7", "--rhos", "4,5,6,7", "--exact-limit", "0",
            "--samples", "100", "--out", str(tmp_path / "t.csv")]
    assert cli.main(argv) == 0
    assert walks == [40]
    walks.clear()
    argv = ["erasure", "--code", "eh8", "--rho-min", "8", "--rho-max", "8", "--psi", "--out", str(tmp_path / "e.csv")]
    assert cli.main(argv) == 0
    assert walks == [128, 124]  # the shortened length is walked once, distance check included


def test_shortening_never_lowers_a_stated_distance():
    pan6 = panchenko(6)
    overstated = Code(CodeSpec(pan6.spec.n, pan6.spec.r, 6), pan6.H)
    with pytest.raises(ConsistencyError, match="distance decreased"):
        shorten(overstated, [0])
    with pytest.raises(ConsistencyError, match="distance decreased"):
        trailing_shortening_provider(overstated)(pan6.spec.n - 1)


def test_report_below_distance():
    rep = erasure_report(pan5, 2)
    assert rep.delta_exact == 1
    assert rep.psi == math.comb(10, 2)


def test_report_beyond_rank_is_all_zero():
    rep = erasure_report(pan5, 7)
    assert rep.method == "exact"
    assert rep.s_rho_exact == 0
    assert rep.delta_exact == 0
    assert rep.psi == 0 and rep.psi_tilde == 0


def test_report_sampled_path():
    rep = erasure_report(panchenko(7), 6, method="sampled", samples=50000, master_seed=3)
    assert rep.method == "sampled"
    assert rep.sample is not None and rep.ci_halfwidth > 0
    exact = Fraction(s_rho_exact(panchenko(7), 6), math.comb(40, 6))
    assert abs(float(rep.delta_exact_or_estimate) - float(exact)) <= 4 * rep.sample.std_error


def test_report_psi_bound_path_and_z():
    rep = erasure_report(panchenko(7), 6, method="psi-bound", z=6.5)
    assert rep.s_rho_exact is None and rep.sample is None
    assert rep.entropy_bound is not None and rep.weak_bound is not None
    with pytest.raises(PreconditionError):
        erasure_report(pan5, 4, method="nonsense")


def test_report_delta_monotone_in_rho():
    deltas = [erasure_report(pan5, rho).delta_exact for rho in range(0, 6)]
    assert all(a >= b for a, b in zip(deltas, deltas[1:]))


def test_report_invariant_enforcement():
    with pytest.raises(ConsistencyError):
        ErasureReport(
            n=8, rho=4, total=70, psi=60, psi_tilde=60,
            delta_lower=Fraction(6, 7), delta_tilde=Fraction(6, 7),
            delta_tilde_2=Fraction(6, 7), method="exact",
            s_rho_exact=59, delta_exact=Fraction(59, 70),
        )


def test_table_single_row_matches_reference():
    cells = table1(codes=[("panchenko", panchenko(7))], rhos=(4, 5))
    assert [c.reference for c in cells] == ["0.9870", "0.9287"]
    for cell in cells:
        assert cell.report.method == "exact"
        assert abs(cell.deviation) <= 1e-4
