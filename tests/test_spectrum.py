import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpcodes.construct import (
    Code,
    CodeSpec,
    Lineage,
    extended_hamming,
    general_qp,
    panchenko,
    seed,
    shorten,
)
from qpcodes.errors import BudgetError, ConsistencyError, PreconditionError
from qpcodes.gf2 import BitMatrix
from qpcodes.spectrum import (
    WeightSpectrum,
    comb0,
    double_dual_spectrum_step,
    double_spectrum_step,
    dual_spectrum,
    macwilliams,
    oracle_spectrum,
    row_space_spectrum,
    spectrum_by_doubling,
    spectrum_of_matrix,
)


def brute_primal(h: BitMatrix) -> WeightSpectrum:
    # reference: test H x = 0 for every x in GF(2)^n directly
    cols = h.column_ints()
    counts = [0] * (h.cols + 1)
    for x in range(1 << h.cols):
        s = 0
        xx = x
        while xx:
            s ^= cols[(xx & -xx).bit_length() - 1]
            xx &= xx - 1
        if s == 0:
            counts[x.bit_count()] += 1
    return WeightSpectrum(h.cols, tuple(counts))


def brute_row_space(h: BitMatrix) -> WeightSpectrum:
    words = {0}
    for mask in range(1, 1 << h.nrows):
        w = 0
        for i in range(h.nrows):
            if (mask >> i) & 1:
                w ^= h.rows[i]
        words.add(w)
    counter = Counter(w.bit_count() for w in words)
    return WeightSpectrum(h.cols, tuple(counter.get(i, 0) for i in range(h.cols + 1)))


def test_comb0_convention():
    assert comb0(5, 2) == 10
    assert comb0(5, 0) == 1
    assert comb0(3, 5) == 0
    assert comb0(-1, 0) == 0
    assert comb0(4, -1) == 0


def test_weight_spectrum_validation():
    with pytest.raises(PreconditionError):
        WeightSpectrum(3, (1, 0, 0))  # wrong length
    with pytest.raises(PreconditionError):
        WeightSpectrum(2, (1, -1, 0))
    with pytest.raises(PreconditionError):
        WeightSpectrum(2, (0, 1, 1))  # zero word missing
    with pytest.raises(ConsistencyError):
        _ = WeightSpectrum(2, (1, 2, 0)).dimension


def test_json_round_trip_uses_decimal_strings():
    s = oracle_spectrum(panchenko(5))
    obj = s.to_json()
    assert obj == {"n": 10, "k": 5, "counts": {"0": "1", "4": "10", "5": "16", "8": "5"}}


def test_oracle_matches_exhaustive_search_on_small_codes():
    cases = [
        seed("M").H,
        seed("S").H,
        seed("EH3").H,
        seed("example_9_5").H,
        extended_hamming(4).H,
        panchenko(5).H,
        shorten(extended_hamming(4), [7]).H,
    ]
    rng = random.Random(11)
    for _ in range(25):
        nrows = rng.randint(1, 5)
        cols = rng.randint(2, 9)
        rows = tuple(rng.randrange(1 << cols) for _ in range(nrows))
        if all(r == 0 for r in rows):
            rows = (1,) + rows[1:]
        cases.append(BitMatrix(rows, cols))
    for h in cases:
        assert spectrum_of_matrix(h) == brute_primal(h)


def test_row_space_spectrum_matches_subset_enumeration():
    rng = random.Random(23)
    for _ in range(25):
        nrows = rng.randint(1, 6)
        cols = rng.randint(1, 12)
        rows = [rng.randrange(1 << cols) for _ in range(nrows)]
        rows.append(rows[0])  # force a dependent row
        h = BitMatrix(tuple(rows), cols)
        assert row_space_spectrum(h) == brute_row_space(h)


def test_frozen_small_spectra():
    eh4 = oracle_spectrum(extended_hamming(4))
    assert eh4.nonzero_items() == [(0, 1), (4, 14), (8, 1)]
    p5 = oracle_spectrum(panchenko(5))
    assert p5.nonzero_items() == [(0, 1), (4, 10), (5, 16), (8, 5)]
    s = oracle_spectrum(seed("S"))
    assert s.nonzero_items() == [(0, 1), (5, 1)]
    assert s.min_nonzero() == 5
    g3 = oracle_spectrum(seed("example_9_5"))
    assert g3.min_nonzero() == 4
    assert g3.total == 16


def test_doubling_recursion_equals_oracle_across_family():
    codes = [extended_hamming(r) for r in range(3, 12)]
    codes += [panchenko(r) for r in range(5, 14)]
    codes += [general_qp(r, 3, seed("example_9_5")) for r in range(6, 11)]
    for code in codes:
        assert spectrum_by_doubling(code) == oracle_spectrum(code)


def test_panchenko_a4_chain():
    got = [spectrum_by_doubling(panchenko(r)).counts[4] for r in range(5, 9)]
    assert got == [10, 125, 1190, 10300]


def test_extended_hamming_a4_closed_form():
    for r in range(4, 11):
        s = spectrum_by_doubling(extended_hamming(r))
        n = s.n
        assert s.counts[4] == n * (n - 1) * (n - 2) // 24


def test_extended_hamming_64_values():
    s = spectrum_by_doubling(extended_hamming(7))
    assert s.counts[4] == 10416
    assert s.counts[6] == 1166592
    assert s.dimension == 57


def test_doubling_step_dimension_bookkeeping():
    s = oracle_spectrum(panchenko(8))
    assert (s.n, s.dimension) == (80, 72)


def explicit_doubling(s: WeightSpectrum) -> WeightSpectrum:
    # reference: the two sums of double_spectrum_step's docstring, term by term
    half = s.n

    def a(w):
        return s.counts[w] if w <= half else 0

    out = [0] * (2 * half + 1)
    for v in range(half + 1):
        d_v = comb0(half, v) if v % 2 == 0 else 0
        out[2 * v] = d_v + sum(
            2 ** (2 * v - 2 * j - 1) * a(2 * v - 2 * j) * comb0(half - 2 * v + 2 * j, j)
            for j in range(v - 1)
        )
        if v < half:
            out[2 * v + 1] = sum(
                2 ** (2 * v - 2 * j) * a(2 * v + 1 - 2 * j) * comb0(half - 2 * v - 1 + 2 * j, j)
                for j in range(v - 1)
            )
    return WeightSpectrum(2 * half, tuple(out))


@st.composite
def half_spectra(draw):
    """A_0 = 1, A_1..3 = 0, and A_w up to 2^64 above; in the skewed case one
    weight holds nearly all of the total, so its output count reaches the top
    limb the recursion sizes from the doubled total."""
    half = draw(st.integers(1, 40))
    skewed = half >= 4 and draw(st.booleans())
    high = draw(st.lists(st.integers(0, 3 if skewed else 2**64),
                         min_size=max(half - 3, 0), max_size=max(half - 3, 0)))
    counts = ([1, 0, 0, 0] + high)[: half + 1]
    if skewed:
        counts[draw(st.integers(4, half))] = draw(st.integers(2**60, 2**64))
    return WeightSpectrum(half, tuple(counts))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(s=half_spectra())
def test_doubling_step_equals_the_explicit_sums(s):
    assert double_spectrum_step(s) == explicit_doubling(s)


def _long_run_spectrum(half: int, case: str) -> WeightSpectrum:
    counts = [1, 0, 0, 0] + [0] * (half - 3)
    if case == "a4-only":
        # a single term at w = 4, then half - 4 steps with no new term
        counts[4] = 2**64 + 1
    elif case == "odd-heavy":
        # one odd weight holds nearly all of the total, so its output counts
        # reach the top limb sized from the doubled total
        counts[4:] = [3] * (half - 3)
        counts[2 * (half // 4) + 1] = 2**200
    else:
        rng = random.Random(half)
        counts[4:] = [rng.randrange(2**200) for _ in range(half - 3)]
        if case == "even-dense-2^200":
            # an even code, whose step keeps only the even rows
            counts[5::2] = [0] * len(counts[5::2])
    return WeightSpectrum(half, tuple(counts))


@pytest.mark.parametrize("case", ["a4-only", "odd-heavy", "dense-2^200", "even-dense-2^200"])
@pytest.mark.parametrize("half", [64, 150, 151])
def test_doubling_step_equals_the_explicit_sums_over_long_runs(half, case):
    # far more Horner steps than the property test above, so many carry passes
    s = _long_run_spectrum(half, case)
    assert double_spectrum_step(s) == explicit_doubling(s)


@pytest.mark.parametrize(
    "family, r", [("eh", r) for r in range(4, 12)] + [("pan", r) for r in range(5, 12)]
)
def test_doubling_step_is_the_macwilliams_conjugate_of_the_dual_step(family, r):
    # an independent reference on real codes: double the dual spectrum, which
    # only moves weights, and transform it back; up to half = 1,024 here
    code = extended_hamming(r) if family == "eh" else panchenko(r)
    dual = double_dual_spectrum_step(dual_spectrum(code), r + 1)
    assert double_spectrum_step(oracle_spectrum(code)) == macwilliams(dual, r + 1)


def test_doubling_step_refuses_low_weight():
    # a single-parity-check matrix has weight-2 codewords
    spc = spectrum_of_matrix(BitMatrix((0b1111,), 4))
    assert spc.counts[2] == 6
    with pytest.raises(PreconditionError):
        double_spectrum_step(spc)


def test_dual_step_matches_direct_dual():
    for r in range(3, 9):
        stepped = double_dual_spectrum_step(dual_spectrum(extended_hamming(r)), r + 1)
        assert stepped == dual_spectrum(extended_hamming(r + 1))
    stepped = double_dual_spectrum_step(dual_spectrum(panchenko(6)), 7)
    assert stepped == dual_spectrum(panchenko(7))


def test_dual_step_refuses_odd_half_length():
    with pytest.raises(PreconditionError):
        double_dual_spectrum_step(dual_spectrum(seed("S")), 5)


def test_dual_step_checks_total():
    with pytest.raises(ConsistencyError):
        double_dual_spectrum_step(dual_spectrum(extended_hamming(4)), 6)


def test_dual_and_macwilliams_commute():
    for code in (extended_hamming(5), panchenko(6)):
        primal = oracle_spectrum(code)
        assert macwilliams(primal, primal.dimension) == dual_spectrum(code)


def test_macwilliams_trivial_code_gives_full_space():
    out = macwilliams(WeightSpectrum(2, (1, 0, 0)), 0)
    assert out.counts == (1, 2, 1)


def test_macwilliams_involution_and_self_dual_point():
    p5 = oracle_spectrum(panchenko(5))
    assert macwilliams(macwilliams(p5, 5), 5) == p5
    eh4 = oracle_spectrum(extended_hamming(4))
    assert macwilliams(eh4, 4) == eh4  # the [8,4,4] code is self-dual


def test_macwilliams_rejects_wrong_dimension():
    with pytest.raises(PreconditionError):
        macwilliams(WeightSpectrum(2, (1, 0, 0)), 1)


def test_macwilliams_flags_invalid_spectrum():
    with pytest.raises(ConsistencyError):
        macwilliams(WeightSpectrum(4, (1, 0, 0, 3, 0)), 2)


def test_spectrum_by_doubling_refuses_off_family_codes():
    with pytest.raises(PreconditionError):
        spectrum_by_doubling(shorten(extended_hamming(5), [15]))
    bare = Code(CodeSpec(4, 1, 2, Lineage()), BitMatrix((0b1111,), 4))
    with pytest.raises(PreconditionError):
        spectrum_by_doubling(bare)


@pytest.mark.parametrize("route", [oracle_spectrum, spectrum_by_doubling])
@pytest.mark.parametrize("r", [18, 19])
def test_spectrum_past_the_budget_is_refused_in_little_memory(work_ceiling, route, r):
    # eh18 and eh19 are under the length cap, but their spectra would take
    # about 2 and 8 GiB
    code = extended_hamming(r)
    tracemalloc.start()
    try:
        with work_ceiling(512 * 2**20, 5), pytest.raises(BudgetError, match="budget"):
            route(code)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("code", [panchenko(15), extended_hamming(14)], ids=["pan15", "eh14"])
def test_doubling_past_its_work_budget_is_refused(work_ceiling, code):
    # the bit budget admits both, but the chain would run for minutes or more
    with work_ceiling(512 * 2**20, 5), pytest.raises(BudgetError, match="work budget"):
        spectrum_by_doubling(code)
