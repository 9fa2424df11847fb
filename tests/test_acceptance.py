"""End-to-end acceptance gate, one test per criterion.

Each test evaluates its whole criterion, prints a single PASS/FAIL line
(repeated in a summary block after the run, see conftest.py), and only then
asserts.  Heavy intermediates that several criteria share, exact erasure
enumerations and doubled spectra in particular, are cached at module level.
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from qpcodes.construct import (
    Code,
    admissible_g,
    admissible_lengths,
    covering_radius,
    extended_hamming,
    general_qp,
    panchenko,
    seed,
    shorten,
)
from qpcodes.erasure import (
    TABLE1_REFERENCE,
    psi,
    psi_tilde,
    s_rho_exact,
    s_rho_sampled,
    trailing_shortening_provider,
)
from qpcodes.errors import PreconditionError
from qpcodes.product_sim import SimConfig, decode, default_product_code, failure_probability
from qpcodes.spectrum import (
    WeightSpectrum,
    double_dual_spectrum_step,
    dual_spectrum,
    macwilliams,
    oracle_spectrum,
    spectrum_by_doubling,
)

CRITERION_LINES: list[str] = []

SEED_BY_G = {0: "M", 2: "S", 3: "example_9_5"}

# the d=4 family members with n <= 64, as (chain, r) pairs
D4_SMALL = (
    [("eh", r) for r in range(3, 8)]
    + [("pan", r) for r in range(5, 8)]
    + [("g3", r) for r in range(5, 8)]
)


def check(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}  {detail}"
    CRITERION_LINES.append(line)
    print(line)
    assert ok, line


@lru_cache(maxsize=None)
def chain_code(chain: str, r: int) -> Code:
    if chain == "eh":
        return seed("M") if r == 2 else extended_hamming(r)
    if chain == "pan":
        return seed("S") if r == 4 else panchenko(r)
    return seed("example_9_5") if r == 5 else general_qp(r, 3, seed("example_9_5"))


@lru_cache(maxsize=None)
def doubled_spectrum(chain: str, r: int) -> WeightSpectrum:
    return spectrum_by_doubling(chain_code(chain, r))


@lru_cache(maxsize=None)
def exact_count(chain: str, r: int, rho: int) -> int:
    return s_rho_exact(chain_code(chain, r), rho)


def test_criterion_01_doubling_recursion_matches_oracle():
    bad: list[str] = []
    count = 0
    for chain, rs in (("eh", range(3, 13)), ("pan", range(5, 13))):
        for r in rs:
            count += 1
            if doubled_spectrum(chain, r) != oracle_spectrum(chain_code(chain, r)):
                bad.append(f"{chain}{r}")
    for r in range(6, 10):
        for g in sorted(set(admissible_g(r)) & set(SEED_BY_G)):
            count += 1
            code = general_qp(r, g, seed(SEED_BY_G[g]))
            if spectrum_by_doubling(code) != oracle_spectrum(code):
                bad.append(f"general r={r} g={g}")
    check(1, not bad, f"recursion == oracle on all {count} codes" if not bad else f"mismatch: {bad}")


def test_criterion_02_known_spectrum_values():
    eh4 = oracle_spectrum(extended_hamming(4)).counts
    pan5 = oracle_spectrum(panchenko(5)).counts
    got = {
        "eh4 A4": eh4[4],
        "eh4 A8": eh4[8],
        "pan5 A0": pan5[0],
        "pan5 A4": pan5[4],
        "pan5 A5": pan5[5],
        "pan5 A8": pan5[8],
        "pan5 total": sum(pan5),
        "pan7 A4": oracle_spectrum(panchenko(7)).counts[4],
        "pan8 A4": oracle_spectrum(panchenko(8)).counts[4],
        "eh7 A4": oracle_spectrum(extended_hamming(7)).counts[4],
    }
    want = {
        "eh4 A4": 14,
        "eh4 A8": 1,
        "pan5 A0": 1,
        "pan5 A4": 10,
        "pan5 A5": 16,
        "pan5 A8": 5,
        "pan5 total": 32,
        "pan7 A4": 1190,
        "pan8 A4": 10300,
        "eh7 A4": 10416,
    }
    bad = [k for k in want if got[k] != want[k]]
    check(2, not bad, "all ten pinned counts match" if not bad else f"mismatch: {bad}")


def test_criterion_03_dual_step_matches_macwilliams_of_primal():
    steps = (
        [("eh", r) for r in range(3, 13)]
        + [("pan", r) for r in range(6, 13)]
        + [("g3", r) for r in range(7, 10)]
    )
    bad: list[str] = []
    for chain, r in steps:
        parent = chain_code(chain, r - 1)
        assert parent.spec.n % 2 == 0
        stepped = double_dual_spectrum_step(dual_spectrum(parent), r)
        primal = doubled_spectrum(chain, r)
        if stepped != macwilliams(primal, primal.dimension):
            bad.append(f"{chain}{r}")
    # steps from an odd half-length are refused rather than silently mishandled
    with pytest.raises(PreconditionError):
        double_dual_spectrum_step(dual_spectrum(chain_code("pan", 4)), 5)
    with pytest.raises(PreconditionError):
        double_dual_spectrum_step(dual_spectrum(chain_code("g3", 5)), 6)
    check(3, not bad, f"{len(steps)} even-half steps agree" if not bad else f"mismatch: {bad}")


def test_criterion_04_reference_grid_exact_regime():
    worst = 0.0
    for (label, r), row in TABLE1_REFERENCE.items():
        code = extended_hamming(r) if label == "hamming" else panchenko(r)
        ws = oracle_spectrum(code)
        for rho in (4, 5):
            delta = Fraction(psi(code.spec.n, 4, rho, ws), math.comb(code.spec.n, rho))
            worst = max(worst, abs(float(delta) - float(row[rho])))
    check(4, worst < 1e-4, f"eight printed cells at rho 4, 5; worst gap {worst:.2e}")


def test_criterion_05_reference_grid_extended_regime():
    problems: list[str] = []
    worst_exact = 0.0
    for chain, label in (("pan", "panchenko"), ("eh", "hamming")):
        code = chain_code(chain, 7)
        n = code.spec.n
        ws = oracle_spectrum(code)
        for rho in (6, 7):
            delta = Fraction(exact_count(chain, 7, rho), math.comb(n, rho))
            printed = float(TABLE1_REFERENCE[(label, 7)][rho])
            floor = Fraction(psi(n, 4, rho, ws), math.comb(n, rho))
            worst_exact = max(worst_exact, abs(float(delta) - printed))
            if abs(float(delta) - printed) > 1e-2:
                problems.append(f"{label}7 rho={rho} off by {abs(float(delta) - printed):.4f}")
            if delta < floor:
                problems.append(f"{label}7 rho={rho} below its closed-form floor")
    # the floor is strict for the length-64 code at rho = 6
    eh7 = extended_hamming(7)
    ratio = Fraction(psi(64, 4, 6, oracle_spectrum(eh7)), math.comb(64, 6))
    if not (abs(float(ratio) - 0.7385) < 1e-4 and ratio < Fraction("0.7469")):
        problems.append(f"floor at n=64 rho=6 is {float(ratio):.4f}, expected 0.7385 < 0.7469")
    worst_sampled = 0.0
    for chain, label in (("eh", "hamming"), ("pan", "panchenko")):
        code = chain_code(chain, 8)
        for rho in (6, 7):
            est = s_rho_sampled(code, rho, 10**8, 1)
            printed = float(TABLE1_REFERENCE[(label, 8)][rho])
            gap = abs(float(est.estimate) - printed)
            worst_sampled = max(worst_sampled, gap)
            if gap > max(1e-2, 3 * est.std_error):
                problems.append(f"{label}8 rho={rho} sampled off by {gap:.4f}")
    detail = f"exact cells within {worst_exact:.4f}, sampled cells within {worst_sampled:.4f}"
    check(5, not problems, detail if not problems else "; ".join(problems))


def test_sampled_grid_cells_are_exact_on_the_lattice():
    """The four r=8 cells criterion 5 samples, counted exactly, and within the
    1e-4 slack of their printed values. The budget is read in the units of
    the route that runs, so the default admits every cell, eh8 rho=7 with
    its C(128,7) = 9.45e10 subsets included; C(n, rho) is a looser one.
    The lattice route peels the doublings off H and visits the subspaces of
    the base: 67 of GF(2)^4 under the seed S for pan8, 2 of GF(2)^1 for eh8."""
    expect = {
        ("pan", "panchenko", 6): 265_359_360,
        ("pan", "panchenko", 7): 2_222_653_440,
        ("eh", "hamming", 6): 4_741_029_888,
        ("eh", "hamming", 7): 65_019_838_464,
    }
    for (chain, label, rho), count in expect.items():
        code = chain_code(chain, 8)
        total = math.comb(code.spec.n, rho)
        assert s_rho_exact(code, rho, budget=total) == count
        assert abs(count / total - float(TABLE1_REFERENCE[(label, 8)][rho])) <= 1e-4


def test_criterion_06_closed_form_is_exact_in_regime():
    bad: list[str] = []
    pairs = 0
    for chain, r in D4_SMALL:
        code = chain_code(chain, r)
        n = code.spec.n
        ws = oracle_spectrum(code)
        for rho in range(1, min(5, n) + 1):
            pairs += 1
            if exact_count(chain, r, rho) != psi(n, 4, rho, ws):
                bad.append(f"{chain}{r} rho={rho}")
    check(6, not bad, f"count == closed form on {pairs} (code, rho) pairs" if not bad else f"mismatch: {bad}")


def test_criterion_07_bound_ordering():
    bad: list[str] = []
    pairs = 0
    for chain, r in D4_SMALL:
        code = chain_code(chain, r)
        n = code.spec.n
        ws = oracle_spectrum(code)
        provider = trailing_shortening_provider(code)
        for rho in range(1, min(7, n) + 1):
            pairs += 1
            lo = psi(n, 4, rho, ws)
            mid = psi_tilde(n, 4, rho, provider)
            hi = exact_count(chain, r, rho)
            if not lo <= mid <= hi <= math.comb(n, rho):
                bad.append(f"{chain}{r} rho={rho}: {lo}, {mid}, {hi}")
    check(7, not bad, f"floor chain ordered on {pairs} (code, rho) pairs" if not bad else f"violated: {bad}")


def test_criterion_08_fewer_weight4_words_than_shortened_hamming():
    def a4(c: Code) -> int:
        return oracle_spectrum(c).counts[4]

    pan7 = a4(panchenko(7))
    eh8_40 = a4(shorten(extended_hamming(8), list(range(40, 128))))
    pan8_72 = a4(shorten(panchenko(8), list(range(72, 80))))
    eh8_72 = a4(shorten(extended_hamming(8), list(range(72, 128))))
    ok = pan7 < eh8_40 and pan8_72 < eh8_72
    check(8, ok, f"A_4 at n=40: {pan7} < {eh8_40}; at n=72: {pan8_72} < {eh8_72}")


def test_criterion_09_family_is_quasi_perfect():
    codes: list[tuple[str, Code]] = [(f"eh{r}", extended_hamming(r)) for r in range(3, 11)]
    codes += [(f"pan{r}", panchenko(r)) for r in range(5, 11)]
    for r in range(5, 11):
        for g in sorted(set(admissible_g(r)) & set(SEED_BY_G)):
            codes.append((f"general r={r} g={g}", general_qp(r, g, seed(SEED_BY_G[g]))))
    bad = [
        name
        for name, code in codes
        if covering_radius(code) != 2 or oracle_spectrum(code).min_nonzero() != 4
    ]
    check(9, not bad, f"radius 2 and distance 4 on all {len(codes)} codes" if not bad else f"failed: {bad}")


def test_criterion_10_admissible_length_classification():
    bad: list[str] = []
    for r in range(5, 13):
        got = admissible_lengths(r)
        want = [(g, 2 ** (r - 2) + 2 ** (r - 2 - g)) for g in [0] + list(range(2, r - 2))]
        if got != want:
            bad.append(f"r={r}: {got}")
        if 2 ** (r - 2) + 2 ** (r - 3) in {n for _, n in got}:
            bad.append(f"r={r} admits the g=1 length")
    check(10, not bad, "g in {0, 2..r-3} for r = 5..12, g = 1 length absent" if not bad else "; ".join(bad))


def test_criterion_11_product_decoder_properties():
    pc = default_product_code()
    parts: dict[str, bool] = {}
    notes: list[str] = []

    res0 = failure_probability(pc, SimConfig(p=0.0, d_plus=4, trials=10**6, master_seed=7))
    parts["a"] = res0.failures == 0 and res0.miscorrections == 0

    zero = np.zeros((pc.n_col, pc.n_row), dtype=np.uint8)
    bad_singles = 0
    for d_plus in (3, 4, 5, 6):
        for pos in range(pc.bits):
            received = zero.copy()
            received[pos // pc.n_row, pos % pc.n_row] = 1
            if decode(pc, received, d_plus).outcome != "success":
                bad_singles += 1
    parts["b"] = bad_singles == 0

    results = [
        failure_probability(pc, SimConfig(p=1e-2, d_plus=d_plus, trials=10**5, master_seed=11))
        for d_plus in (3, 4, 5, 6)
    ]
    fails = [res.failures for res in results]
    ests = [float(res.estimate) for res in results]
    parts["c"] = all(a >= b for a, b in zip(fails, fails[1:])) and all(0.85 <= e <= 1.0 for e in ests)
    notes.append("c: " + " >= ".join(f"{e:.4f}" for e in ests))

    r3 = failure_probability(pc, SimConfig(p=5e-3, d_plus=3, trials=10**5, master_seed=13))
    r6 = failure_probability(pc, SimConfig(p=5e-3, d_plus=6, trials=10**5, master_seed=13))
    parts["d"] = float(r6.estimate) <= float(r3.estimate) / 10
    notes.append(f"d: {float(r3.estimate):.4f} -> {float(r6.estimate):.4f} (need a 10x drop)")

    plain = results[1]
    strat = failure_probability(
        pc,
        SimConfig(p=1e-2, d_plus=4, trials=10**5, master_seed=17, strategy="stratified"),
        per_stratum=1000,
    )
    gap = abs(float(plain.estimate) - float(strat.estimate))
    joint = math.hypot(plain.ci95 / 1.96, strat.ci95 / 1.96)
    parts["e"] = gap <= 3 * joint
    notes.append(f"e: plain {float(plain.estimate):.4f} vs stratified {float(strat.estimate):.4f}")

    verdicts = " ".join(f"{k}:{'PASS' if v else 'FAIL'}" for k, v in parts.items())
    check(11, all(parts.values()), verdicts + "; " + "; ".join(notes))


def test_criterion_12_thread_count_never_changes_results():
    pc = default_product_code()
    threads = (1, 4, 8)
    runs: dict[str, set] = {
        "exact pan7 rho=6": {s_rho_exact(panchenko(7), 6, threads=t) for t in threads},
        "exact eh6 rho=7": {s_rho_exact(extended_hamming(6), 7, threads=t) for t in threads},
        "sampled pan8 rho=6": {s_rho_sampled(panchenko(8), 6, 10**6, 5, threads=t).hits for t in threads},
        "plain sim": {
            (res.failures, res.miscorrections, res.estimate)
            for res in (
                failure_probability(
                    pc, SimConfig(p=1e-2, d_plus=4, trials=4096, master_seed=21), threads=t
                )
                for t in threads
            )
        },
        "stratified sim": {
            (res.failures, res.estimate, res.tail_bound)
            for res in (
                failure_probability(
                    pc,
                    SimConfig(p=1.2e-3, d_plus=3, trials=10**4, master_seed=23, strategy="stratified"),
                    per_stratum=200,
                    threads=t,
                )
                for t in threads
            )
        },
    }
    bad = [name for name, values in runs.items() if len(values) != 1]
    check(12, not bad, "identical across 1, 4, 8 threads for all five surfaces" if not bad else f"varies: {bad}")
