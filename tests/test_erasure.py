import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from qpcodes import cli, erasure, spectrum
from qpcodes.construct import Code, CodeSpec, Lineage, extended_hamming, general_qp, panchenko, seed, shorten
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
from qpcodes.rng import DOMAIN_ERASURE_SAMPLING, derive_stream
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


def reversed_columns(code: Code) -> Code:
    """code with its columns in reverse order: the top row of a doubling
    then reads 1...1|0...0, so no doubling peels off H."""
    return bare_code(code.H.select_columns(range(code.spec.n - 1, -1, -1)))


@pytest.mark.parametrize("threads", [1, 3])
def test_exact_count_progress_fires_once_per_root(threads):
    # reversed, pan5 keeps rank 5 and takes the enumeration at rho = 4
    calls = []
    code = reversed_columns(pan5)
    s_rho_exact(code, 4, threads=threads, progress=lambda done, total: calls.append((done, total)))
    roots = 10 - 4 + 1
    assert calls == [(done, roots) for done in range(1, roots + 1)]


def test_exact_count_permutation_invariance():
    perm = [7, 2, 9, 0, 4, 1, 8, 3, 6, 5]
    permuted = bare_code(pan5.H.select_columns(perm))
    for rho in range(1, 6):
        assert s_rho_exact(permuted, rho) == s_rho_exact(pan5, rho)


def _routes_taken(monkeypatch) -> list[str]:
    """Names of the exact routes s_rho_exact runs from here on."""
    taken = []
    for name in ("_count_on_lattice", "_count_by_enumeration"):
        route = getattr(erasure, name)
        monkeypatch.setattr(erasure, name, lambda *a, _n=name, _r=route: taken.append(_n) or _r(*a))
    return taken


def _pan9_short88() -> Code:
    pan9 = panchenko(9)
    return shorten(pan9, list(range(pan9.spec.n - 88, pan9.spec.n)))


# (code, rho, subspaces of dimension <= rho in GF(2)^s of the base that the
# doublings peel down to, S_rho, route): the lattice runs iff the subspaces
# number no more than the C(n, rho) subsets
ROUTE_CELLS = {
    # base [1], 6 doublings
    "eh7-rho6": (lambda: extended_hamming(7), 6, 2, 55_996_416, "_count_on_lattice"),
    # base the seed S, 4 doublings
    "pan8-rho5": (lambda: panchenko(8), 5, 67, 23_191_680, "_count_on_lattice"),
    # no doubling left to peel; rank 8 below its 9 rows
    "pan9-short88-rho4": (_pan9_short88, 4, 308_993, 1_022_133, "_count_on_lattice"),
    "pan5-rho4": (lambda: pan5, 4, 67, 200, "_count_on_lattice"),
    "pan5-reversed-rho4": (lambda: reversed_columns(pan5), 4, 373, 200, "_count_by_enumeration"),
}


@pytest.mark.parametrize("cell", sorted(ROUTE_CELLS))
def test_exact_route_rule(monkeypatch, cell):
    build, rho, subspaces, count, route = ROUTE_CELLS[cell]
    code = build()
    base, _ = erasure._peel(code.H)
    s = base.rank()
    assert sum(erasure._gaussian_binomial(s, j) for j in range(min(rho, s) + 1)) == subspaces
    assert (subspaces <= math.comb(code.spec.n, rho)) == (route == "_count_on_lattice")
    taken = _routes_taken(monkeypatch)
    assert s_rho_exact(code, rho) == count
    assert taken == [route]


def test_gaussian_binomial_counts_subspaces():
    # the q-Pascal rule [m, k] = [m-1, k-1] + 2^k [m-1, k], from [0, 0] = 1,
    # with 0 outside 0 <= k <= m
    for m in range(7):
        for k in range(-1, m + 4):
            want = int(k == 0) if m == 0 else (
                erasure._gaussian_binomial(m - 1, k - 1) + 2**k * erasure._gaussian_binomial(m - 1, k)
            )
            assert erasure._gaussian_binomial(m, k) == (want if 0 <= k <= m else 0), (m, k)
    # and by brute force: every subspace of GF(2)^m, spanned one vector at a time
    for m in range(6):
        spaces = {frozenset([0])}
        frontier = set(spaces)
        while frontier:
            frontier = {u | {x ^ v for x in u} for u in frontier for v in range(1 << m)} - spaces
            spaces |= frontier
        dims = [len(u).bit_length() - 1 for u in spaces]
        assert [dims.count(k) for k in range(m + 4)] == [erasure._gaussian_binomial(m, k) for k in range(m + 4)]


def column_matrix(cols: list[int], nrows: int) -> BitMatrix:
    """The nrows x len(cols) matrix whose column j is the word cols[j]."""
    return BitMatrix(tuple(sum((c >> i & 1) << j for j, c in enumerate(cols)) for i in range(nrows)), len(cols))


def doubled(h: BitMatrix) -> BitMatrix:
    """h under one length doubling: a top row 0...0|1...1 over h twice."""
    n = h.cols
    return BitMatrix((((1 << n) - 1) << n,) + tuple(r | r << n for r in h.rows), 2 * n)


def with_zero_and_repeat(h: BitMatrix) -> BitMatrix:
    """h with a zero column and a copy of its first column appended."""
    cols = h.column_ints()
    return column_matrix(cols + [0, cols[0]], h.nrows)


# name: (H, rhos); each H has zero and repeated columns. The doubled one
# peels to a rank-4 base under m = 1; rank 10 stays at rho = 1 here, where
# its largest pivot set still needs 512 slices of one subspace
LATTICE_CASES = {
    "rank3": (column_matrix([0, 1, 2, 3, 3, 4, 0, 5, 6, 7, 1], 3), (1, 2, 3)),
    "rank5": (with_zero_and_repeat(structured_matrix(random.Random(5), 6, 5, 10)), (2, 3, 4, 5)),
    "rank6": (with_zero_and_repeat(structured_matrix(random.Random(6), 6, 6, 12)), (3, 4)),
    "rank5-doubled": (doubled(with_zero_and_repeat(structured_matrix(random.Random(4), 4, 4, 6))), (3, 4, 5)),
    "rank10": (with_zero_and_repeat(structured_matrix(random.Random(10), 10, 10, 14)), (1,)),
}


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("slice_", [1, 3, 4096])
def test_lattice_equals_enumeration_and_brute_force(monkeypatch, work_ceiling, slice_, threads):
    # every case has 11 <= n <= 16 columns, so an enumeration block of
    # 16 * slice_ // n prefixes holds one prefix, 3 or 4, or every prefix
    monkeypatch.setattr(erasure, "_LATTICE_SLICE", slice_)
    monkeypatch.setattr(erasure, "_SLICE", 16 * slice_)
    with work_ceiling(512 * 2**20, 60):
        for name, (h, rhos) in LATTICE_CASES.items():
            for rho in rhos:
                expect = brute_s_rho(h, rho)
                assert erasure._count_on_lattice(h, rho, threads, None) == expect, (name, rho)
                assert erasure._count_by_enumeration(h, rho, threads, None) == expect, (name, rho)
            # past rank(H) the frontier dies: at the last level, or one before it
            for rho in (h.rank() + 1, h.rank() + 2):
                assert erasure._count_by_enumeration(h, rho, threads, None) == 0, (name, rho)


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_rank_10_lattice_equals_brute_force(work_ceiling, threads):
    # 175,275 subspaces of dimension <= 2; pivot set (0, 1) alone takes 16 slices
    h = LATTICE_CASES["rank10"][0]
    assert erasure._peel(h) == (h, 0) and h.rank() == 10
    with work_ceiling(512 * 2**20, 60):
        assert erasure._count_on_lattice(h, 2, threads, None) == brute_s_rho(h, 2)


@pytest.mark.parametrize("n", [255, 256])
@pytest.mark.parametrize("rank", [2, 3])
def test_lattice_counts_reach_the_top_of_their_dtype(n, rank):
    # every column lies in GF(2)^rank, which the lattice visits as a subspace
    # at rho = rank, so x_U = n there: 255 fills uint8, and 256 needs uint16
    rng = random.Random(n * rank)
    cols = list(range(1 << rank)) + [rng.randrange(1 << rank) for _ in range(n - (1 << rank))]
    h = column_matrix(cols, rank)
    assert erasure._peel(h)[1] == 0
    assert np.min_scalar_type(n) == (np.uint8 if n == 255 else np.uint16)
    per_word = Counter(cols)
    for rho in range(1, rank + 1):
        expect = sum(
            math.prod(per_word[v] for v in words)
            for words in combinations(range(1, 1 << rank), rho)
            if gf2_rank(list(words)) == rho
        )
        assert erasure._count_on_lattice(h, rho, 2, None) == expect, rho


def every_subspace(s: int) -> set[frozenset]:
    """Every subspace of GF(2)^s as the set of its words, spanned one vector at a time."""
    spaces = frontier = {frozenset([0])}
    while frontier:
        frontier = {u | {x ^ v for x in u} for u in frontier for v in range(1 << s)} - spaces
        spaces = spaces | frontier
    return spaces


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("slice_", [1, 3, 4096])
def test_support_weights_equal_a_count_over_every_subspace(monkeypatch, slice_, threads):
    # hist[w][c]: the w-dimensional subspaces of GF(2)^s that hold c of the
    # base's column words, repeats and zeros counted, against every subspace
    monkeypatch.setattr(erasure, "_LATTICE_SLICE", slice_)
    for name in ("rank3", "rank5", "rank6"):
        base = LATTICE_CASES[name][0]
        assert erasure._peel(base)[1] == 0
        s, n = base.rank(), base.cols
        words = erasure._column_words(base).tolist()
        expect = np.zeros((s + 1, n + 1), dtype=np.int64)
        for u in every_subspace(s):
            expect[len(u).bit_length() - 1, sum(v in u for v in words)] += 1
        cnt = np.bincount(words, minlength=1 << s).astype(np.min_scalar_type(n))
        for w in range(s + 1):
            parts = [erasure._lattice_term(cnt, p) for p in combinations(range(s), w)]
            assert np.array_equal(sum(parts), expect[w]), (name, w)
        assert np.array_equal(erasure._support_weights(base, range(s + 1), threads, None), expect), name


def _pan10_first100() -> Code:
    pan10 = panchenko(10)
    return shorten(pan10, list(range(100, pan10.spec.n)))


# codes whose support weights at the top levels are checked against their
# dual spectra: (code, doublings peeled)
DUAL_CASES = {
    "eh8": (lambda: extended_hamming(8), 7),
    "pan8": (lambda: panchenko(8), 4),
    "pan10": (lambda: panchenko(10), 6),
    "eh12": (lambda: extended_hamming(12), 11),
    "g3-r8": (lambda: general_qp(8, 3, seed("example_9_5")), 3),
    "pan9-short88": (_pan9_short88, 0),
    "pan10-short100": (_pan10_first100, 0),
}


@pytest.mark.parametrize("name", list(DUAL_CASES))
def test_support_weights_lift_to_the_dual_spectrum(name):
    """A hyperplane of GF(2)^rank holding x columns is the kernel of one
    nonzero dual word, of weight n - x: level rank-1 of the lifted support
    weights is the dual spectrum, on the base and on the full code."""
    build, doublings = DUAL_CASES[name]
    code = build()
    base, m = erasure._peel(code.H)
    assert m == doublings
    s, nb, n, rank = base.rank(), base.cols, code.spec.n, code.H.rank()
    assert rank == s + m
    hist = erasure._support_weights(base, range(s - 1, s + 1), 2, None)
    assert hist.shape == (s + 1, nb + 1) and not hist[: s - 1].any()
    # the base: one hyperplane per nonzero dual word, and GF(2)^s holds every column
    base_dual = spectrum.row_space_spectrum(base).counts
    assert hist[s - 1].tolist() == [base_dual[nb - c] for c in range(nb)] + [0]
    assert hist[s].tolist() == [0] * nb + [1]
    # the full code, through the m doublings
    dual = spectrum.dual_spectrum(code).counts
    expect = {n - j: b for j, b in enumerate(dual) if j and b}
    top = {x: a for (i, x), a in erasure._lift(hist, m).items() if i == rank - 1 and a}
    assert top == expect
    if m:
        # level rank-1 takes W of dimension s under m - 1 doublings as well,
        # so the levels must run through dimension s
        short = {x: a for (i, x), a in erasure._lift(hist[:s], m).items() if i == rank - 1 and a}
        assert short != expect


@pytest.mark.parametrize("threads", [1, 3])
def test_lattice_progress_fires_once_per_pivot_set(threads, monkeypatch):
    # reversed, eh5 cannot peel, so its parts are the pivot sets of GF(2)^5
    taken = _routes_taken(monkeypatch)
    calls = []
    eh5 = reversed_columns(extended_hamming(5))
    count = s_rho_exact(eh5, 4, threads=threads, progress=lambda done, total: calls.append((done, total)))
    assert taken == ["_count_on_lattice"]
    assert count == brute_s_rho(eh5.H, 4)
    pivot_sets = sum(math.comb(5, j) for j in range(5))  # rank 5, dimensions 0..4
    assert calls == [(done, pivot_sets) for done in range(1, pivot_sets + 1)]


@pytest.mark.parametrize("threads", [1, 3])
def test_peeled_lattice_progress_fires_once_per_base_pivot_set(threads, monkeypatch):
    # eh5 peels to the 1x1 base [1] under 4 doublings: pivot sets () and (0,)
    taken = _routes_taken(monkeypatch)
    calls = []
    eh5 = extended_hamming(5)
    count = s_rho_exact(eh5, 4, threads=threads, progress=lambda done, total: calls.append((done, total)))
    assert taken == ["_count_on_lattice"]
    assert count == brute_s_rho(eh5.H, 4)
    assert calls == [(1, 2), (2, 2)]


@pytest.mark.parametrize(
    "code", [reversed_columns(pan5), extended_hamming(5)], ids=["enumeration", "lattice"]
)
def test_exact_count_refuses_zero_threads_on_both_routes(code):
    with pytest.raises(PreconditionError):
        s_rho_exact(code, 4, threads=0)


PEEL_GRID = {
    **{f"eh{r}": (lambda r=r: extended_hamming(r), r - 1, 1) for r in range(4, 9)},
    **{f"pan{r}": (lambda r=r: panchenko(r), r - 4, 4) for r in range(5, 9)},
    **{f"g3-r{r}": (lambda r=r: general_qp(r, 3, seed("example_9_5")), r - 5, 5) for r in (7, 8)},
}


@pytest.mark.parametrize("name", list(PEEL_GRID))
def test_peeled_count_equals_unpeeled(name):
    """Every rho <= min(rank, 7): the count through the doublings equals the
    count of the same columns in reverse order, which cannot peel."""
    build, doublings, seed_rank = PEEL_GRID[name]
    code = build()
    base, m = erasure._peel(code.H)
    assert (m, base.rank()) == (doublings, seed_rank)
    unpeeled = reversed_columns(code)
    assert erasure._peel(unpeeled.H)[1] == 0
    n, rank = code.spec.n, code.H.rank()
    for rho in range(1, min(rank, 7) + 1):
        budget = math.comb(n, rho)
        assert s_rho_exact(code, rho, budget=budget) == s_rho_exact(unpeeled, rho, budget=budget)


def test_one_row_matrix_does_not_peel():
    h = BitMatrix((0b11110000,), 8)  # 0...0|1...1: a doubling of no rows
    assert erasure._peel(h) == (h, 0)
    for rho in range(0, 3):
        expect = brute_s_rho(h, rho) if rho else 1
        assert s_rho_exact(bare_code(h), rho) == expect


def test_unequal_halves_do_not_peel():
    # eh4 with one bit of row 1 flipped in the high half: row 0 still reads
    # 0...0|1...1, but row 1 is no longer r | r << 4
    h = BitMatrix((eh4.H.rows[0], eh4.H.rows[1] ^ 1 << 7) + eh4.H.rows[2:], 8)
    assert erasure._peel(h) == (h, 0)
    for rho in range(1, 5):
        assert s_rho_exact(bare_code(h), rho) == brute_s_rho(h, rho)


def test_top_row_out_of_place_does_not_peel():
    eh5 = extended_hamming(5)
    moved = bare_code(BitMatrix(eh5.H.rows[1:] + eh5.H.rows[:1], eh5.spec.n))
    assert erasure._peel(moved.H)[1] == 0
    assert erasure._peel(eh5.H)[1] == 4
    for rho in range(1, 6):
        assert s_rho_exact(moved, rho) == s_rho_exact(eh5, rho)


# (code, rho, S_rho) past r = 8: each one pass over its seed's subspaces
LARGE_EXACT = {
    "pan9-rho7": (lambda: panchenko(9), 7, 394_499_194_880),
    "eh9-rho7": (lambda: extended_hamming(9), 7, 11_053_372_538_880),
    "pan10-rho8": (lambda: panchenko(10), 8, 2_045_370_527_907_840),
}


@pytest.mark.parametrize("cell", list(LARGE_EXACT))
def test_exact_counts_past_r8_are_pinned(cell):
    build, rho, count = LARGE_EXACT[cell]
    code = build()
    assert s_rho_exact(code, rho, budget=math.comb(code.spec.n, rho)) == count


@pytest.mark.parametrize("cell", ["eh9-rho7", "pan10-rho8"])
def test_sampler_is_within_four_sigma_of_exact_past_r8(cell):
    # 200,000 samples, as the benchmark's large-r cells draw
    build, rho, count = LARGE_EXACT[cell]
    code = build()
    est = s_rho_sampled(code, rho, 200_000, master_seed=11)
    exact = Fraction(count, math.comb(code.spec.n, rho))
    assert abs(float(est.estimate - exact)) <= 4 * est.std_error


def test_exact_count_budget_refusal():
    with pytest.raises(BudgetError) as err:
        s_rho_exact(extended_hamming(7), 7, budget=10**6)
    assert str(math.comb(64, 7)) in str(err.value)


def test_exact_count_above_rank_is_zero_whatever_the_budget():
    # no 9 columns of a rank-8 H are independent; C(128, 9) is over the budget
    code = extended_hamming(8)
    assert code.rank() == 8 and math.comb(128, 9) > 10**10
    assert s_rho_exact(code, 9) == 0
    assert s_rho_exact(code, 9, budget=0) == 0


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


def test_sampled_hits_are_pinned():
    # the index dtype narrows (uint8 at n = 80, uint16 at n = 512) only after
    # the uint32 draw, which gives the int64 draw's indices, so these totals
    # of int64 indices must not move
    assert s_rho_sampled(panchenko(8), 7, 300_000, master_seed=5).hits == 210_103
    assert s_rho_sampled(extended_hamming(10), 6, 100_000, master_seed=8).hits == 96_851


def test_sampled_hits_with_mostly_repeated_draws_are_pinned():
    # at n = 10, rho = 5 about 70% of drawn rows repeat an index and are
    # redrawn, so these totals pin the redraw count, within one chunk and
    # across two
    assert s_rho_sampled(pan5, 5, 200_000, master_seed=3).hits == 139_475
    assert s_rho_sampled(pan5, 5, (1 << 20) + 5000, master_seed=4).hits == 735_549


@pytest.mark.parametrize("n", [1, 2, 10, 80, 128, 1280, 5 << 15, 1 << 18, (1 << 31) + 1])
def test_uint32_draws_continue_one_int64_draw(n):
    # the sampler draws its rows in batches of uint32 indices; the pinned
    # totals hold only while, for ranges below 2^32, numpy draws uint32 and
    # int64 by the same 32-bit method and each call continues the stream
    # where the last stopped (odd sizes leave half a 64-bit word over)
    rows, rho = 3000, 7
    whole = derive_stream(6, DOMAIN_ERASURE_SAMPLING, 2).integers(0, n, size=(rows, rho), dtype=np.int64)
    rng = derive_stream(6, DOMAIN_ERASURE_SAMPLING, 2)
    parts = [rng.integers(0, n, size=(m, rho), dtype=np.uint32) for m in (1, 3, 17, 999, rows - 1020)]
    assert np.array_equal(np.concatenate(parts), whole)


# (code, rho, samples, seed, hits) pinned above: one chunk and two, and
# about 70% of rows redrawn at pan5 rho = 5
PINNED_HITS = [
    (pan5, 4, 5000, 9, 4746),
    (pan5, 5, 200_000, 3, 139_475),
    (pan5, 5, (1 << 20) + 5000, 4, 735_549),
    (panchenko(8), 7, 300_000, 5, 210_103),
]


@pytest.mark.parametrize("batch", [4097, 1 << 20])
def test_hit_batch_is_not_part_of_the_plan(monkeypatch, batch):
    monkeypatch.setattr(erasure, "_HIT_BATCH", batch)
    for code, rho, samples, seed, hits in PINNED_HITS:
        for threads in (1, 2, 5):
            assert s_rho_sampled(code, rho, samples, seed, threads=threads).hits == hits


def test_one_row_batches_read_the_same_rows(monkeypatch):
    # a kernel call per drawn row, so only the smallest pinned total runs in
    # full; short runs of the others must match the default batch
    runs = [(pan5, 5, 1000, 3), (panchenko(8), 7, 1000, 5)]
    expect = [s_rho_sampled(*run).hits for run in runs]
    monkeypatch.setattr(erasure, "_HIT_BATCH", 1)
    assert s_rho_sampled(pan5, 4, 5000, 9).hits == 4746
    assert [s_rho_sampled(*run, threads=2).hits for run in runs] == expect


def test_sampler_memory_does_not_grow_with_samples():
    # a 2^16-row batch of pan8 rho = 7 peaks near 2.3 MB; holding a whole
    # 2^20-sample chunk's draw at once would take over 60 MB
    s_rho_sampled(panchenko(8), 7, 1, 11, threads=1)  # first-call set-up
    peaks = []
    for samples in (1 << 16, 1 << 20):
        tracemalloc.start()
        try:
            s_rho_sampled(panchenko(8), 7, samples, 11, threads=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.1 * peaks[0], peaks


def test_enumeration_memory_is_bounded_by_its_blocks():
    # the j0 = 0 part of pan9-short88 rho = 5 peaks near 2.6 MiB when a block
    # holds _SLICE // n prefixes; one block per level (or _SLICE = 2^22, the
    # whole frontier here) pairs every prefix at once and peaks near 20 MiB
    h = _pan9_short88().H
    cols = erasure._column_words(h)
    erasure._count_independent_below(cols, h.cols, 5, 0)  # first-call set-up
    tracemalloc.start()
    try:
        hits = erasure._count_independent_below(cols, h.cols, 5, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hits == 936_875
    assert peak < 7 * 2**20, peak


def test_enumeration_memory_does_not_grow_with_the_frontier():
    # the j0 = 0 part of pan10-short100 rho = 6 has 66,683,808 subsets under
    # millions of independent prefixes; walked depth-first it holds one block
    # per level and peaks near 7.0 MiB, where holding a whole level took 149.5
    h = _pan10_first100().H
    cols = erasure._column_words(h)
    erasure._count_independent_below(cols, h.cols, 5, 0)  # first-call set-up
    tracemalloc.start()
    try:
        hits = erasure._count_independent_below(cols, h.cols, 6, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hits == 66_683_808
    assert peak < 16 * 2**20, peak


def test_one_batch_gathers_without_a_batch_wide_intp_copy():
    # a 2^16-row batch of pan8 rho = 7: 0.46 MB of uint8 indices and as many
    # gathered words. Widening the whole batch to intp first (3.7 MB) peaked
    # at 4.1 MB; one row at a time it peaks near 1.05 MB
    cols = erasure._column_words(panchenko(8).H)
    idx = np.random.default_rng(1).integers(0, 80, size=(7, 1 << 16), dtype=np.uint8)
    erasure._count_hits(cols, idx[:, :16])  # first-call set-up
    tracemalloc.start()
    try:
        hits = erasure._count_hits(cols, idx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hits == erasure._count_hits(cols, idx.astype(np.int64))
    assert peak < 1.5 * 2**20, peak


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
            assert erasure._count_hits(words, idxs.T) == sum(expect)
            # and subset by subset, so that no two errors can cancel in the totals
            for pick in rng.sample(range(len(subsets)), min(200, len(subsets))):
                assert erasure._count_hits(words, idxs[pick : pick + 1].T) == expect[pick]


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
    assert rep.delta_lower == delta_lower(12, c.spec.d, 7, oracle_spectrum(c)) == 0
    assert rep.delta_exact == Fraction(rep.s_rho_exact, math.comb(12, 7))


def test_delta_floors_agree_with_the_report():
    # eh6 at rho = 7, past its rank: psi and both refinements dip below zero;
    # the public deltas floor them at 0, as the report's are, and psi keeps its sign
    code = extended_hamming(6)
    s, prov = oracle_spectrum(code), trailing_shortening_provider(code)
    rep = erasure_report(code, 7)
    assert psi(32, 4, 7, s) < 0 and psi_tilde(32, 4, 7, prov) < 0 and psi_tilde(32, 4, 7, prov, depth=2) < 0
    assert delta_lower(32, 4, 7, s) == delta_tilde(32, 4, 7, prov) == delta_tilde_2(32, 4, 7, prov) == 0
    assert rep.delta_lower == rep.delta_tilde == rep.delta_tilde_2 == 0


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
    """Lengths of every row-space walk from here on, counted through the
    spectrum module and through any binding of its own the cli holds."""
    walks = []
    original = spectrum.spectrum_of_matrix

    def counted(h):
        walks.append(h.cols)
        return original(h)

    monkeypatch.setattr(spectrum, "spectrum_of_matrix", counted)
    monkeypatch.setattr(cli, "spectrum_of_matrix", counted, raising=False)
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


def test_cli_walks_a_matrix_file_once(monkeypatch, tmp_path):
    matrix = str(tmp_path / "pan7.txt")
    assert cli.main(["construct", "--family", "panchenko", "--r", "7", "--out", matrix]) == 0
    walks = _walked_lengths(monkeypatch)
    argv = ["erasure", "--code", matrix, "--rho-min", "4", "--rho-max", "7", "--psi", "--out", str(tmp_path / "e.csv")]
    assert cli.main(argv) == 0
    assert walks == [40]  # the distance check's walk serves the report too
    walks.clear()
    argv = ["spectrum", "--code", matrix, "--method", "oracle", "--out", str(tmp_path / "s.json")]
    assert cli.main(argv) == 0
    assert walks == [40]


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


@pytest.mark.parametrize("rho,off", [(5, -1), (5, 1), (6, -1)])
def test_report_checks_a_count_against_psi_where_psi_is_exact(monkeypatch, rho, off):
    # pan6 (d = 4): psi = S = 13,248 at rho = 5, inside the exact regime;
    # at rho = 6 psi = 19,440 is only a floor under S = 20,480
    code = panchenko(6)
    true = s_rho_exact(code, rho)
    monkeypatch.setattr(erasure, "s_rho_exact", lambda c, r: true + off)
    if is_exact_regime(4, rho):
        with pytest.raises(ConsistencyError, match="psi"):
            erasure_report(code, rho)
    else:
        assert erasure_report(code, rho).s_rho_exact == true + off


def test_cli_exits_3_when_a_count_misses_an_exact_psi(monkeypatch, tmp_path, capsys):
    true = s_rho_exact(panchenko(6), 5)
    monkeypatch.setattr(erasure, "s_rho_exact", lambda c, r: true - 1)
    argv = ["erasure", "--code", "panchenko6", "--rho-min", "5", "--rho-max", "5", "--exact"]
    assert cli.main(argv + ["--out", str(tmp_path / "e.csv")]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "psi" in err, err


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
