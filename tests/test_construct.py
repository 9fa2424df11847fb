import tracemalloc
from itertools import combinations

import pytest

from qpcodes.construct import (
    SEED_NAMES,
    Code,
    CodeSpec,
    Lineage,
    admissible_lengths,
    covering_radius,
    double,
    extended_hamming,
    general_qp,
    is_quasi_perfect,
    panchenko,
    peel,
    seed,
    shorten,
)
from qpcodes.errors import BudgetError, PreconditionError
from qpcodes.gf2 import BitMatrix, gf2_rank


def matrix_lines(code):
    return code.H.to_text().splitlines()[1:]


def hamming_734():
    # all seven nonzero syndromes as columns, the perfect [7,4,3] code
    rows = []
    for bit in range(3):
        acc = 0
        for j in range(7):
            if ((j + 1) >> bit) & 1:
                acc |= 1 << j
        rows.append(acc)
    h = BitMatrix(tuple(rows), 7)
    return Code(CodeSpec(7, 3, 3, Lineage()), h)


def min_cover_depths(h: BitMatrix, max_depth: int) -> dict[int, int]:
    # reference: least number of columns summing to each reachable syndrome,
    # by direct subset search (no BFS)
    cols = h.column_ints()
    depth = {0: 0}
    for size in range(1, max_depth + 1):
        for subset in combinations(cols, size):
            s = 0
            for c in subset:
                s ^= c
            depth.setdefault(s, size)
    return depth


def test_seed_m_literal():
    c = seed("M")
    assert matrix_lines(c) == ["01", "11"]
    assert (c.spec.n, c.spec.r, c.spec.d) == (2, 2, None)
    assert c.dimension() == 0


def test_seed_s_literal():
    c = seed("S")
    assert matrix_lines(c) == ["10001", "01001", "00101", "00011"]
    assert (c.spec.n, c.spec.r, c.spec.d) == (5, 4, 5)
    assert c.dimension() == 1


def test_seed_eh3_is_double_of_m():
    c = seed("EH3")
    assert matrix_lines(c) == ["0011", "0101", "1111"]
    assert (c.spec.n, c.spec.r, c.spec.d) == (4, 3, 4)
    assert c.H == double(seed("M")).H


def test_seed_example_9_5_literal():
    c = seed("example_9_5")
    assert matrix_lines(c) == [
        "000001111",
        "100010000",
        "010011001",
        "001010101",
        "000110011",
    ]
    assert (c.spec.n, c.spec.r, c.spec.d) == (9, 5, 4)
    assert c.H.rank() == 5
    assert c.dimension() == 4


def test_seed_unknown_name():
    with pytest.raises(PreconditionError):
        seed("Q")


def test_double_structure():
    for base in (seed("S"), seed("EH3"), seed("example_9_5")):
        c = double(base)
        n = base.spec.n
        assert c.spec.n == 2 * n
        assert c.spec.r == base.spec.r + 1
        top = c.H.rows[0]
        assert top == ((1 << n) - 1) << n  # zeros left, ones right
        for old, new in zip(base.H.rows, c.H.rows[1:]):
            assert new & ((1 << n) - 1) == old
            assert new >> n == old


def test_double_length_growth():
    c = seed("S")
    for k in range(1, 5):
        c = double(c)
        assert c.spec.n == 5 * 2**k


def test_double_distance_bookkeeping():
    assert double(seed("M")).spec.d == 4  # zero code counts as d >= 4
    assert double(seed("S")).spec.d == 4  # d=5 drops to 4
    assert double(hamming_734()).spec.d == 3  # d=3 stays 3
    with pytest.raises(PreconditionError):
        double(Code(CodeSpec(2, 1, 2, Lineage()), BitMatrix((0b11,), 2)))


# a chain starts from each seed, and from two codes that peel nothing
PEEL_STARTS = {
    **{name: lambda name=name: seed(name) for name in SEED_NAMES},
    "eh5-short1": lambda: shorten(extended_hamming(5), [15]),
    "hamming_734": hamming_734,
}


@pytest.mark.parametrize("start", list(PEEL_STARTS))
def test_peel_undoes_each_doubling(start):
    c = PEEL_STARTS[start]()
    base, m = peel(c.H)
    for _ in range(4):
        c = double(c)
        m += 1
        assert peel(c.H) == (base, m)


# what each family peels to, by r: (base, doublings)
PEELED_FAMILIES = {
    **{f"eh{r}": (lambda r=r: extended_hamming(r), BitMatrix((1,), 1), r - 1) for r in range(3, 10)},
    **{f"pan{r}": (lambda r=r: panchenko(r), seed("S").H, r - 4) for r in range(5, 10)},
    **{
        f"g3-r{r}": (lambda r=r: general_qp(r, 3, seed("example_9_5")), seed("example_9_5").H, r - 5)
        for r in range(6, 10)
    },
}


@pytest.mark.parametrize("name", list(PEELED_FAMILIES))
def test_each_family_peels_to_its_seed(name):
    build, base, m = PEELED_FAMILIES[name]
    assert peel(build().H) == (base, m)


def test_family_builders_stop_at_the_length_cap():
    assert extended_hamming(19).spec.n == 1 << 18  # the longest a doubling may build
    for build in (lambda: extended_hamming(20), lambda: extended_hamming(30),
                  lambda: panchenko(20), lambda: general_qp(30, 0, seed("M"))):
        with pytest.raises(BudgetError):
            build()


def test_extended_hamming_dimensions():
    assert (extended_hamming(3).spec.n, extended_hamming(3).dimension()) == (4, 1)
    assert (extended_hamming(4).spec.n, extended_hamming(4).dimension()) == (8, 4)
    assert (extended_hamming(7).spec.n, extended_hamming(7).dimension()) == (64, 57)
    with pytest.raises(PreconditionError):
        extended_hamming(2)


def test_panchenko_dimensions_and_block_equality():
    # the block/doubling equality is asserted inside general_qp on every call
    p5 = panchenko(5)
    assert (p5.spec.n, p5.spec.r, p5.dimension(), p5.spec.d) == (10, 5, 5, 4)
    p8 = panchenko(8)
    assert (p8.spec.n, p8.dimension()) == (80, 72)
    with pytest.raises(PreconditionError):
        panchenko(4)


def test_panchenko_5_block_layout():
    # two blocks: zero row then ones over the second S copy
    assert matrix_lines(panchenko(5))[0] == "0000011111"
    assert matrix_lines(panchenko(5))[1] == "1000110001"


def test_general_qp_matches_named_constructions():
    assert general_qp(5, 2, seed("S")).H == panchenko(5).H
    assert general_qp(5, 0, seed("M")).H == extended_hamming(5).H
    c = general_qp(6, 3, seed("example_9_5"))
    assert (c.spec.n, c.dimension(), c.spec.d) == (18, 12, 4)


def test_panchenko_past_the_cap_is_refused_in_little_memory():
    # g is checked before any doubling, in memory that does not grow with r
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError):
            panchenko(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_general_qp_rejects_bad_parameters():
    with pytest.raises(PreconditionError, match="admissible"):
        general_qp(6, 1, seed("S"))  # g=1 excluded
    with pytest.raises(PreconditionError, match="admissible"):
        general_qp(5, 3, seed("example_9_5"))  # g = r-2, though the seed fits g=3
    with pytest.raises(PreconditionError):
        general_qp(6, 4, seed("S"))  # g > r-3
    with pytest.raises(PreconditionError):
        general_qp(6, 3, seed("S"))  # wrong seed dimensions for g=3


def test_admissible_lengths():
    assert admissible_lengths(5) == [(0, 16), (2, 10)]
    assert admissible_lengths(6) == [(0, 32), (2, 20), (3, 18)]
    gs, ns = zip(*admissible_lengths(8))
    assert gs == (0, 2, 3, 4, 5)
    assert ns == (128, 80, 72, 68, 66)
    with pytest.raises(PreconditionError):
        admissible_lengths(4)


def test_general_qp_lengths_match_formula():
    for r in range(5, 11):
        for g, n in admissible_lengths(r):
            if g == 0:
                assert general_qp(r, g, seed("M")).spec.n == n
            elif g == 2:
                assert general_qp(r, g, seed("S")).spec.n == n
            elif g == 3:
                assert general_qp(r, g, seed("example_9_5")).spec.n == n


def test_shorten_panchenko8_to_table2_code():
    p8 = panchenko(8)
    c = shorten(p8, list(range(72, 80)))
    assert (c.spec.n, c.spec.r, c.dimension(), c.spec.d) == (72, 8, 64, 4)
    assert c.spec.lineage.shortened == tuple(range(72, 80))


def test_shorten_identity_and_validation():
    c = extended_hamming(4)
    assert shorten(c, []) is c
    with pytest.raises(PreconditionError):
        shorten(c, [0, 0])
    with pytest.raises(PreconditionError):
        shorten(c, [8])
    with pytest.raises(PreconditionError):
        shorten(c, list(range(8)))


def test_shorten_eh4_drop_last():
    c = shorten(extended_hamming(4), [7])
    assert (c.spec.n, c.dimension(), c.spec.d) == (7, 3, 4)
    cols = c.H.column_ints()
    assert len(set(cols)) == 7 and 0 not in cols


def test_covering_radius_against_subset_oracle():
    for code in (extended_hamming(4), panchenko(5), seed("example_9_5")):
        got = covering_radius(code)
        ref = min_cover_depths(code.H, got + 1)
        assert len(ref) == 1 << code.H.rank()  # all syndromes reachable
        assert max(ref.values()) == got


def test_covering_radius_values():
    assert covering_radius(extended_hamming(4)) == 2
    assert covering_radius(panchenko(5)) == 2
    assert covering_radius(hamming_734()) == 1


def test_is_quasi_perfect_family():
    for r in range(5, 9):
        assert is_quasi_perfect(panchenko(r))
    for r in range(4, 9):
        assert is_quasi_perfect(extended_hamming(r))
    assert not is_quasi_perfect(hamming_734())  # perfect, radius 1


def test_shortened_eh5_not_quasi_perfect():
    c = shorten(extended_hamming(5), [15])
    # removing a column forces weight-3 cover for its old syndrome
    assert covering_radius(c) == 3
    ref = min_cover_depths(c.H, 3)
    assert len(ref) == 1 << c.H.rank()
    assert max(ref.values()) == 3
    assert not is_quasi_perfect(c)


def test_distance_certification_small_codes():
    for code in (extended_hamming(4), panchenko(5), seed("example_9_5")):
        cols = code.H.column_ints()
        for trio in combinations(cols, 3):
            assert gf2_rank(trio) == 3
        assert any(gf2_rank(quad) < 4 for quad in combinations(cols, 4))
