"""Property tests on small shortened codes: the exact count and the psi
floor depend on the set of H's columns, not their order, and
psi <= S_rho <= C(n, rho), with equality on the left in the exact regime.
The two exact routes, lattice and enumeration, agree on every matrix,
doubled ones included, from which the lattice peels the doublings."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from qpcodes import erasure
from qpcodes.construct import Code, CodeSpec, extended_hamming, panchenko, peel, shorten
from qpcodes.erasure import is_exact_regime, psi, s_rho_exact
from qpcodes.gf2 import BitMatrix
from qpcodes.spectrum import oracle_spectrum

BASES = [panchenko(5), extended_hamming(5), panchenko(6), extended_hamming(6)]
# fixed examples, no example database: the suite reads the same on every run
PROPERTY = settings(max_examples=30, deadline=None, database=None, derandomize=True)


@st.composite
def shortened_codes(draw):
    base = draw(st.sampled_from(BASES))
    n = base.spec.n
    drop = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n - 8))
    return shorten(base, drop)


@PROPERTY
@given(data=st.data())
def test_counts_do_not_depend_on_column_order(data):
    code = data.draw(shortened_codes())
    n, d = code.spec.n, code.spec.d
    perm = data.draw(st.permutations(range(n)))
    rho = data.draw(st.integers(0, 6))
    moved = Code(CodeSpec(n, code.spec.r, d), code.H.select_columns(perm))
    assert s_rho_exact(moved, rho, threads=1) == s_rho_exact(code, rho, threads=1)
    assert psi(n, d, rho, oracle_spectrum(moved)) == psi(n, d, rho, oracle_spectrum(code))


@PROPERTY
@given(code=shortened_codes(), rho=st.integers(0, 7))
def test_psi_below_exact_below_total(code, rho):
    n, d = code.spec.n, code.spec.d
    exact = s_rho_exact(code, rho, threads=1)
    floor = psi(n, d, rho, oracle_spectrum(code))
    assert floor <= exact <= math.comb(n, rho)
    if is_exact_regime(d, rho):
        assert floor == exact


@st.composite
def lattice_matrices(draw):
    """H of a random shortening of a small family code (pan7 cut to at most
    24 columns, so enumeration stays cheap), or a random matrix whose columns
    are sums of a few random vectors: zero columns, repeated columns and
    rank below the row count all occur. The random matrix is then doubled
    0-3 times (a top row 0...0|1...1 over two copies side by side), so the
    lattice peels those doublings back off; it stays at most 24 columns."""
    if draw(st.booleans()):
        base = draw(st.sampled_from(BASES + [panchenko(7)]))
        n = base.spec.n
        drop = draw(st.lists(st.integers(0, n - 1), unique=True, min_size=max(0, n - 24), max_size=n - 1))
        return shorten(base, drop).H
    doublings = draw(st.integers(0, 3))
    nrows = draw(st.integers(1, 7))
    gens = draw(st.lists(st.integers(0, (1 << nrows) - 1), min_size=1, max_size=nrows))
    width = min(14, 24 >> doublings)
    masks = draw(st.lists(st.integers(0, (1 << len(gens)) - 1), min_size=1, max_size=width))
    cols = []
    for mask in masks:
        x = 0
        for i, g in enumerate(gens):
            if mask >> i & 1:
                x ^= g
        cols.append(x)
    rows = tuple(sum((c >> i & 1) << j for j, c in enumerate(cols)) for i in range(nrows))
    n = len(cols)
    for _ in range(doublings):
        rows = (((1 << n) - 1) << n,) + tuple(r | r << n for r in rows)
        n *= 2
    return BitMatrix(rows, n)


@settings(PROPERTY, max_examples=100)
@given(data=st.data())
def test_lattice_count_equals_enumeration(data):
    h = data.draw(lattice_matrices())
    rank = h.rank()
    rho = data.draw(st.integers(0, rank + 1))
    lattice = erasure._count_on_lattice(*peel(h), rho, 1, None)
    # the enumerator counts from rho = 1 on; the empty set is independent
    assert lattice == (erasure._count_by_enumeration(h, rho, 1, None) if rho else 1)
