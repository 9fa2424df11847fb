"""Property tests on small shortened codes: the exact count and the psi
floor depend on the set of H's columns, not their order, and
psi <= S_rho <= C(n, rho), with equality on the left in the exact regime."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from qpcodes.construct import Code, CodeSpec, extended_hamming, panchenko, shorten
from qpcodes.erasure import is_exact_regime, psi, s_rho_exact
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
