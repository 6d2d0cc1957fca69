"""Differential oracle for evaluation at a rational beta0.

horner and root_multiplicity are the earlier BetaPoly.__call__ and
BetaPoly.root_multiplicity, kept as an independent reference: Horner's rule
in Fraction arithmetic, and repeated division by (beta - beta0) over Q (the
only change is that root_multiplicity tests roots with this horner).  The
library now evaluates beta0 = a/b by integer Horner sums over b^D and
divides by the primitive factor (b beta - a); these tests compare the two on
random polynomials and on every Jack of the benchmark and acceptance grids.
"""

from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from jackideal.jack import JackCache, SpecializationPole
from jackideal.partitions import (beta_value, enumerate_admissible,
                                  partitions_leq)
from jackideal.ratfunc import BetaPoly, BetaRatFunc
from jackideal.symbolic import jack_symbolic


def horner(p, beta0):
    """Evaluate by Horner's rule."""
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * beta0 + c
    return Fraction(acc)


def root_multiplicity(p, beta0):
    """Multiplicity of beta0 as a root, by repeated exact division."""
    if p.is_zero():
        raise ValueError("zero polynomial has no root multiplicity")
    lin = BetaPoly((-Fraction(beta0), 1))
    mult = 0
    while not p.is_zero() and horner(p, beta0) == 0:
        p = p.exact_div(lin)
        mult += 1
    return mult


def oracle_at(jp, beta0):
    """Term by term p(beta0) / den(beta0); where den vanishes, each
    coefficient is reduced in Q(beta) first.  Returns the m-coefficients,
    or the SpecializationPole that JackPoly.at should raise."""
    dv = horner(jp.den, beta0)
    if dv:
        return {mu: horner(p, beta0) / dv for mu, p in jp.nums.items()}
    terms = {}
    for mu, p in jp.nums.items():
        f = BetaRatFunc(p, jp.den)
        fv = horner(f.den, beta0)
        if fv == 0:
            order = (root_multiplicity(f.den, beta0)
                     - root_multiplicity(f.num, beta0))
            return SpecializationPole(jp.lam, mu, order, beta0)
        terms[mu] = horner(f.num, beta0) / fv
    return terms


def check_at(jp, beta0):
    want = oracle_at(jp, beta0)
    if isinstance(want, SpecializationPole):
        with pytest.raises(SpecializationPole) as ei:
            jp.at(beta0)
        assert str(ei.value) == str(want)
        return
    got = jp.at(beta0)
    assert got.n == jp.n
    assert got.terms == {mu: c for mu, c in want.items() if c}
    assert all(type(c) is Fraction for c in got.terms.values())


ints = st.integers(-10 ** 12, 10 ** 12)
int_coeffs = st.lists(ints, max_size=12)
frac_coeffs = st.lists(st.one_of(ints, st.fractions(max_denominator=10 ** 6)),
                       max_size=8)
big = 10 ** 40
beta0s = st.one_of(
    st.just(Fraction(0)), st.just(0),
    st.integers(-50, 50),
    st.fractions(max_value=0, max_denominator=1000),
    st.builds(Fraction, st.integers(-big, big), st.integers(1, big)))


@settings(deadline=None)
@given(st.one_of(int_coeffs, frac_coeffs), beta0s)
def test_call_matches_horner(coeffs, beta0):
    p = BetaPoly(coeffs)
    got = p(beta0)
    assert type(got) is Fraction
    assert got == horner(p, beta0)


@settings(deadline=None)
@given(st.one_of(st.lists(ints, min_size=1, max_size=6),
                 st.lists(st.fractions(max_denominator=10 ** 6), min_size=1,
                          max_size=4)),
       st.integers(0, 3), beta0s)
def test_root_multiplicity_matches(coeffs, m, beta0):
    q = BetaPoly(coeffs)
    if q.is_zero():
        q = BetaPoly((1,))
    b0 = Fraction(beta0)
    p = prod([BetaPoly((-b0.numerator, b0.denominator))] * m, start=q)
    got = p.root_multiplicity(beta0)
    assert got == root_multiplicity(p, beta0)
    assert got == m + root_multiplicity(q, beta0)


CACHE = JackCache()
BETAS = [beta_value(k, r) for k, r in ((1, 2), (2, 2), (2, 3), (3, 2))]


def grid():
    """(lam, n) of the basis-deep grid (1, 2, 3, 18), of the criterion-12
    admissible grids (n <= 4, dmax 10) and of every partition with n <= 4,
    |lam| <= 8 (criteria 3 and 10)."""
    out = {(lam, 3) for lam in
           enumerate_admissible(1, 2, 3, 18).all_partitions()}
    for k, r in ((1, 2), (2, 2), (2, 3), (3, 2), (2, 5)):
        for n in range(1, 5):
            out.update((lam, n) for lam in
                       enumerate_admissible(k, r, n, 10).all_partitions())
    for n in range(1, 5):
        for d in range(9):
            out.update((lam, n) for lam in partitions_leq(d, n))
    return sorted(out)


GRID = grid()


@pytest.mark.parametrize("beta0", BETAS, ids=str)
def test_at_matches_oracle_on_grids(beta0):
    for lam, n in GRID:
        jp = jack_symbolic(lam, n, CACHE)
        check_at(jp, beta0)
        for p in (jp.den, *jp.nums.values()):
            assert p.root_multiplicity(beta0) == root_multiplicity(p, beta0)


def test_pole_path_message():
    jp = jack_symbolic((2, 1), 3, CACHE)
    b0 = Fraction(-1, 2)
    want = oracle_at(jp, b0)
    assert str(want) == ("coefficient of m_(1, 1, 1) in P_(2, 1) has a pole "
                         "of order 1 at beta=-1/2")
    check_at(jp, b0)


@pytest.mark.parametrize("beta0", [0, Fraction(0)], ids=repr)
def test_removable_at_zero(beta0):
    # c_lam vanishes at beta = 0 for every nonempty lam, yet P_lam -> m_lam
    for lam, n in GRID:
        if sum(lam) > 8:
            continue
        jp = jack_symbolic(lam, n, CACHE)
        check_at(jp, beta0)
        assert jp.at(beta0).terms == {lam: 1}
