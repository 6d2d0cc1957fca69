"""Exact univariate arithmetic over Q: dense polynomials in beta and their
fraction field."""

import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from jackideal.ratfunc import (BETA, BetaPoly, BetaRatFunc, PoleError,
                               order_and_value, poly_gcd)
from jackideal.sympoly import (coeff_from_obj, coeff_to_obj, rat_from_obj,
                               rat_to_obj)


def rand_poly(rng, deg):
    return BetaPoly([Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                     for _ in range(deg + 1)])


def test_poly_normalization():
    assert BetaPoly((0, 0, 0)).is_zero()
    assert BetaPoly((1, 2, 0, 0)) == BetaPoly((1, 2))
    assert BetaPoly((1, 2)).degree == 1
    assert BetaPoly(()).degree == -1
    assert BetaPoly((5,)) == 5
    assert BETA == BetaPoly((0, 1))


def test_poly_arithmetic_matches_evaluation():
    rng = random.Random(101)
    points = [Fraction(-3), Fraction(-1, 2), Fraction(0), Fraction(2, 7)]
    for _ in range(60):
        a = rand_poly(rng, rng.randint(0, 5))
        b = rand_poly(rng, rng.randint(0, 5))
        for x in points:
            assert (a + b)(x) == a(x) + b(x)
            assert (a - b)(x) == a(x) - b(x)
            assert (a * b)(x) == a(x) * b(x)
        assert (a * a * a)(points[1]) == a(points[1]) ** 3


def test_poly_divmod_roundtrip():
    rng = random.Random(7)
    for _ in range(40):
        a = rand_poly(rng, rng.randint(0, 6))
        b = rand_poly(rng, rng.randint(0, 3))
        if b.is_zero():
            continue
        q, rem = divmod(a, b)
        assert q * b + rem == a
        assert rem.degree < b.degree or rem.is_zero()


def test_exact_div_raises_on_remainder():
    with pytest.raises(ValueError):
        BetaPoly((1, 1)).exact_div(BetaPoly((0, 1)))
    p = BetaPoly((0, 2, 2))
    assert p.exact_div(BetaPoly((0, 1))) == BetaPoly((2, 2))


def test_root_multiplicity():
    # beta^2 (beta + 1/2)
    p = BetaPoly((0, 0, 0, 1)) + BetaPoly((0, 0, Fraction(1, 2)))
    assert p.root_multiplicity(Fraction(0)) == 2
    assert p.root_multiplicity(Fraction(-1, 2)) == 1
    assert p.root_multiplicity(Fraction(1)) == 0


def test_poly_gcd():
    a = BetaPoly((0, 1)) * BetaPoly((1, 1))          # beta (beta+1)
    b = BetaPoly((1, 1)) * BetaPoly((2, 1))          # (beta+1)(beta+2)
    g = poly_gcd(a, b)
    assert g == BetaPoly((1, 1))                     # monic


def test_ratfunc_canonical_form():
    u = BetaRatFunc(BetaPoly((0, 2)), BetaPoly((0, 0, 2)))   # 2b / 2b^2
    assert u == BetaRatFunc(1, BETA)
    assert u.den == BETA  # monic, gcd removed
    assert BetaRatFunc(0, BetaPoly((3, 1))).is_zero()


def test_pole_order_and_pole_error():
    u = BetaRatFunc(1, BETA * BETA)
    assert u.pole_order(Fraction(0)) == 2
    assert u.pole_order(Fraction(1)) == 0
    with pytest.raises(PoleError):
        u(Fraction(0))
    # zero of order one shows as -1
    v = BetaRatFunc(BetaPoly((1, 1)), BetaPoly((2, 1)))
    assert v.pole_order(Fraction(-1)) == -1
    assert BetaRatFunc(0).pole_order(Fraction(5)) is None


# nonzero integer linear factors v + u*beta, and points a/b
linear_factors = st.lists(
    st.tuples(st.integers(-4, 4), st.integers(-3, 3)).filter(any),
    max_size=4)
points = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))


@settings(max_examples=300, deadline=None)
@given(linear_factors, linear_factors, st.integers(0, 2), st.integers(0, 2),
       st.integers(0, 2), points, st.booleans())
def test_order_and_value_matches_reduced_oracle(num_factors, den_factors,
                                                 common, num_extra, den_extra,
                                                 beta0, zero_num):
    # unreduced pairs with a forced common power of (b beta - a),
    # beta0 = a/b, on both sides and further powers on either; the
    # BetaRatFunc reduced by a gcd is the oracle
    lin = BetaPoly((-beta0.numerator, beta0.denominator))
    one = BetaPoly((1,))
    num = prod([lin] * (common + num_extra) + list(map(BetaPoly, num_factors)),
               start=one)
    den = prod([lin] * (common + den_extra) + list(map(BetaPoly, den_factors)),
               start=one)
    if zero_num:
        num = BetaPoly()
    order, value = order_and_value(num, den, beta0)
    f = BetaRatFunc(num, den)
    assert order == f.pole_order(beta0)
    try:
        assert value == f(beta0)
    except PoleError:
        assert value is None
    # at most one side of the reduced pair vanishes at beta0, so plain
    # evaluation checks the value independently
    dv = f.den(beta0)
    assert value == (f.num(beta0) / dv if dv else None)


def test_serialization_roundtrip():
    q = Fraction(-7, 3)
    assert rat_from_obj(rat_to_obj(q)) == q
    p = BetaPoly((Fraction(1, 2), 0, 3))
    assert BetaPoly.from_obj(p.to_obj()) == p
    u = BetaRatFunc(BetaPoly((0, 2)), BetaPoly((1, 1)))
    assert BetaRatFunc.from_obj(u.to_obj()) == u
    # coefficient codec keeps plain rationals plain
    assert coeff_from_obj(coeff_to_obj(q)) == q
    assert isinstance(coeff_from_obj(coeff_to_obj(q)), Fraction)
    w = coeff_from_obj(coeff_to_obj(u))
    assert w == u and isinstance(w, BetaRatFunc)
