"""Differential oracles for jack_symbolic.

Two earlier solvers are kept unchanged as independent references, both on
BetaPoly rows (betapoly_row, the Hamiltonian rows with BetaPoly entries):

- gap_product_solve runs over the product of all eigenvalue gaps and reduces
  every coefficient in Q(beta) at the end.  jack_symbolic stores c_lambda P_lam
  by construction, so comparing the two on the acceptance grid is what checks
  the clearing fact (reduced denominators divide c_lambda) from outside the
  solver.
- betapoly_solve is the integral-form recursion in BetaPoly arithmetic, one
  exact_div by the gap per coefficient.  jack_symbolic runs the same
  recursion as one integer walk (jack._walk) at beta = 1 and beta = 2^K and
  reads each numerator off as the base-2^K digits of its value, so its
  numerators must be equal, and in the same order.

The walks jack_symbolic and jack._solve_at ran before their position table
are kept too (dict_walk_symbolic, dict_walk_at): pending sums keyed by
partition, the next one taken by max(sums), and for the symbolic walk int
coefficient lists with one synthetic division by the gap per coefficient.
The table walk must return the same numerators, the same values at
beta(k, r), and None exactly where these do.
"""

import re
from fractions import Fraction
from functools import lru_cache
from math import prod

import pytest

from jackideal import jack, symbolic
from jackideal.jack import JackCache, specialize
from jackideal.partitions import (as_partition, beta_value, dominated_by,
                                  eigenvalue_pair, enumerate_admissible,
                                  hook_factors, partitions_leq)
from jackideal.ratfunc import BetaPoly, BetaRatFunc
from jackideal.symbolic import c_lambda, cs_eigenvalue, jack_symbolic
from jackideal.sympoly import MSymPoly
from test_hamiltonian_oracle import matrix_row
from test_jack import POINT_PAIRS


@lru_cache(maxsize=None)
def betapoly_row(mu, n):
    """Coefficients of H m_mu in the m-basis: dict nu -> BetaPoly.

    The support is checked to be dominated by mu (upper triangularity) and
    the diagonal entry to be the closed-form eigenvalue.
    """
    mu = as_partition(mu)
    euler, h = jack.hamiltonian_row(mu, n)
    row = {nu: BetaPoly((0, c)) for nu, c in h.items()}
    diag = BetaPoly((euler, h.get(mu, 0)))
    if diag:
        row[mu] = diag
    for nu in row:
        if not dominated_by(nu, mu):
            raise AssertionError("H m_%r hit %r outside the dominance cone"
                                 % (mu, nu))
    if diag != cs_eigenvalue(mu, n):
        raise AssertionError("diagonal of H at %r disagrees with the "
                             "closed-form eigenvalue" % (mu,))
    return row


def _is_integral(p):
    return all(type(c) is int for c in p.coeffs)


def betapoly_solve(lam, n):
    """Numerators of c_lam P_lam: dict partition -> BetaPoly, in the order
    jack_symbolic stores them.

    Solves (eps_lam - eps_nu) u_nu = sum_{nu < mu <= lam} u_mu h_{mu,nu}
    downward in dominance order for the numerators N_nu = c_lam u_nu,
    starting from N_lam = c_lam.  Every step is an exact division in
    Z[beta]; a remainder or a non-integer quotient raises, so each solve
    machine-checks that c_lam clears the denominators of P_lam.
    """
    lam = as_partition(lam)
    if len(lam) > n:
        raise ValueError("partition %r longer than n=%d" % (lam, n))

    d = sum(lam)
    eps_lam = cs_eigenvalue(lam, n)
    den = c_lambda(lam)
    nums = {lam: den}
    rows = {lam: betapoly_row(lam, n)}
    # decreasing lex refines dominance, so every mu > nu is already solved
    for nu in partitions_leq(d, n):
        if nu == lam or not dominated_by(nu, lam):
            continue
        gap = eps_lam - cs_eigenvalue(nu, n)
        if gap.is_zero():
            raise AssertionError("eigenvalue collision between %r and %r"
                                 % (lam, nu))
        acc = BetaPoly()
        for mu, nmu in nums.items():
            h = rows[mu].get(nu)
            if h is not None:
                acc = acc + nmu * h
        num = acc.exact_div(gap)
        if not _is_integral(num):
            raise AssertionError("c_lambda does not clear the coefficient "
                                 "of m_%r in P_%r" % (nu, lam))
        if num:
            nums[nu] = num
        rows[nu] = betapoly_row(nu, n)
    return nums


def gap_product_solve(lam, n):
    """m-coefficients of P_lam over Q(beta): dict partition -> BetaRatFunc.

    Solves (eps_lam - eps_nu) u_nu = sum_{nu < mu <= lam} u_mu h_{mu,nu}
    downward in dominance order.  Internally every u is represented as
    N_nu / D with the fixed common denominator D = prod (eps_lam - eps_mu),
    which turns each step into an exact polynomial division.
    """
    lam = as_partition(lam)
    if len(lam) > n:
        raise ValueError("partition %r longer than n=%d" % (lam, n))

    d = sum(lam)
    eps_lam = cs_eigenvalue(lam, n)
    below = [nu for nu in partitions_leq(d, n)
             if nu != lam and dominated_by(nu, lam)]
    gaps = {}
    D = BetaPoly((1,))
    for nu in below:
        g = eps_lam - cs_eigenvalue(nu, n)
        if g.is_zero():
            raise AssertionError("eigenvalue collision between %r and %r"
                                 % (lam, nu))
        gaps[nu] = g
        D = D * g

    nums = {lam: D}
    rows = {lam: betapoly_row(lam, n)}
    # decreasing lex refines dominance, so every mu > nu is already solved
    for nu in below:
        acc = BetaPoly()
        for mu, nmu in nums.items():
            h = rows[mu].get(nu)
            if h is not None:
                acc = acc + nmu * h
        nums[nu] = acc.exact_div(gaps[nu])
        rows[nu] = betapoly_row(nu, n)

    coeffs = {}
    for nu, num in nums.items():
        u = BetaRatFunc(num, D)
        if u:
            coeffs[nu] = u
    if coeffs.get(lam) != 1:
        raise AssertionError("leading coefficient of P_%r is not 1" % (lam,))
    return coeffs


def test_solver_matches_gap_product_reference():
    # the grid of acceptance criterion 3: n <= 4, |lam| <= 8
    cache = JackCache()
    for n in range(1, 5):
        for d in range(9):
            for lam in partitions_leq(d, n):
                ref = gap_product_solve(lam, n)
                assert jack_symbolic(lam, n, cache).coeffs == ref, (lam, n)
                c = c_lambda(lam)
                for u in ref.values():
                    assert (c % u.den).is_zero(), (lam, n)


def _solver_grid():
    """Criterion 3's grid (n <= 4, |lam| <= 8), then every admissible lam of
    the basis-deep, basis-wide and (2,2,5,16) bases, then two Jacks whose
    symbolic solve reads digits of 70 and 78 bits (K of jack_symbolic),
    wider than a machine word."""
    for n in range(1, 5):
        for d in range(9):
            for lam in partitions_leq(d, n):
                yield lam, n
    for k, r, n, dmax in [(1, 2, 3, 18), (8, 2, 9, 8), (2, 2, 5, 16)]:
        for lam in enumerate_admissible(k, r, n, dmax).all_partitions():
            yield lam, n
    yield (12, 9, 6, 3), 4
    yield (14, 10, 6), 4


def test_solver_matches_betapoly_solver():
    cache = JackCache()
    for lam, n in _solver_grid():
        got = jack_symbolic(lam, n, cache).nums
        assert list(got.items()) == list(betapoly_solve(lam, n).items()), \
            (lam, n)


def _dict_row(rows, mu, n):
    hit = rows.get((mu, n))
    if hit is None:
        hit = rows[(mu, n)] = matrix_row(mu, n)
    return hit


def _dict_scatter(sums, off, num):
    """sums[nu] += off[nu] * num for every nu of a row, on int lists."""
    for nu, h in off.items():
        acc = sums.get(nu)
        if acc is None:
            sums[nu] = [h * c for c in num]
            continue
        if len(acc) < len(num):
            acc.extend([0] * (len(num) - len(acc)))
        for i, c in enumerate(num):
            acc[i] += h * c


def dict_walk_symbolic(lam, n, rows):
    """The numerators of c_lam P_lam, as jack_symbolic found them by
    walking a dict of pending sums lex-largest first; rows is the memo of
    hamiltonian_matrix_row the caller holds."""
    lam = as_partition(lam)
    euler, diag, off = _dict_row(rows, lam, n)
    den = c_lambda(lam)
    nums = {lam: den}
    sums = {}  # nu -> S_nu over the mu solved so far
    _dict_scatter(sums, off, den.coeffs)
    while sums:
        nu = max(sums)
        s = sums.pop(nu)
        e, g, off = _dict_row(rows, nu, n)
        g0, g1 = euler - e, diag - g
        if g1 <= 0:
            raise AssertionError("eigenvalues of %r and %r do not separate: "
                                 "gap %d + %d beta" % (lam, nu, g0, g1))
        while s and not s[-1]:
            s.pop()
        if not s:
            continue
        q, c, r = [], 0, 0
        for x in reversed(s):
            c, r = divmod(x - g0 * c, g1)
            if r:
                break
            q.append(c)
        if r or g0 * c:
            raise AssertionError("c_lambda does not clear the coefficient "
                                 "of m_%r in P_%r" % (nu, lam))
        q.reverse()
        nums[nu] = BetaPoly.trusted(tuple(q))
        _dict_scatter(sums, off, q)
    return nums


def dict_walk_at(lam, n, rows, beta0):
    """P_lam at beta0 as jack._solve_at found it by the dict walk: an
    MSymPoly, or None where M_lam or a visited gap is 0."""
    p, q = beta0.numerator, beta0.denominator
    m_lam = prod(a * q + b * p for a, b in hook_factors(lam))
    if not m_lam:
        return None
    euler, diag, off = _dict_row(rows, lam, n)
    vals = {lam: m_lam}
    sums = {nu: h * m_lam for nu, h in off.items()}
    while sums:
        nu = max(sums)
        s = sums.pop(nu)
        e, g, off = _dict_row(rows, nu, n)
        g0, g1 = euler - e, diag - g
        if g1 <= 0:
            raise AssertionError("eigenvalues of %r and %r do not separate: "
                                 "gap %d + %d beta" % (lam, nu, g0, g1))
        gap = q * g0 + p * g1
        if not gap:
            return None
        m, rem = divmod(p * s, gap)
        if rem:
            raise AssertionError("c_lambda does not clear the coefficient "
                                 "of m_%r in P_%r" % (nu, lam))
        if m:
            vals[nu] = m
        for mu, h in off.items():
            sums[mu] = sums.get(mu, 0) + h * m
    return MSymPoly(n, {nu: Fraction(m, m_lam) for nu, m in vals.items()})


def test_table_walk_matches_dict_walk():
    cache, rows = JackCache(), {}
    for lam, n in _solver_grid():
        got = jack_symbolic(lam, n, cache).nums
        assert list(got.items()) == \
            list(dict_walk_symbolic(lam, n, rows).items()), (lam, n)


def test_point_walk_matches_dict_walk():
    # every lam with |lam| <= 10, n <= 5, at criterion 6's (k, r) and two
    # pairs where more Jacks fall back
    cache, rows = JackCache(), {}
    stopped = set()
    for n in range(1, 6):
        for d in range(11):
            for lam in partitions_leq(d, n):
                for k, r in POINT_PAIRS:
                    b0 = beta_value(k, r)
                    got = jack._solve_at(lam, n, cache, b0)
                    want = dict_walk_at(lam, n, rows, b0)
                    if want is None:
                        assert got is None, (lam, n, k, r)
                        stopped.add((lam, n, k, r))
                    else:
                        den, num = want.cleared()
                        assert (got[0], list(got[1].terms.items())) == \
                            (den, list(num.terms.items())), (lam, n, k, r)
    # the vanishing M_(2,1,1,1) above a vanishing gap, and the fallbacks
    # to a regular value (c_lambda, then a gap, vanishes) and to a pole
    assert {((4, 1), 5, 2, 3), ((2, 1), 2, 1, 2), ((4, 2, 1), 4, 4, 5),
            ((2, 2), 4, 1, 2)} <= stopped


@pytest.fixture
def patched_rows(monkeypatch):
    """Lets a test replace jack.hamiltonian_row.  Each test solves in a
    fresh JackCache, which holds the rows, so no row outlives the patch."""
    yield monkeypatch
    monkeypatch.undo()


def _perturbed(mu0, n0, change):
    orig = jack.hamiltonian_row

    def row(mu, n):
        euler, h = orig(mu, n)
        return change(euler, h) if (mu, n) == (mu0, n0) else (euler, h)
    return row


@pytest.mark.parametrize("mu, n, nu", [
    ((2, 2), 3, (3, 1)),       # the first partial sum exceeds mu's
    ((2, 2), 3, (4,)),         # shorter than mu
    ((2, 1, 1), 3, (2, 2)),    # the second partial sum exceeds mu's
    ((1, 1), 4, (2,)),         # mu shorter than n
])
def test_row_check_catches_an_entry_outside_the_cone(patched_rows, mu, n,
                                                     nu):
    # H m_mu reaches only partitions mu dominates: a row that reaches nu
    # is not triangular, and hamiltonian_matrix_row must say so
    def reach(euler, h):
        h[nu] = 1
        return euler, h
    patched_rows.setattr(jack, "hamiltonian_row",
                         _perturbed(mu, n, reach))
    with pytest.raises(AssertionError, match="outside the dominance cone"):
        matrix_row(mu, n)
    assert matrix_row(mu, n + 1)  # the unpatched row passes


@pytest.mark.parametrize("solve", [
    lambda: jack_symbolic((2, 2), 3),
    lambda: jack.jack_at((2, 2), 3, Fraction(-2, 3)),
], ids=["symbolic", "at_a_point"])
def test_row_check_catches_an_entry_outside_the_table(patched_rows, solve):
    # (2, 2, 1) has another weight than (2, 2) and is longer than it, so
    # its partial sums stay under mu's as far as mu's run; no position of
    # the degree-4 table holds it, and the walks must name the row rather
    # than fail on a bare lookup
    def reach(euler, h):
        h[(2, 2, 1)] = 1
        return euler, h
    patched_rows.setattr(jack, "hamiltonian_row",
                         _perturbed((2, 2), 3, reach))
    with pytest.raises(AssertionError,
                       match=r"H m_\(2, 2\) at n=3 hit \(2, 2, 1\) outside"):
        solve()


def test_row_check_catches_a_wrong_diagonal(patched_rows):
    mu, n = (2, 2), 3

    def bump(euler, h):
        h[mu] = h.get(mu, 0) + 1
        return euler, h
    patched_rows.setattr(jack, "hamiltonian_row",
                         _perturbed(mu, n, bump))
    with pytest.raises(AssertionError,
                       match="disagrees with the closed-form eigenvalue"):
        matrix_row(mu, n)


@pytest.mark.parametrize("lam, n, nu", [
    ((2,), 2, (1, 1)),         # the quotient is in Q[beta], not Z[beta]
    ((4, 1), 3, (2, 2, 1)),    # the division leaves a remainder over Q
])
def test_clearing_check_catches_a_wrong_row(patched_rows, lam, n, nu):
    # one off-diagonal entry of H m_lam is off by one: the solve must
    # raise rather than return a wrong Jack
    def bump(euler, h):
        h[nu] += 1
        return euler, h
    patched_rows.setattr(jack, "hamiltonian_row",
                         _perturbed(lam, n, bump))
    with pytest.raises(AssertionError, match="does not clear"):
        jack_symbolic(lam, n, JackCache())


def test_eigenvalue_collision_raises(patched_rows):
    # give m_(1,1) the eigenvalue 4 + 2 beta of m_(2), in both the row and
    # the closed form, so the row checks pass and only the gap is zero
    lam, nu, n = (2,), (1, 1), 2
    eps = eigenvalue_pair(lam, n)

    def collide(euler, h):
        h[nu] = eps[1]
        return eps[0], h
    patched_rows.setattr(jack, "hamiltonian_row",
                         _perturbed(nu, n, collide))
    patched_rows.setattr(jack, "eigenvalue_pair",
                         lambda mu, m: eps if mu == nu else
                         eigenvalue_pair(mu, m))
    with pytest.raises(AssertionError, match="do not separate"):
        jack_symbolic(lam, n, JackCache())
    # the point solve makes the same check before it reads the gap at beta0
    for k, r in [(1, 2), (2, 3)]:
        with pytest.raises(AssertionError, match="do not separate"):
            specialize(lam, n, k, r, JackCache())


def test_clearing_check_catches_a_short_denominator(monkeypatch):
    # den = 1 in place of c_(2) = beta (1 + beta): the coefficient
    # 2 beta / (1 + beta) of m_(1,1) then leaves the remainder -g0 Q_0
    monkeypatch.setattr(symbolic, "c_lambda", lambda lam: BetaPoly((1,)))
    with pytest.raises(AssertionError, match="does not clear"):
        jack_symbolic((2,), 2, JackCache())


@pytest.mark.parametrize("nu", [(3, 2), (2, 2, 1), (2, 1, 1, 1)])
def test_digit_check_catches_a_wrong_value_at_one(monkeypatch, nu):
    # the walk at beta = 1 returns N_nu(1) off by one, so the base-2^K
    # digits of N_nu(2^K) no longer sum to it: the symbolic solve must name
    # nu and lam, and file no Jack
    lam, n, walk = (4, 1), 4, jack._walk

    def planted(lam, n, cache, p, q, top):
        vals = walk(lam, n, cache, p, q, top)
        if (p, q) == (1, 1):
            vals[nu] += 1
        return vals
    monkeypatch.setattr(symbolic, "_walk", planted)
    cache = JackCache()
    with pytest.raises(AssertionError, match=re.escape(
            "does not clear the coefficient of m_%r in P_%r" % (nu, lam))):
        jack_symbolic(lam, n, cache)
    assert cache.get(lam, n) is None
