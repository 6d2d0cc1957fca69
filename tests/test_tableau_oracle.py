"""Oracle for jack_symbolic at any beta that does not use the Hamiltonian.

Macdonald's tableau formula (Symmetric Functions and Hall Polynomials,
VI (6.24), in the Jack limit of VI.10): P_lam is the sum over semistandard
tableaux T of shape lam of psi_T x^T.  The entries equal to the largest
letter of T fill a horizontal strip lam/rho, and psi_(lam/rho) is the
product of b_rho(s)/b_lam(s) over the boxes s of rho in a row that meets
lam/rho and in no column that meets it, where
b_lam(s) = (alpha a(s) + l(s) + 1)/(alpha a(s) + l(s) + alpha), a(s) and
l(s) are the arm and leg of s in lam, and alpha = 1/beta.  The m_mu
coefficient of P_lam sums psi_T over the tableaux of content mu.

At beta(k, r) the same formula checks specialize, which solves at the point
in Z, on every coefficient where the formula is defined there.
"""

from fractions import Fraction
from functools import lru_cache

from hypothesis import given, settings, strategies as st

import jackideal.jack as jack
from jackideal.jack import JackCache, SpecializationPole, specialize
from jackideal.partitions import beta_value, partitions_leq
from jackideal.symbolic import jack_symbolic
from test_jack import POINT_PAIRS
from test_kostka_oracle import _strip_removals

BETAS = [Fraction(3, 7), Fraction(2), Fraction(-5, 11)]


def b(lam, i, j, alpha):
    """b_lam at the box in row i, column j (0-based)."""
    arm = lam[i] - j - 1
    leg = sum(1 for p in lam[i + 1:] if p > j)
    return (alpha * arm + leg + 1) / (alpha * arm + leg + alpha)


def psi(lam, rho, alpha):
    rho_p = rho + (0,) * (len(lam) - len(rho))
    strip_cols = {j for p, q in zip(lam, rho_p) for j in range(q, p)}
    out = Fraction(1)
    for i, (p, q) in enumerate(zip(lam, rho_p)):
        if q < p:
            for j in range(q):
                if j not in strip_cols:
                    out *= b(rho, i, j, alpha) / b(lam, i, j, alpha)
    return out


@lru_cache(maxsize=None)
def tableau_coefficient(lam, mu, alpha):
    """Sum of psi_T over the tableaux of shape lam and content mu, peeling
    off the strip of the largest letter."""
    if not mu:
        return Fraction(int(not lam))
    return sum((psi(lam, rho, alpha) * tableau_coefficient(rho, mu[:-1], alpha)
                for rho in _strip_removals(lam, mu[-1])), Fraction(0))


def mismatches(lam, n, beta):
    """Partitions mu where the solver's P_lam at beta and the tableau
    formula disagree."""
    got = jack_symbolic(lam, n, JackCache()).at(beta).terms
    want = {mu: tableau_coefficient(lam, mu, 1 / beta)
            for mu in partitions_leq(sum(lam), n)}
    return [mu for mu in partitions_leq(sum(lam), n)
            if got.get(mu, 0) != want[mu]]


def point_mismatches(lam, n, k, r):
    """(mismatches, compared): the mu where specialize's P_lam at beta(k, r)
    and the tableau formula at alpha = 1/beta(k, r) disagree, and how many
    mu the formula is defined at; None at a pole of P_lam."""
    alpha = 1 / beta_value(k, r)
    try:
        got = specialize(lam, n, k, r, JackCache()).poly.terms
    except SpecializationPole:
        return None
    bad, compared = [], 0
    for mu in partitions_leq(sum(lam), n):
        try:
            want = tableau_coefficient(lam, mu, alpha)
        except ZeroDivisionError:
            continue
        compared += 1
        if got.get(mu, 0) != want:
            bad.append(mu)
    return bad, compared


def test_two_row_values():
    # P_(2) = m_2 + 2/(1 + alpha) m_11
    assert tableau_coefficient((2,), (1, 1), Fraction(3)) == Fraction(1, 2)
    assert tableau_coefficient((2, 1), (2, 1), Fraction(5)) == 1
    assert tableau_coefficient((1, 1), (2,), Fraction(5)) == 0


@st.composite
def cases(draw):
    n = draw(st.integers(1, 4))
    lam = draw(st.sampled_from([lam for d in range(8)
                                for lam in partitions_leq(d, n)]))
    return lam, n, draw(st.sampled_from(BETAS))


@settings(max_examples=80, deadline=None)
@given(cases())
def test_solver_matches_tableau_formula(case):
    lam, n, beta = case
    assert mismatches(lam, n, beta) == [], case


def test_tableau_oracle_catches_a_wrong_row(monkeypatch):
    # raise the m_(2,2) entry of H m_(3,1) at n = 3 by one: every division
    # stays exact, in Z[beta] and, at these four beta(k, r), in the point
    # solve too, so only the oracle catches it
    original = jack.hamiltonian_matrix_row

    def wrong_row(mu, n, pos):
        euler, diag, off = original(mu, n, pos)
        if (mu, n) == ((3, 1), 3):
            off = dict(off)
            off[pos[(2, 2)]] = off.get(pos[(2, 2)], 0) + 1
            off = tuple(off.items())
        return euler, diag, off

    pairs = [(1, 2), (2, 3), (2, 2), (3, 4)]
    assert all(mismatches((3, 1), 3, beta) == [] for beta in BETAS)
    assert all(point_mismatches((3, 1), 3, k, r)[0] == [] for k, r in pairs)
    monkeypatch.setattr(jack, "hamiltonian_matrix_row", wrong_row)
    assert all(mismatches((3, 1), 3, beta) for beta in BETAS)
    for k, r in pairs:
        assert jack._solve_at((3, 1), 3, JackCache(),
                              beta_value(k, r)) is not None
        assert (2, 2) in point_mismatches((3, 1), 3, k, r)[0], (k, r)


def test_specialize_matches_tableau_formula():
    compared = 0
    for n in range(1, 5):
        for d in range(8):
            for lam in partitions_leq(d, n):
                for k, r in POINT_PAIRS:
                    out = point_mismatches(lam, n, k, r)
                    if out is not None:
                        assert out[0] == [], (lam, n, k, r)
                        compared += out[1]
    assert compared > 1000
