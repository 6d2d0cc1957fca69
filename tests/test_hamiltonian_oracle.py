"""Differential oracle for the closed-form Hamiltonian.

_hamiltonian_expanded is the earlier implementation, kept unchanged as an
independent reference: it acts on every monomial of an S_n-orbit expansion
and telescopes each (x_i + x_j)/(x_i - x_j) pair directly.  The m-basis rows
of hamiltonian_row use pair moves on the parts of mu and orbit-size ratios
instead, so agreement here checks that closed form from outside it.
"""

import random
from fractions import Fraction

import pytest

from jackideal.jack import hamiltonian_matrix_row
from jackideal.operators import _random_symmetric, apply_hamiltonian
from jackideal.partitions import partitions_leq
from jackideal.ratfunc import BETA, BetaPoly
from jackideal.sympoly import ExpandedPoly, MSymPoly, NotSymmetric


def _hamiltonian_expanded(P, beta, validate=True):
    """Core of the Hamiltonian sum (x_i d_i)^2 + beta * sum_{i<j}
    (x_i + x_j)/(x_i - x_j) (x_i d_i - x_j d_j) on a symmetric expansion.

    Symmetry pairs the monomial x^a with its ij-swap, and
    (x_i + x_j)(x_i^a x_j^b - x_i^b x_j^a)/(x_i - x_j) telescopes to
    sum_{s=b}^{a} mult(s) x_i^s x_j^(a+b-s) with mult 1 at the ends and 2
    between, so the division never happens.
    """
    if validate and not P.is_symmetric():
        raise NotSymmetric("Hamiltonian needs a symmetric polynomial")
    n = P.n
    euler = {}
    for e, c in P.terms.items():
        w = sum(a * a for a in e)
        if w:
            euler[e] = c * w
    out = ExpandedPoly(n)
    out.terms.update(euler)
    cross = {}
    for e, c in P.terms.items():
        for i in range(n):
            a = e[i]
            for j in range(i + 1, n):
                b = e[j]
                if a <= b:
                    continue
                # unordered orbit pair {e, swap(e)} handled once, at a > b
                base = list(e)
                scale = c * (a - b)
                for s in range(b, a + 1):
                    base[i] = s
                    base[j] = a + b - s
                    key = tuple(base)
                    add = scale if s in (a, b) else 2 * scale
                    acc = cross.get(key)
                    acc = add if acc is None else acc + add
                    if acc:
                        cross[key] = acc
                    elif key in cross:
                        del cross[key]
    if cross:
        out = out + ExpandedPoly(n, cross) * beta
    return out


def int_row_as_betapoly(mu, n):
    """The int row the solver uses, as dict nu -> BetaPoly."""
    euler, diag, off = hamiltonian_matrix_row(mu, n)
    row = {nu: BetaPoly((0, h)) for nu, h in off.items()}
    if euler or diag:
        row[mu] = BetaPoly((euler, diag))
    return row


def expanded_row(mu, n):
    q = MSymPoly.monomial_sym(n, mu).to_expanded()
    hm = _hamiltonian_expanded(q, BETA, validate=False).to_msym()
    return {nu: c if isinstance(c, BetaPoly) else BetaPoly((c,))
            for nu, c in hm.terms.items()}


@pytest.mark.parametrize("n, dmax", [(1, 10), (2, 10), (3, 10), (4, 10),
                                     (5, 10), (6, 10), (9, 6)])
def test_rows_match_orbit_expansion(n, dmax):
    for d in range(dmax + 1):
        for mu in partitions_leq(d, n):
            assert int_row_as_betapoly(mu, n) == expanded_row(mu, n), \
                (mu, n)


@pytest.mark.parametrize("beta", [BETA, Fraction(-1, 2)])
def test_apply_matches_orbit_expansion(beta):
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 5)
        P = _random_symmetric(rng, n, 6, nterms=4)
        want = _hamiltonian_expanded(P, beta)
        assert apply_hamiltonian(P.to_msym(), beta) == want.to_msym()
