"""Differential oracles for the closed-form Hamiltonian.

_hamiltonian_expanded is the earliest implementation, kept unchanged as an
independent reference: it acts on every monomial of an S_n-orbit expansion
and telescopes each (x_i + x_j)/(x_i - x_j) pair directly.  The m-basis rows
of hamiltonian_row use pair moves on the parts of mu with weights read off
multiplicities instead, so agreement here checks that closed form from
outside it.  orbit_ratio_row, the pair-move row that divides by orbit sizes,
is kept as a second oracle for those weights.
"""

import random
from fractions import Fraction

import pytest

from jackideal.expanded import ExpandedPoly, _random_symmetric
from jackideal.jack import JackCache, hamiltonian_matrix_row, hamiltonian_row
from jackideal.operators import apply_hamiltonian
from jackideal.partitions import as_partition, padded, partitions_leq
from jackideal.ratfunc import BETA, BetaPoly
from jackideal.sympoly import MSymPoly, NotSymmetric, orbit_size


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


def matrix_row(mu, n):
    """hamiltonian_matrix_row of mu, placed in a fresh table of its degree,
    with its entries keyed back by partition: (euler, diag, {nu: h_nu})."""
    order, pos = JackCache().table(sum(mu), n)[:2]
    euler, diag, off = hamiltonian_matrix_row(mu, n, pos)
    return euler, diag, {order[j]: h for j, h in off}


def int_row_as_betapoly(mu, n):
    """The int row the solver uses, as dict nu -> BetaPoly."""
    euler, diag, off = matrix_row(mu, n)
    row = {nu: BetaPoly((0, h)) for nu, h in off.items()}
    if euler or diag:
        row[mu] = BetaPoly((euler, diag))
    return row


def expanded_row(mu, n):
    q = MSymPoly(n, {mu: 1}).to_expanded()
    hm = _hamiltonian_expanded(q, BETA, validate=False).to_msym()
    return {nu: c if isinstance(c, BetaPoly) else BetaPoly((c,))
            for nu, c in hm.terms.items()}


def orbit_ratio_row(mu, n, kinds=None):
    """hamiltonian_row by pair moves and orbit sizes: each slot pair
    a = p_i > b = p_j moves to (a - t, b + t) for 0 < t < a - b and adds
    (a - b) mult(a) mult(b) to S[nu]; then h_nu = S[nu] |orbit(mu)| /
    |orbit(nu)|, an exact division.  Adds to `kinds` whether a move had
    a - t == b + t."""
    p = padded(mu, n)
    moves = {}
    values = sorted(set(p), reverse=True)
    for x, a in enumerate(values):
        i = p.index(a)
        for b in values[x + 1:]:
            j = p.index(b)
            w = (a - b) * p.count(a) * p.count(b)
            for t in range(1, a - b):
                q = list(p)
                q[i], q[j] = a - t, b + t
                nu = as_partition(sorted(q, reverse=True))
                moves[nu] = moves.get(nu, 0) + w
                if kinds is not None:
                    kinds.add(a - t == b + t)
    size = orbit_size(mu, n)
    row = {nu: s * size // orbit_size(nu, n) for nu, s in moves.items()}
    diag = sum((n - 1 - 2 * i) * a for i, a in enumerate(p))
    if diag:
        row[mu] = diag
    return sum(a * a for a in p), row


# the last two are the grids of the basis-deep and basis-wide benchmarks
@pytest.mark.parametrize("n, dmax", [(1, 10), (2, 10), (3, 10), (4, 10),
                                     (5, 10), (6, 10), (9, 6), (3, 18),
                                     (9, 8)])
def test_rows_match_orbit_expansion(n, dmax):
    for d in range(dmax + 1):
        for mu in partitions_leq(d, n):
            assert int_row_as_betapoly(mu, n) == expanded_row(mu, n), \
                (mu, n)


def test_rows_match_orbit_ratios():
    # moves to c1 = c2 and to c1 != c2 weigh differently; both occur
    kinds = set()
    for n in range(1, 9):
        for d in range(15):
            for mu in partitions_leq(d, n):
                want = orbit_ratio_row(mu, n, kinds)
                assert hamiltonian_row(mu, n) == want, (mu, n)
    assert kinds == {True, False}


@pytest.mark.parametrize("beta", [BETA, Fraction(-1, 2)])
def test_apply_matches_orbit_expansion(beta):
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 5)
        P = _random_symmetric(rng, n, 6, nterms=4)
        want = _hamiltonian_expanded(P, beta)
        assert apply_hamiltonian(P.to_msym(), beta) == want.to_msym()
