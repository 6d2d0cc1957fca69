"""Differential oracle for jack_symbolic.

gap_product_solve is the earlier solver, kept unchanged as an independent
reference: it runs over the product of all eigenvalue gaps and reduces every
coefficient in Q(beta) at the end.  jack_symbolic stores c_lambda P_lam by
construction, so comparing the two on the acceptance grid is what checks the
clearing fact (reduced denominators divide c_lambda) from outside the solver.
"""

from jackideal.jack import JackCache, hamiltonian_matrix_row, jack_symbolic
from jackideal.partitions import (as_partition, c_lambda, cs_eigenvalue,
                                  dominated_by, partitions_leq)
from jackideal.ratfunc import BetaPoly, BetaRatFunc


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
    rows = {lam: hamiltonian_matrix_row(lam, n)}
    # decreasing lex refines dominance, so every mu > nu is already solved
    for nu in below:
        acc = BetaPoly()
        for mu, nmu in nums.items():
            h = rows[mu].get(nu)
            if h is not None:
                acc = acc + nmu * h
        nums[nu] = acc.exact_div(gaps[nu])
        rows[nu] = hamiltonian_matrix_row(nu, n)

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
