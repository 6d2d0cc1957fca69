"""The verification suites over Q(beta) on the Jack polynomials and the
admissible basis (module basis): the eigen-equations, the Pieri and
Lassalle transition coefficients and expansions, and regularity.  Each
reads the symbolic Jacks (symbolic) and coefficients in Q[beta] and
Q(beta) (ratfunc); the suites that run in Z at beta(k, r) live in ideal.
The CLI imports this module only for the `verify` suites it holds."""

from fractions import Fraction
from math import prod

from .ratfunc import BETA, BetaPoly, BetaRatFunc, order_and_value
from .partitions import (add_node, addable_rows, as_partition, beta_value,
                         conjugate, enumerate_admissible, is_admissible,
                         node_moves, padded, partitions_leq, removable_rows,
                         remove_node)
from .sympoly import MSymPoly
from .jack import JackCache
from .symbolic import (c_lambda, cs_eigenvalue, jack_symbolic, pole_profile,
                       sekiguchi_eigenvalue)
from .basis import build_basis, reduce_membership
from .operators import apply_hamiltonian, apply_l, apply_p
from .report import Report


# ---------------------------------------------------------------------------
# transition coefficients

def _pieri_factors(mu, j):
    """(num, den), integer BetaPolys, unreduced: the Pieri coefficient for
    adding one node in row j to mu (1-indexed) is num/den, the product over
    i < j of
      ((j-i-1)b + mu_i - mu_j) / ((j-i)b + mu_i - mu_j - 1)
      * ((j-i+1)b + mu_i - mu_j - 1) / ((j-i)b + mu_i - mu_j).
    """
    mu = as_partition(mu)
    add_node(mu, j)  # validates the row
    mj = mu[j - 1] if j <= len(mu) else 0
    num = BetaPoly((1,))
    den = BetaPoly((1,))
    for i in range(1, j):
        d = mu[i - 1] - mj
        num = num * BetaPoly((d, j - i - 1)) * BetaPoly((d - 1, j - i + 1))
        den = den * BetaPoly((d - 1, j - i)) * BetaPoly((d, j - i))
    return num, den


def _lassalle_up_factors(mu, j):
    """(num, den) of lassalle_up: the Pieri factors times -(j-1) b + mu_j."""
    mu = as_partition(mu)
    num, den = _pieri_factors(mu, j)
    mj = mu[j - 1] if j <= len(mu) else 0
    return num * BetaPoly((mj, -(j - 1))), den


def _lassalle_down_factors(mu, i, n):
    """(num, den), integer BetaPolys, unreduced: the coefficient of
    P_(mu - node in row i) in l_-1 P_mu (ambient n) is num/den,
    (1/b) ((n-i)b + mu_i)((n-i+1)b + mu_i - 1)
      * prod_{j=i+1..n} ((j-i-1)b + mu_i - mu_j)/((j-i)b + mu_i - mu_j)
      * prod_{j=1..mu_i-1} ((conj_j - i + 1)b + mu_i - j - 1)
                          /((conj_j - i + 1)b + mu_i - j).
    """
    mu = as_partition(mu)
    remove_node(mu, i)  # validates the row
    mp = padded(mu, n)
    mi = mp[i - 1]
    conj = conjugate(mu)
    num = BetaPoly((mi, n - i)) * BetaPoly((mi - 1, n - i + 1))
    den = BETA
    for j in range(i + 1, n + 1):
        d = mi - mp[j - 1]
        num = num * BetaPoly((d, j - i - 1))
        den = den * BetaPoly((d, j - i))
    for j in range(1, mi):
        a = conj[j - 1] - i + 1
        num = num * BetaPoly((mi - j - 1, a))
        den = den * BetaPoly((mi - j, a))
    return num, den


def pieri_coefficient(mu, j):
    """Transition coefficient psi' for adding one node in row j to mu
    (1-indexed), in Q(beta); see _pieri_factors."""
    return BetaRatFunc(*_pieri_factors(mu, j))


def lassalle_up(mu, j):
    """Coefficient of P_(mu + node in row j) in l_1 P_mu:
    psi' * (-(j-1) b + mu_j)."""
    return BetaRatFunc(*_lassalle_up_factors(mu, j))


def lassalle_down(mu, i, n):
    """Coefficient of P_(mu - node in row i) in l_-1 P_mu (ambient n), in
    Q(beta); see _lassalle_down_factors."""
    return BetaRatFunc(*_lassalle_down_factors(mu, i, n))


# ---------------------------------------------------------------------------
# verification suites

def verify_hamiltonian(lam, n, cache=None):
    """Exact check of H P_lam = eps_lam P_lam, identically in beta."""
    Q = MSymPoly(n, jack_symbolic(lam, n, cache).nums)
    lhs = apply_hamiltonian(Q, BETA)
    return lhs == Q.scale(cs_eigenvalue(lam, n))


def verify_sekiguchi(lam, n, cache=None):
    """Exact check of the full Sekiguchi eigen-equation
    S(u, beta) P_lam = prod_i (u + lam_i + (n-i) beta) P_lam in Q[beta][u]."""
    from .expanded import apply_sekiguchi
    Q = MSymPoly(n, jack_symbolic(lam, n, cache).nums).to_expanded()
    got = apply_sekiguchi(Q, BETA)
    want = sekiguchi_eigenvalue(lam, n)
    return len(got) == len(want) and all(
        g == Q * w for g, w in zip(got, want))


def verify_eigensystem(n, dmax, cache=None):
    """Both eigen-equations for every partition of weight <= dmax."""
    cache = cache if cache is not None else JackCache()
    rep = Report("eigensystem", {"n": n, "dmax": dmax})
    for d in range(dmax + 1):
        for lam in partitions_leq(d, n):
            rep.add("hamiltonian:%s" % (list(lam),),
                    verify_hamiltonian(lam, n, cache))
            rep.add("sekiguchi:%s" % (list(lam),),
                    verify_sekiguchi(lam, n, cache))
    return rep


def clearing_zero_order(lam, k, r, n):
    """Expected order of the zero of c_lambda at beta(k, r) for a
    non-admissible one-node neighbour of an admissible partition: 1 when
    some violated window lies inside the diagram, 0 when the violations
    only push against padded zero rows (the hooks never see those)."""
    lp = padded(lam, n)
    orders = set()
    for i in range(n - k):
        if lp[i] - lp[i + k] < r:
            orders.add(0 if lp[i + k] == 0 else 1)
    if not orders:
        raise ValueError("%r is (%d,%d,%d)-admissible" % (lam, k, r, n))
    return max(orders)


def verify_regularity(k, r, n, dmax, cache=None):
    """Every admissible partition and every one-node neighbour of one has a
    pole-free Jack limit at beta(k, r); for non-admissible neighbours the
    clearing product c_lambda has a zero there of the expected order
    (simple for internal violations, none for zero-row violations)."""
    b0 = beta_value(k, r)
    cache = cache if cache is not None else JackCache()
    rep = Report("regularity", {"k": k, "r": r, "n": n, "dmax": dmax})
    fam = enumerate_admissible(k, r, n, dmax)
    seen = set()
    for mu in fam.all_partitions():
        for lam in [mu] + node_moves(mu, n):
            if lam in seen:
                continue
            seen.add(lam)
            prof = pole_profile(lam, n, b0, cache)
            rep.add("regular:%s" % (list(lam),), prof == 0,
                    pole_profile=prof)
            if not is_admissible(lam, k, r, n):
                mult = c_lambda(lam).root_multiplicity(b0)
                want = clearing_zero_order(lam, k, r, n)
                rep.add("clearing-zero:%s" % (list(lam),), mult == want,
                        zero_order=mult, expected=want)
    return rep


def _raise_moves(mu, n, factors):
    """[(j, mu + node in row j, factors(mu, j))] over the addable rows."""
    return [(j, add_node(mu, j), factors(mu, j)) for j in addable_rows(mu, n)]


def _lower_moves(mu, n):
    """[(i, mu - node in row i, (num, den) of lassalle_down)] over the
    removable rows."""
    return [(i, remove_node(mu, i), _lassalle_down_factors(mu, i, n))
            for i in removable_rows(mu)]


def _expansion_holds(op, mu, moves, n, cache):
    """op P_mu == sum_j (A_j / B_j) P_lam_j identically in beta, for moves
    [(row, lam_j, (A_j, B_j))] with integer BetaPolys and B_j != 0, checked in
    Z[beta] with no gcd.  With N_lam = D_lam P_lam the cleared Jacks
    (JackPoly.cleared()), both sides are multiplied by D_mu prod_j B_j D_lam_j:
      (prod_j B_j D_lam_j) op N_mu
        == sum_j A_j D_mu (prod_{i != j} B_i D_lam_i) N_lam_j.
    Terms with A_j = 0 drop out first."""
    def cleared(lam):
        den, nums = jack_symbolic(lam, n, cache).cleared()
        return den, MSymPoly(n, nums)

    d_mu, N_mu = cleared(mu)
    terms = [(a, b, cleared(lam)) for _, lam, (a, b) in moves if a]
    dens = [b * d for _, b, (d, _) in terms]
    rhs = MSymPoly.zero(n)
    for j, (a, _, (_, N)) in enumerate(terms):
        rhs = rhs + N.scale(prod(dens[:j] + dens[j + 1:], start=a * d_mu))
    return op(N_mu).scale(prod(dens)) == rhs


def _neighbour_cases(rep, prefix, mu, moves, basis, mechanism=None):
    """One case per move (row, lam, (num, den)) of an admissible mu: num/den,
    unreduced, is regular at basis.beta0 toward an admissible lam and
    vanishes toward any other, where mechanism(mu, row, basis) -> (ok,
    detail), when given, also checks the factor that carries the zero.
    Returns whether every case passed, and {lam: value} over the admissible
    lam with a nonzero value (a pole fails its case and drops out)."""
    all_ok, combination = True, {}
    for row, lam, (num, den) in moves:
        order, value = order_and_value(num, den, basis.beta0)
        edge = "%s->%s" % (list(mu), list(lam))
        if is_admissible(lam, basis.k, basis.r, basis.n):
            ok = value is not None
            rep.add("%sregular:%s" % (prefix, edge), ok, pole_order=order)
            if value:
                combination[lam] = value
        else:
            ok, detail = mechanism(mu, row, basis) if mechanism else (True, {})
            ok = ok and value == 0
            rep.add("%svanish:%s" % (prefix, edge), ok, **detail,
                    pole_order=order)
        all_ok = all_ok and ok
    return all_ok, combination


def _combine(basis, combination):
    """sum_lam c_lam P_lam(beta0) over a {lam: c_lam} of basis elements."""
    sps = [(basis.get(lam), c) for lam, c in combination.items()]
    return sum((sp.num.scale(Fraction(c, sp.den)) for sp, c in sps),
               MSymPoly(basis.n))


def verify_pieri(n, dmax, k=None, r=None, cache=None):
    """Pieri rule for p_1 on Jack polynomials.

    Without k, the symbolic part (identically in beta, on cleared integer
    numerators by _expansion_holds): p_1 P_mu = sum psi' P_lam for every
    mu of weight < dmax.  With k and r, the specialized part: for
    admissible mu, psi' toward non-admissible lam vanishes at beta(k, r)
    and toward admissible lam stays regular, the specialized identity
    holds over Q, and the product reduces to exactly that combination
    under membership.
    """
    cache = cache if cache is not None else JackCache()
    rep = Report("pieri", {"n": n, "dmax": dmax, "k": k, "r": r,
                           "symbolic": k is None})
    if k is None:
        for d in range(dmax):
            for mu in partitions_leq(d, n):
                rep.add("symbolic:%s" % (list(mu),), _expansion_holds(
                    lambda N: apply_p(N, 1), mu,
                    _raise_moves(mu, n, _pieri_factors), n, cache))
    else:
        basis = build_basis(k, r, n, dmax, cache)
        for mu in basis.family.all_partitions():
            if sum(mu) + 1 > dmax:
                continue
            ok, expected = _neighbour_cases(
                rep, "", mu, _raise_moves(mu, n, _pieri_factors), basis)
            if not ok:
                continue
            lhs = apply_p(basis.get(mu).poly, 1)
            rep.add("identity:%s" % (list(mu),),
                    lhs == _combine(basis, expected))
            cert = reduce_membership(lhs, basis)
            rep.add("member:%s" % (list(mu),),
                    cert.member and cert.combination == expected,
                    certificate=cert.to_obj())
    return rep


def _up_vanishing_factor(mu, j, basis):
    """The zero of l_1's coefficient toward mu + node in row j: with
    i = j - k, the factor (k+1) b + mu_i - mu_j - 1 of the second Pieri
    product, and mu_i - mu_j = r."""
    mup = padded(mu, basis.n)
    i = j - basis.k
    factor = BetaPoly((mup[i - 1] - mup[j - 1] - 1, basis.k + 1))
    ok = (i >= 1 and mup[i - 1] - mup[j - 1] == basis.r
          and factor(basis.beta0) == 0)
    return ok, {"factor": str(factor)}


def _down_vanishing_factor(mu, i, basis):
    """The zero of l_-1's coefficient toward mu - node in row i: the hook
    factor of column j = mu_(i+k) when that row is nonempty, else the
    prefactor."""
    k, r, n = basis.k, basis.r, basis.n
    mup = padded(mu, n)
    mi = mup[i - 1]
    if i + k <= n and mup[i + k - 1] >= 1:
        j = mup[i + k - 1]
        a = conjugate(mu)[j - 1] - i + 1
        ok = (a == k + 1 and mi - j == r
              and BetaPoly((mi - j - 1, a))(basis.beta0) == 0)
        return ok, {"mechanism": "hook-factor[j=%d]" % j}
    # removed row is the last admissibility window: the
    # prefactor (n-i+1) b + mu_i - 1 carries the zero
    ok = (i == n - k and mi == r
          and BetaPoly((mi - 1, n - i + 1))(basis.beta0) == 0)
    return ok, {"mechanism": "prefactor"}


def verify_lassalle(n, dmax, k=None, r=None, cache=None):
    """Raising/lowering expansions l_1 P_mu and l_-1 P_mu in the Jack basis.

    Without k, the symbolic part checks both expansions identically in
    beta for all mu with |mu| < dmax, on cleared integer numerators
    (_expansion_holds); with k and r, the specialized part checks, for
    admissible mu, the per-neighbour vanishing mechanism at beta(k, r)
    (asserting the specific vanishing factor, not just the product) and
    the specialized identities over Q.
    """
    cache = cache if cache is not None else JackCache()
    rep = Report("lassalle", {"n": n, "dmax": dmax, "k": k, "r": r,
                              "symbolic": k is None})
    if k is None:
        for d in range(dmax):
            for mu in partitions_leq(d, n):
                rep.add("symbolic-up:%s" % (list(mu),), _expansion_holds(
                    lambda N: apply_l(N, 1), mu,
                    _raise_moves(mu, n, _lassalle_up_factors), n, cache))
                rep.add("symbolic-down:%s" % (list(mu),), _expansion_holds(
                    lambda N: apply_l(N, -1), mu, _lower_moves(mu, n), n,
                    cache))
    else:
        basis = build_basis(k, r, n, dmax, cache)
        for mu in basis.family.all_partitions():
            _, ups = _neighbour_cases(
                rep, "up-", mu, _raise_moves(mu, n, _lassalle_up_factors),
                basis, _up_vanishing_factor)
            _, downs = _neighbour_cases(rep, "down-", mu, _lower_moves(mu, n),
                                        basis, _down_vanishing_factor)
            if sum(mu) + 1 <= dmax:
                Pmu = basis.get(mu).poly
                rep.add("specialized-up:%s" % (list(mu),),
                        apply_l(Pmu, 1) == _combine(basis, ups))
                rep.add("specialized-down:%s" % (list(mu),),
                        apply_l(Pmu, -1) == _combine(basis, downs))
    return rep
