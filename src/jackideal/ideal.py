"""The verification suites on the admissible basis (module basis): the
eigen-equations, Pieri/Lassalle transition coefficients and expansions,
ideal closure, restriction, regularity and the wheel identification with
its Bareiss rank.  The CLI imports this module, and with it operators and
report, only for `verify`."""

from fractions import Fraction
from math import gcd, prod

from .ratfunc import BETA, BetaPoly, BetaRatFunc, order_and_value
from .partitions import (InvalidParameters, add_node, addable_rows,
                         as_partition, beta_value, conjugate,
                         enumerate_admissible, is_admissible, node_moves,
                         padded, partitions_leq, removable_rows, remove_node)
from .sympoly import MSymPoly, _replace_part
from .jack import JackCache, specialize
from .symbolic import (c_lambda, cs_eigenvalue, jack_symbolic, pole_profile,
                       sekiguchi_eigenvalue)
from .basis import build_basis, reduce_membership
from .operators import (OperatorTag, apply_hamiltonian, apply_l, apply_p,
                        apply_sekiguchi, class_table, coincident_row,
                        dunkl_chain)
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
# exact linear algebra for the wheel space

def bareiss_rank(rows):
    """Rank of an integer matrix given as sparse rows {column: int}, by
    fraction-free elimination; columns are any mutually comparable keys.

    Each row is reduced on its leading (smallest) column against the pivot
    that owns it, row <- (p/g) row - (r/g) pivot with p, r the two leading
    entries and g = gcd(p, r), until it vanishes or reaches a free column,
    where it is divided by its content and kept as that column's pivot."""
    pivots = {}
    for row in rows:
        row = {j: v for j, v in row.items() if v}
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                g = gcd(*row.values())
                pivots[lead] = {j: v // g for j, v in row.items()}
                break
            g = gcd(piv[lead], row[lead])
            p, r = piv[lead] // g, row[lead] // g
            row = {j: p * v for j, v in row.items()}
            for j, v in piv.items():
                row[j] = row.get(j, 0) - r * v
            row = {j: v for j, v in row.items() if v}
    return len(pivots)


def wheel_dimension(k, n, d, rows=None):
    """Dimension of the degree-d symmetric polynomials in n variables that
    vanish when k+1 variables coincide (kernel of the coincidence map).
    The rank runs over the rows coincident_row(lam, n, k + 1), built once
    into `rows`, the caller's memo; a row's columns are its negated class
    positions, so elimination takes the lex-smallest class key first.

    With fewer than k+1 variables the condition is vacuous and the whole
    degree-d component survives.
    """
    lams = partitions_leq(d, n)
    if n < k + 1:
        return len(lams)
    rows = {} if rows is None else rows
    return len(lams) - bareiss_rank(
        {-p: x for p, x in coincident_row(lam, n, k + 1, rows)}
        for lam in lams)


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


def verify_pieri(n, dmax, k=None, r=None, symbolic=False, cache=None):
    """Pieri rule for p_1 on Jack polynomials.

    Symbolic part (when symbolic or without k; identically in beta, on
    cleared integer numerators by _expansion_holds): p_1 P_mu = sum psi'
    P_lam for every mu of weight < dmax.  Specialized part (needs k, r):
    for admissible mu, psi' toward non-admissible lam vanishes at
    beta(k, r) and toward admissible lam stays regular, the specialized
    identity holds over Q, and the product reduces to exactly that
    combination under membership.
    """
    symbolic = symbolic or k is None
    cache = cache if cache is not None else JackCache()
    rep = Report("pieri", {"n": n, "dmax": dmax, "k": k, "r": r,
                           "symbolic": symbolic})
    if symbolic:
        for d in range(dmax):
            for mu in partitions_leq(d, n):
                rep.add("symbolic:%s" % (list(mu),), _expansion_holds(
                    lambda N: apply_p(N, 1), mu,
                    _raise_moves(mu, n, _pieri_factors), n, cache))
    if k is not None:
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


def verify_lassalle(n, dmax, k=None, r=None, symbolic=False, cache=None):
    """Raising/lowering expansions l_1 P_mu and l_-1 P_mu in the Jack basis.

    Symbolic part (when symbolic or without k) checks both expansions
    identically in beta for all mu with |mu| < dmax, on cleared integer
    numerators (_expansion_holds); the specialized part (needs k, r)
    checks, for admissible mu, the per-neighbour vanishing mechanism at
    beta(k, r) (asserting the specific vanishing factor, not just the
    product) and the specialized identities over Q.
    """
    symbolic = symbolic or k is None
    cache = cache if cache is not None else JackCache()
    rep = Report("lassalle", {"n": n, "dmax": dmax, "k": k, "r": r,
                              "symbolic": symbolic})
    if symbolic:
        for d in range(dmax):
            for mu in partitions_leq(d, n):
                rep.add("symbolic-up:%s" % (list(mu),), _expansion_holds(
                    lambda N: apply_l(N, 1), mu,
                    _raise_moves(mu, n, _lassalle_up_factors), n, cache))
                rep.add("symbolic-down:%s" % (list(mu),), _expansion_holds(
                    lambda N: apply_l(N, -1), mu, _lower_moves(mu, n), n,
                    cache))
    if k is not None:
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


def closure_tags(mmax, tmax):
    """The operator battery for the closure suite, in a fixed order."""
    tags = [OperatorTag("p", m) for m in range(1, mmax + 1)]
    tags += [OperatorTag("l", m) for m in range(-1, mmax + 1)]
    for t in range(2, tmax + 1):
        tags += [OperatorTag("w", m, t) for m in range(-t + 1, mmax + 1)]
    return tags


def verify_closure(k, r, n, dmax, mmax=4, tmax=4, cache=None):
    """Ideal property: every operator image of every basis element reduces
    to a member of the span, in every degree the battery can reach.

    Images are taken of N = D P in Z (SpecializedJack.num), all read off
    its integer Dunkl chain c_s nabla_1^s N on classes, s < tmax
    (OperatorTag.chain_step).  Positive scales change neither membership nor
    the obstruction, and the report records only those.  Tags with one
    chain step (l_m and w^(2)_m) share one verdict, computed at the first
    tag that needs it and read in one pass over the entry's (position,
    coefficient) pairs.  Key (a,) + nu at position p of class_table(n,
    d - shift) is (a + shift,) + nu at p of class_table(n, d), so one list
    per image degree d, filled on first use, sends p to the position of
    nu + (a + shift) in degree d's normal-form table and its multiplicity;
    the summed coefficients scatter their rows (IdealBasis._obstruction_at),
    so no image is built.  One memo (`rows`) serves the chains of the run.
    """
    if mmax < 1 or tmax < 2:
        raise ValueError("closure needs mmax >= 1 and tmax >= 2")
    b0 = beta_value(k, r)
    rep = Report("closure", {"k": k, "r": r, "n": n, "dmax": dmax,
                             "mmax": mmax, "tmax": tmax})
    basis = build_basis(k, r, n, dmax, cache)
    tags = [(tag.m, tag.chain_step(), "%s@" % tag)
            for tag in closure_tags(mmax, tmax)]
    rows, maps = {}, {}  # maps: d -> (normal-form positions, keys, list)
    for lam in basis.family.all_partitions():
        chain = dunkl_chain(basis.elements[lam].num, tmax - 1, b0, rows)
        found = {}  # (s, shift) -> obstruction, None for a member
        e, label = sum(lam), str(list(lam))
        for m, step, name in tags:
            d = e + m
            if 0 <= d <= dmax:
                if step not in found:
                    if d not in maps:
                        order = class_table(n, d, rows)[0]
                        maps[d] = (basis.normal_forms(d)[1], order,
                                   [None] * len(order))
                    pos, order, memo = maps[d]
                    coeffs = [0] * len(pos)
                    for p, c in chain[step[0]][1]:
                        hit = memo[p]
                        if hit is None:
                            mu, x = _replace_part(order[p][1:], n, 0,
                                                  order[p][0])
                            hit = memo[p] = pos[mu], x
                        coeffs[hit[0]] += c * hit[1]
                    found[step] = basis._obstruction_at(d, coeffs)
                obs = found[step]
                rep.add(name + label, obs is None,
                        **({} if obs is None else {"obstruction": list(obs)}))
    return rep


def verify_restriction(k, r, n, dmax, jmax=2, cache=None):
    """Setting x_n = 0 after j-fold d/dx_n maps the span at n into the span
    at n-1, exactly.  The image of N = D P is read on the m-basis
    (restrict_last) and its verdict off the normal-form table at n-1
    (IdealBasis.obstruction); D > 0 changes no verdict or obstruction."""
    if n < 2:
        raise InvalidParameters("restriction needs n >= 2")
    if jmax < 0:
        raise ValueError("restriction needs jmax >= 0")
    rep = Report("restriction", {"k": k, "r": r, "n": n, "dmax": dmax,
                                 "jmax": jmax})
    basis_n = build_basis(k, r, n, dmax, cache)
    basis_m = build_basis(k, r, n - 1, dmax, cache)
    for lam in basis_n.family.all_partitions():
        P = basis_n.get(lam).num
        for j in range(jmax + 1):
            obs = basis_m.obstruction(P.restrict_last(j))
            rep.add("restrict[j=%d]@%s" % (j, list(lam)), obs is None,
                    **({} if obs is None else {"obstruction": list(obs)}))
    return rep


def verify_wheel(k, n, dmax, cache=None):
    """Identification with the wheel space at r = 2: the admissible count
    matches the wheel-kernel dimension in every degree, and every basis
    element vanishes when k+1 variables coincide, read on its integral
    form N = D P.  One coincident_row memo serves both halves."""
    rep = Report("wheel", {"k": k, "r": 2, "n": n, "dmax": dmax})
    basis = build_basis(k, 2, n, dmax, cache)
    rows = {}
    for d in range(dmax + 1):
        wd = wheel_dimension(k, n, d, rows)
        ac = len(basis.by_degree(d))
        rep.add("character[d=%d]" % d, wd == ac,
                wheel_dim=wd, admissible_count=ac,
                empty_admissible=is_admissible((), k, 2, n))
    if n < k + 1:
        rep.add("vanish:vacuous", True, note="fewer than k+1 variables")
    else:
        for lam in basis.family.all_partitions():
            img = {}
            for mu, c in basis.get(lam).num.terms.items():
                for p, x in coincident_row(mu, n, k + 1, rows):
                    img[p] = img.get(p, 0) + c * x
            rep.add("vanish@%s" % (list(lam),), not any(img.values()))
    return rep


def verify_phi3(r, cache=None):
    """The smallest nontrivial element at (k, n) = (2, 3): P_(r) at
    beta(2, r) is a lowest-weight vector of degree r."""
    b0 = beta_value(2, r)
    rep = Report("phi3", {"k": 2, "r": r, "n": 3})
    lam = (r,)
    rep.add("admissible", is_admissible(lam, 2, r, 3))
    P = specialize(lam, 3, 2, r, cache).poly
    rep.add("euler", apply_l(P, 0) == P.scale(r))
    eps = cs_eigenvalue(lam, 3)(b0)
    rep.add("hamiltonian", apply_hamiltonian(P, b0) == P.scale(eps))
    rep.add("lowering", apply_l(P, -1).is_zero())
    return rep
