"""The verification suites that run in Z at beta0 = beta(k, r) on the
admissible basis (module basis): ideal closure, restriction, the wheel
identification with its Bareiss rank, and the lowest-weight check phi3.
No Q(beta) code is loaded: the suites over Q(beta) live in identities.
The CLI imports this module, and with it operators and report, only for
`verify`."""

from math import gcd

from .partitions import (InvalidParameters, beta_value, eigenvalue_pair,
                         is_admissible, partitions_leq)
from .sympoly import _replace_part
from .jack import specialize
from .basis import build_basis, reduce_membership
from .operators import (OperatorTag, apply_hamiltonian, apply_l,
                        class_table, coincident_row, dunkl_chain)
from .report import Report


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
    euler, diag = eigenvalue_pair(lam, 3)
    rep.add("hamiltonian",
            apply_hamiltonian(P, b0) == P.scale(euler + diag * b0))
    rep.add("lowering", apply_l(P, -1).is_zero())
    return rep
