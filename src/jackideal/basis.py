"""The admissible Jack basis at beta(k, r) (build_basis) and membership in
its span (reduce_membership).  With ratfunc, partitions, sympoly and jack
this is the core, which every CLI command but verify runs on alone."""

import os
from fractions import Fraction
from itertools import compress
from math import gcd

from .partitions import as_partition, beta_value, enumerate_admissible
from .jack import JackCache, jack_at_key


class DegreeOverflow(ValueError):
    """Input degree exceeds what the basis was built for."""


class MembershipCertificate:
    """Result of a membership reduction: either an exact combination over the
    admissible basis, or an obstruction: the lex-leading partition of the
    lowest nonzero degree of the normal form (what is left once every
    admissible leading term is cleared), whatever the elimination order."""

    __slots__ = ("member", "combination", "obstruction")

    def __init__(self, member, combination, obstruction):
        self.member = member
        self.combination = combination
        self.obstruction = obstruction

    def to_obj(self):
        from .ratfunc import rat_to_obj
        obj = {"member": self.member}
        if self.member:
            obj["combination"] = [
                {"partition": list(p), "coeff": rat_to_obj(c)}
                for p, c in sorted(self.combination.items(),
                                   key=lambda t: (sum(t[0]), t[0]))]
        else:
            obj["obstruction"] = list(self.obstruction)
        return obj

    def __repr__(self):
        if self.member:
            return "MembershipCertificate(member, %d terms)" % len(self.combination)
        return "MembershipCertificate(obstruction=%r)" % (self.obstruction,)


class IdealBasis:
    """Specialized Jack polynomials P_lam(beta0) over the admissible
    partitions of weight <= dmax, for fixed (k, r, n)."""

    def __init__(self, k, r, n, dmax, beta0, family, elements, cache):
        self.k, self.r, self.n, self.dmax = k, r, n, dmax
        self.beta0 = beta0
        self.family = family
        self.elements = elements  # dict lam -> SpecializedJack
        self._cache = cache  # the JackCache that built it, for its row tables
        self._normal_forms = {}  # degree -> normal_forms(degree), on first use

    def normal_forms(self, e):
        """(cols, pos, rows) for degree e <= dmax: pos[mu] is the position of
        mu in order = partitions_leq(e, n), both read off table(e, n) of the
        cache that built the basis, cols the partitions not in elements in
        that decreasing lex order, and rows[pos[mu]] the integer row
        ((j, x), ...) with E NF(m_mu) = sum_j x m_cols[j], one E > 0 per
        degree.  The normal form NF is m_mu off the basis and -sum_(mu < lam)
        P_lam[mu] NF(m_mu) at each lam in elements, built in increasing lex
        order from (D, N) = (den, num), N = D P_lam, of its SpecializedJack;
        E grows by D/g, g = gcd(D, content), when D does not divide the sum.
        Rows and columns both come from elements, as in reduce_membership."""
        if e > self.dmax:
            raise DegreeOverflow("degree %d beyond basis dmax=%d"
                                 % (e, self.dmax))
        if e not in self._normal_forms:
            order, pos = self._cache.table(e, self.n)[:2]
            cols = [mu for mu in order if mu not in self.elements]
            rows = [None] * len(order)
            for j, mu in enumerate(cols):
                rows[pos[mu]] = {j: 1}
            for i in reversed(range(len(order))):
                if rows[i] is not None:
                    continue
                D, N = self.elements[order[i]].cleared()
                acc = {}
                for mu, x in N.terms.items():  # no row for lam yet
                    for j, y in (rows[pos[mu]] or {}).items():
                        acc[j] = acc.get(j, 0) - x * y
                g = gcd(D, *acc.values())
                if g != D:
                    for row in filter(None, rows):
                        for j in row:
                            row[j] *= D // g
                rows[i] = {j: y // g for j, y in acc.items() if y}
            self._normal_forms[e] = (cols, pos,
                                     [tuple(row.items()) for row in rows])
        return self._normal_forms[e]

    def obstruction(self, P):
        """reduce_membership(P, self).obstruction, None for a member: the
        first obstruction among P's homogeneous components, lowest degree
        first (_obstruction_at)."""
        if P.n != self.n:
            raise ValueError("polynomial has n=%d, basis has n=%d"
                             % (P.n, self.n))
        for d, comp in P.homogeneous_components().items():
            pos = self.normal_forms(d)[1]
            coeffs = [0] * len(pos)
            for mu, c in comp.terms.items():
                coeffs[pos[mu]] = c
            obs = self._obstruction_at(d, coeffs)
            if obs is not None:
                return obs
        return None

    def _obstruction_at(self, d, coeffs):
        """The obstruction of sum_i coeffs[i] m_mu_i over the positions i of
        normal_forms(d): the lex-largest column where sum_i coeffs[i] E
        NF(m_mu_i) is nonzero, None when it vanishes.  Only the nonzero
        coefficients are scattered, and a member is answered by one any()
        over the accumulator before any column is looked for."""
        cols, _, rows = self.normal_forms(d)
        acc = [0] * len(cols)
        for c, row in compress(zip(coeffs, rows), coeffs):
            for j, y in row:
                acc[j] += c * y
        if not any(acc):
            return None
        return next(compress(cols, acc))

    def by_degree(self, d):
        return self.family.by_degree.get(d, ())

    def character(self):
        return self.family.character()

    def get(self, lam):
        return self.elements[as_partition(lam)]

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        for lam in self.family.all_partitions():
            yield self.elements[lam]

    def to_dir(self, path):
        """One degree_NN.json per degree 0..dmax: k, r, n, the degree and
        its elements' to_json, as json.dump writes the object."""
        os.makedirs(path, exist_ok=True)
        keys = {}
        for d in range(self.dmax + 1):
            with open(os.path.join(path, "degree_%02d.json" % d), "w") as fh:
                fh.write('{"k": %d, "r": %d, "n": %d, "degree": %d, '
                         '"elements": [%s]}' % (
                             self.k, self.r, self.n, d, ", ".join(
                                 self.elements[lam].to_json(keys)
                                 for lam in self.by_degree(d))))


def build_basis(k, r, n, dmax, cache=None):
    """The admissible basis: each admissible lam at beta0 = beta(k, r),
    taken once here, by jack_at_key on the family's own keys, solved at the
    point through one cache (made here when none is given).  The basis is
    filed in that cache under (k, r, n, dmax), so the next call on the same
    cache returns the same object, normal-form tables included: treat it as
    frozen, and build a basis to tamper with on a cache of its own."""
    b0 = beta_value(k, r)
    cache = cache if cache is not None else JackCache()
    with cache._lock:
        hit = cache._bases.get((k, r, n, dmax))
    if hit is None:  # built outside the lock, which cache.put takes
        fam = enumerate_admissible(k, r, n, dmax)
        elements = {lam: jack_at_key(lam, n, b0, cache)
                    for lam in fam.all_partitions()}
        with cache._lock:  # a racing build files first and both return it
            hit = cache._bases.setdefault((k, r, n, dmax), IdealBasis(
                k, r, n, dmax, b0, fam, elements, cache))
    return hit


def reduce_membership(P, basis):
    """Reduction of P (over Q) against the basis, one sweep per degree.

    A component is scaled to integers by s > 0 and reduced on its lex-largest
    remaining term p, a dominance-maximal one (clearing p adds only terms p
    dominates): a non-admissible one is the obstruction, an admissible one
    records c/s and is cleared fraction-free against the integer row of its
    Jack, its integral form (den, num).
    """
    if P.n != basis.n:
        raise ValueError("polynomial has n=%d, basis has n=%d" % (P.n, basis.n))
    for c in P.terms.values():
        if not isinstance(c, (int, Fraction)):
            raise TypeError("membership reduction needs coefficients in Q")
    combination = {}
    for d, comp in P.homogeneous_components().items():
        if d > basis.dmax:
            raise DegreeOverflow("degree %d beyond basis dmax=%d" % (d, basis.dmax))
        s, Q = comp.cleared()
        work = dict(Q.terms)
        while work:
            p = max(work)
            c = work[p]
            if p not in basis.elements:
                return MembershipCertificate(False, {}, p)
            combination[p] = Fraction(c, s)
            D, N = basis.elements[p].cleared()
            g = gcd(c, D)
            u, v = D // g, c // g
            s *= u
            if u != 1:
                for mu in work:
                    work[mu] *= u
            for mu, x in N.terms.items():  # clears p, as N[p] == D
                y = work.pop(mu, 0) - v * x
                if y:
                    work[mu] = y
    return MembershipCertificate(True, combination, None)
