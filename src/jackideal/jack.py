"""Jack polynomials over Q(beta) by the triangular Hamiltonian recursion.

P_lam is the unique eigenfunction of the Sutherland-type Hamiltonian that is
unitriangular on monomial symmetric functions: P_lam = m_lam + lower terms in
dominance order.  A JackPoly stores the integral form J_lam = c_lam P_lam:
the shared denominator den = c_lambda(lam) and one integer-coefficient
numerator per m-basis coefficient, so the solver, evaluation, pole
profiles and the disk cache all work in Z[beta] without a gcd.  The solver
is one walk in Z on int Hamiltonian rows at a rational point, _walk;
jack_symbolic runs it at beta = 1 and beta = 2^K and reads each numerator
off as the base-2^K digits of its value (Kronecker substitution), as the
numerators have nonnegative integer coefficients (Knop-Sahi, Invent. Math.
128, 1997).  Each walk divides exactly or raises, and the digits of a
value must sum to its value at beta = 1.  It walks the positions of
a per-degree JackCache.table in decreasing lex order, which extends
dominance, and rows and pending sums are keyed by position.  Evaluation
at a rational beta0 = a/b stays in Z too: each numerator is a dot product
with the weights a^i b^(D-i), and one Fraction is built per coefficient
(where den vanishes, order_and_value reads each unreduced numerator/den).
Coefficients in Q(beta) (BetaRatFunc) are built only on request, by
coefficient(), coeffs and msym(); at() never builds one.

A Jack at a rational point (jack_at) skips Z[beta]: _solve_at runs the
same walk on one integer per coefficient, and only where c_lambda or a
visited gap vanishes there does it fall back to jack_symbolic(...).at().
The result stays integral (SpecializedJack: den and an int num): the walk
and the shift build no Fraction.  jack_at validates lam and hands it to
jack_at_key, which takes partition keys as they are and is the one memo of
Jacks at a point.  A lam with n nonzero parts is not walked.  With
e_n = x_1...x_n and D_i = x_i d_i, D_i(e_n f) = e_n (D_i + 1) f, so
H(e_n f) = e_n (H + 2E + n) f (E the Euler operator) and
P_lam = e_n P_(lam - (1^n)) identically in beta.  Adding 1 to each of n
parts keeps decreasing lex order, so the j-th key with n nonzero parts
(full-length) of JackCache.table(d, n) is key j of table (d - n, n) plus
(1^n), and each table keeps the positions of its full-length keys in one
list, full.  _row reads the row of a full-length nu off the row of
nu - (1^n) where that table holds it (euler rises by 2(d - n) + n, diag
stays, the entry at position k becomes the key at full[k]) and builds it
otherwise (hamiltonian_row, from mu's parts); both routes end in
_checked_row, the one check of the diagonal and of each entry's place in
the table and against mu's partial sums.
jack_at_key maps the num of a filed P_(lam - (1^n)) through full (a filed
Jack has no pole), and otherwise jumps to P_base, base = lam - (c^n) with
c = lam_n, with no table between: each key mu, padded to n, becomes
mu + (c^n), which keeps lex order and names a pole of P_base as the same
pole of P_lam.
"""

import json
import os
import threading
from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate
from math import gcd, prod
from operator import add, le, mul

from .ratfunc import BetaPoly, BetaRatFunc, order_and_value
from .partitions import (as_partition, beta_value, c_lambda, cs_eigenvalue,
                         dominated_by, hook_factors, partitions_leq)
from .sympoly import MSymPoly, orbit_size

# format of the JackPoly.to_obj() files that JackCache writes
CACHE_VERSION = 2


class SpecializationPole(ArithmeticError):
    """A Jack coefficient has a pole at the requested beta0."""

    def __init__(self, lam, mu, order, beta0):
        self.lam, self.mu, self.order, self.beta0 = lam, mu, order, beta0
        super().__init__("coefficient of m_%r in P_%r has a pole of order %d "
                         "at beta=%s" % (mu, lam, order, beta0))


class JackPoly:
    """Symbolic Jack polynomial in integral form: P_lam is
    sum_mu (nums[mu] / den) m_mu with den = c_lambda(lam), every numerator
    a nonzero integer-coefficient BetaPoly and nums[lam] = den."""

    __slots__ = ("lam", "n", "den", "nums")

    def __init__(self, lam, n, den, nums):
        self.lam = as_partition(lam)
        self.n = n
        self.den = den
        self.nums = nums  # dict partition -> BetaPoly, decreasing lex order

    @property
    def coeffs(self):
        """The m-basis coefficients in Q(beta): dict partition -> BetaRatFunc."""
        return {mu: BetaRatFunc(p, self.den) for mu, p in self.nums.items()}

    def msym(self):
        return MSymPoly(self.n, self.coeffs)

    def coefficient(self, mu):
        p = self.nums.get(as_partition(mu))
        return BetaRatFunc(0) if p is None else BetaRatFunc(p, self.den)

    def cleared(self):
        """(den, nums): coefficient(mu) = nums[mu] / den exactly, with
        den = c_lambda(lam) and integer-coefficient numerators."""
        return self.den, self.nums

    def at(self, beta0):
        """The m-expansion at beta0 as an MSymPoly over Q.  Raises
        SpecializationPole naming the first coefficient, in decreasing lex
        order, that has a pole there.

        With beta0 = a/b, every numerator and den are scaled by b^D (D the
        top degree): p(beta0) b^D = sum_i c_i w_i with w_i = a^i b^(D-i),
        an integer dot product, so each coefficient costs one Fraction.
        Where den(beta0) = 0, order_and_value reads each (nums[mu], den)."""
        beta0 = Fraction(beta0)
        a, b = beta0.numerator, beta0.denominator
        top = max(p.degree for p in (self.den, *self.nums.values()))
        w = [a ** i * b ** (top - i) for i in range(top + 1)]
        dv = sum(map(mul, self.den.coeffs, w))
        if dv:
            return MSymPoly(self.n, {
                mu: Fraction(sum(map(mul, p.coeffs, w)), dv)
                for mu, p in self.nums.items()})
        terms = {}
        for mu, p in self.nums.items():
            order, terms[mu] = order_and_value(p, self.den, beta0)
            if order > 0:
                raise SpecializationPole(self.lam, mu, order, beta0)
        return MSymPoly(self.n, terms)

    def to_obj(self):
        """The versioned cache-file shape: integer coefficient lists in
        ascending powers of beta."""
        return {"version": CACHE_VERSION, "lam": list(self.lam), "n": self.n,
                "den": list(self.den.coeffs),
                "nums": [{"partition": list(mu), "coeffs": list(p.coeffs)}
                         for mu, p in self.nums.items()]}

    @classmethod
    def from_obj(cls, obj):
        """Inverse of to_obj; raises ValueError (or KeyError/TypeError on a
        malformed shape) unless obj is a consistent entry of this version."""
        if not isinstance(obj, dict) or obj.get("version") != CACHE_VERSION:
            raise ValueError("not a version-%d Jack entry" % CACHE_VERSION)
        lam, n = as_partition(obj["lam"]), obj["n"]
        if type(n) is not int or len(lam) > n:
            raise ValueError("bad n=%r for %r" % (n, lam))
        den = c_lambda(lam)
        nums = {}
        for t in obj["nums"]:
            mu, coeffs = as_partition(t["partition"]), list(t["coeffs"])
            while coeffs and isinstance(coeffs[-1], int) and not coeffs[-1]:
                coeffs.pop()
            if not coeffs or not all(type(c) is int for c in coeffs):
                raise ValueError("numerator of m_%r is not a nonzero "
                                 "integer polynomial" % (mu,))
            if (len(mu) > n or sum(mu) != sum(lam)
                    or not dominated_by(mu, lam)):
                raise ValueError("m_%r outside the support of P_%r"
                                 % (mu, lam))
            if mu in nums:
                raise ValueError("repeated numerator of m_%r" % (mu,))
            nums[mu] = BetaPoly.trusted(tuple(coeffs))
        if BetaPoly(obj["den"]) != den or nums.get(lam) != den:
            raise ValueError("P_%r is not stored over c_lambda" % (lam,))
        return cls(lam, n, den, dict(sorted(nums.items(), reverse=True)))

    def __repr__(self):
        return "JackPoly(lam=%r, n=%d, %d terms)" % (self.lam, self.n,
                                                     len(self.nums))


class SpecializedJack:
    """P_lam at a rational beta0 in integral form, num / den: den > 0 is the
    least common denominator and num an MSymPoly with int coefficients, so
    num[lam] = den; lam is a partition tuple, as jack_at_key files it."""

    __slots__ = ("lam", "n", "beta0", "den", "num")

    def __init__(self, lam, n, beta0, den, num):
        self.lam, self.n, self.beta0 = lam, n, beta0
        self.den, self.num = den, num

    # beta(k, r) = -(r - 1)/(k + 1) is in lowest terms: k + 1, r - 1 coprime
    k = property(lambda self: self.beta0.denominator - 1)
    r = property(lambda self: 1 - self.beta0.numerator)

    @property
    def poly(self):
        """P_lam at beta0 over Q, one Fraction per coefficient."""
        return MSymPoly._raw(self.n, {mu: Fraction(x, self.den)
                                      for mu, x in self.num.terms.items()})

    @poly.setter
    def poly(self, P):
        self.den, self.num = P.cleared()

    def cleared(self):
        """(den, num), as JackPoly.cleared() is in Z[beta]."""
        return self.den, self.num

    def to_obj(self):
        """The JSON form of .poly: each x/den reduced by one gcd."""
        terms = []
        for mu, x in self.num.sorted_terms():
            g = gcd(x, self.den)
            terms.append({MSymPoly.KEY: list(mu), "coeff": {
                "num": str(x // g), "den": str(self.den // g)}})
        return {"n": self.n, "basis": MSymPoly.BASIS, "terms": terms,
                "k": self.k, "r": self.r, "beta": {
                    "num": self.beta0.numerator,
                    "den": self.beta0.denominator}}

    def __repr__(self):
        return "SpecializedJack(lam=%r, n=%d, beta0=%s)" % (self.lam, self.n,
                                                            self.beta0)


class JackCache:
    """Memo state shared by the calls it is passed to, safe for concurrent
    readers: symbolic Jacks (lam, n) -> JackPoly, optionally backed by a
    directory of JSON files, and, in memory only:
    - Hamiltonian rows in one table per (degree, n), which also lists the
      positions of its full-length keys, so _row reads a row off the row
      of nu - (1^n) one table down and jack_at_key a Jack off
      P_(lam - (1^n));
    - Jacks at a point (lam, n, p, q) -> SpecializedJack at beta0 = p/q,
      which jack_at_key files and reads, solved at the point, so only a
      fallback reads or fills the symbolic Jacks;
    - the bases (k, r, n, dmax) -> IdealBasis that basis.build_basis files
      with their normal-form tables, whose positions are the tables'."""

    def __init__(self, directory=None):
        self._mem = {}
        self._tables = {}
        self._at = {}
        self._bases = {}
        self._lock = threading.Lock()
        self.directory = directory
        if directory:
            os.makedirs(directory, exist_ok=True)

    def _path(self, lam, n):
        name = "jack_n%d_%s.json" % (n, "-".join(map(str, lam)) or "0")
        return os.path.join(self.directory, name)

    def get(self, lam, n):
        with self._lock:
            hit = self._mem.get((lam, n))
        if hit is not None or not self.directory:
            return hit
        try:
            with open(self._path(lam, n)) as fh:
                jp = JackPoly.from_obj(json.load(fh))
        except (OSError, ValueError, KeyError, TypeError):
            # absent, unparsable, another version or inconsistent: a miss,
            # and the solve that follows rewrites the file
            return None
        if (jp.lam, jp.n) != (lam, n):
            return None
        self.put(jp, persist=False)
        return jp

    def put(self, jp, persist=True):
        """File a JackPoly under (lam, n), also on disk when persist, or a
        SpecializedJack under (lam, n, p, q), beta0 = p/q, in memory only."""
        with self._lock:
            if isinstance(jp, SpecializedJack):
                b0 = jp.beta0
                self._at[(jp.lam, jp.n, b0.numerator, b0.denominator)] = jp
                return
            self._mem[(jp.lam, jp.n)] = jp
        if persist and self.directory:
            path = self._path(jp.lam, jp.n)
            tmp = "%s.tmp.%d.%d" % (path, os.getpid(), threading.get_ident())
            with open(tmp, "w") as fh:
                json.dump(jp.to_obj(), fh)
            os.replace(tmp, path)

    def table(self, d, n):
        """(order, pos, rows, full): order = partitions_leq(d, n), in
        decreasing lex order, pos[mu] the position of mu in it, rows[i] None
        until _row fills it (a race at worst computes a row twice) and full
        the positions of the keys with n nonzero parts, increasing: full[j]
        is key j of table (d - n, n) plus (1^n)."""
        hit = self._tables.get((d, n))
        if hit is None:
            order = partitions_leq(d, n)
            pos = {mu: i for i, mu in enumerate(order)}
            full = [i for i, mu in enumerate(order)
                    if len(mu) == n] if d >= n else []
            hit = self._tables[(d, n)] = (order, pos, [None] * len(order),
                                          full)
        return hit

    def clear(self):
        with self._lock:
            self._mem.clear()
            self._tables.clear()
            self._at.clear()
            self._bases.clear()
        if self.directory:
            for name in os.listdir(self.directory):
                if name.startswith("jack_n") and name.endswith(".json"):
                    os.remove(os.path.join(self.directory, name))


def hamiltonian_row(mu, n):
    """H m_mu = euler m_mu + beta sum_nu h_nu m_nu in closed form, for
    H = sum_i (x_i d_i)^2 + beta sum_{i<j} (x_i + x_j)/(x_i - x_j)
    (x_i d_i - x_j d_j); returns (euler, {nu: h_nu}) with integer entries,
    for a partition tuple mu (decreasing, no zero parts) of at most n parts.

    With p = mu padded to n slots, euler = sum p_i^2 and the diagonal
    h_mu = sum_{i<j} (p_i - p_j).  Each slot pair a = p_i > b = p_j moves to
    (c1, c2) = (a - t, b + t), 0 < t < a - b, weight a - b; nu is mu less one
    a (and one b > 0) plus c1, c2, sorted.  Per monomial of m_nu, the m_a m_b
    pairs holding a > b (m the multiplicities in p) count |orbit(mu)| /
    |orbit(nu)| = (m_c1 + 1)(m_c2 + 1) / (m_a m_b) times, so a move adds
    (a - b)(m_c1 + 1)(m_c2 + 1), or (a - b)(m_c + 1)(m_c + 2) if c1 = c2 = c.
    The moves t and a - b - t reach the same nu: a c1 > c2 is added doubled.
    """
    mult = {}
    for a in mu:
        mult[a] = mult.get(a, 0) + 1
    values = list(mult) + [0] * (len(mu) < n)  # decreasing
    row = {}
    for x, a in enumerate(values):
        for b in values[x + 1:]:
            rest = list(mu)  # c1, c2 > b >= 0 take the slots of a and b
            rest.remove(a)
            if b:
                rest.remove(b)
            for c2 in range(b + 1, (a + b) // 2 + 1):
                c1 = a + b - c2
                q = rest + [c1, c2]
                q.sort(reverse=True)
                nu = tuple(q)
                m1, m2 = mult.get(c1, 0) + 1, mult.get(c2, 0) + 1
                h = (a - b) * m1 * (m2 + 1 if c1 == c2 else 2 * m2)
                row[nu] = row.get(nu, 0) + h
    diag = sum(map(mul, range(n - 1, -n, -2), mu))
    if diag:
        row[mu] = diag
    return sum(map(mul, mu, mu)), row


def hamiltonian_matrix_row(mu, n, pos):
    """H m_mu in the m-basis with int entries, placed in mu's table:
    (euler, diag, ((pos[nu], h_nu), ...)) for
    H m_mu = (euler + diag beta) m_mu + beta sum_nu h_nu m_nu, with pos the
    positions of JackCache.table(|mu|, n).  mu, a table key, is not
    validated again; the row goes through _checked_row.
    """
    euler, off = hamiltonian_row(mu, n)
    diag = off.pop(mu, 0)
    return _checked_row(mu, n, euler, diag, off.items(), pos)


def _checked_row(mu, n, euler, diag, entries, pos):
    """(euler, diag, ((pos[nu], h), ...)), the row of mu in its table, from
    its entries (nu, h): the diagonal is checked to be the closed-form
    eigenvalue, and each entry, in the loop that places it, to be in the
    table (pos has nu: mu's weight, at most n parts) and
    dominated by mu: no partial sum of nu exceeds mu's, taken once per row
    (past mu's length none can, as the weights agree).  Both routes of
    _row fill rows through this check.
    """
    eig = cs_eigenvalue(mu, n).coeffs  # trailing zeros stripped
    if (euler, diag) != eig + (0,) * (2 - len(eig)):
        raise AssertionError("diagonal of H at %r disagrees with the "
                             "closed-form eigenvalue" % (mu,))
    pm = list(accumulate(mu))
    placed = []
    for nu, h in entries:
        j = pos.get(nu)
        if j is None or not all(map(le, accumulate(nu), pm)):
            raise AssertionError("H m_%r at n=%d hit %r outside the "
                                 "dominance cone" % (mu, n, nu))
        placed.append((j, h))
    return euler, diag, tuple(placed)


def _row(cache, table, i, n):
    """Fill row i of cache.table(d, n), where rows[i] is None.  A key nu
    with n nonzero parts is nu' + (1^n) for key j of table (d - n, n)
    (full[j] = i); where that table already holds row j, the row of nu is
    read off it, as H(e_n f) = e_n (H + 2E + n) f: euler rises by
    2(d - n) + n, diag stays and each entry at position k of table
    (d - n, n) becomes the key at full[k].  Otherwise the row is
    hamiltonian_matrix_row at nu.  Both routes end in _checked_row."""
    order, pos, rows, full = table
    nu = order[i]
    if len(nu) == n:
        d = sum(nu)
        low = cache._tables.get((d - n, n))
        core = low and low[2][bisect_left(full, i)]
        if core:
            euler, diag, off = core
            rows[i] = row = _checked_row(
                nu, n, euler + 2 * d - n, diag,
                [(order[full[k]], h) for k, h in off], pos)
            return row
    rows[i] = row = hamiltonian_matrix_row(nu, n, pos)
    return row


def _walk(lam, n, cache, p, q, top):
    """The one triangular walk, at beta0 = p/q from M_lam = top: {nu: M_nu}
    in walk order, lam first and zeros dropped, or None where a visited gap
    is 0 there.  From top = q^|lam| c_lam(beta0), M_nu = q^|lam| N_nu(beta0)
    for the numerators N_nu = c_lam u_nu of jack_symbolic.  _solve_at runs
    it at a Jack's point, jack_symbolic at beta = 1 and beta = 2^K.

    Solves (eps_lam - eps_nu) u_nu = sum_{nu < mu <= lam} u_mu h_{mu,nu}
    downward over the positions below lam in cache.table(|lam|, n), only
    at the pending nu, those some solved row reaches (sums[i] is not None).
    With the int rows of hamiltonian_matrix_row the gap is g0 + g1 beta
    with g1 > 0, and M_nu = p S_nu / (q g0 + p g1) with
    S_nu = sum_mu h_{mu,nu} M_mu, an exact division in Z whose remainder
    raises.  A zero M_nu still has its row scattered, so a vanishing gap
    below it is met.
    """
    order, pos, rows, _ = table = cache.table(sum(lam), n)
    i_lam = pos[lam]
    euler, diag, off = rows[i_lam] or _row(cache, table, i_lam, n)
    vals = {lam: top}
    sums = [None] * len(order)
    for j, h in off:
        sums[j] = h * top
    # a row reaches only partitions its mu dominates, which are lex-smaller,
    # so every mu that reaches position i is solved before the walk is there
    for i in range(i_lam + 1, len(order)):
        s = sums[i]
        if s is None:
            continue
        e, g, off = rows[i] or _row(cache, table, i, n)
        g0, g1 = euler - e, diag - g
        if g1 <= 0:
            # moving a box from row i down to row j lowers diag by 2(j - i)
            raise AssertionError("eigenvalues of %r and %r do not separate: "
                                 "gap %d + %d beta" % (lam, order[i], g0, g1))
        gap = q * g0 + p * g1
        if not gap:
            return None
        m, rem = divmod(p * s, gap)
        if rem:
            raise AssertionError("c_lambda does not clear the coefficient "
                                 "of m_%r in P_%r" % (order[i], lam))
        if m:
            vals[order[i]] = m
        for j, h in off:  # None, not reached yet, counts as 0
            sums[j] = (sums[j] or 0) + h * m
    return vals


def jack_symbolic(lam, n, cache=None):
    """P_lam in n variables (unitriangular), in its integral form c_lam P_lam:
    den = c_lambda(lam) and the numerators N_nu = c_lam u_nu, read off
    _walk at beta = 1 and beta = 2^K, each from c_lambda(lam) at the point.

    N_nu is Stanley's J_lam[nu] at alpha = 1/beta read backwards, so its
    coefficients are nonnegative integers (Knop-Sahi, Invent. Math. 128,
    1997), none above N_nu(1).  With K the largest bit length of the N_nu(1),
    nu != lam, the base-2^K digits of N_nu(2^K) are the coefficients of
    N_nu (Kronecker substitution); a lam with no other term skips the second
    walk.  Where the walks disagree on which nu are nonzero, or the digits
    of N_nu(2^K) do not sum to N_nu(1), the decode raises the walk's own
    "does not clear" error.  Without a cache the call makes its own.
    """
    lam = as_partition(lam, n)
    cache = cache if cache is not None else JackCache()
    hit = cache.get(lam, n)
    if hit is not None:
        return hit
    den = c_lambda(lam)

    # {nu: N_nu(2^K)}, nu != lam; no gap vanishes at beta > 0, as g1 > 0
    # and euler, the sum of the squared parts, falls down the dominance order
    def walk(K):
        vals = _walk(lam, n, cache, 1 << K, 1,
                     sum(c << K * i for i, c in enumerate(den.coeffs)))
        del vals[lam]
        return vals

    ones, nums = walk(0), {lam: den}
    if ones:
        K = max(v.bit_length() for v in ones.values())
        at, mask = walk(K), (1 << K) - 1
        for nu in {**ones, **at}:  # walk order; a key of one walk only raises
            v, digits = at.get(nu, 0), []
            while v > 0:
                digits.append(v & mask)
                v >>= K
            if v or sum(digits) != ones.get(nu, 0):
                raise AssertionError("c_lambda does not clear the coefficient "
                                     "of m_%r in P_%r" % (nu, lam))
            nums[nu] = BetaPoly.trusted(tuple(digits))
    jp = JackPoly(lam, n, den, nums)
    cache.put(jp)
    return jp


def _solve_at(lam, n, cache, beta0):
    """P_lam at beta0 = p/q in integral form, (M_lam/g, M/g) with M the
    int MSymPoly of the M_nu and g their gcd, signed like M_lam, or None
    when M_lam or a visited gap is 0 there: _walk from the hook product
    M_lam = q^|lam| c_lam(beta0), one (arm q + (leg + 1) p) per node.
    """
    p, q = beta0.numerator, beta0.denominator
    m_lam = prod(a * q + b * p for a, b in hook_factors(lam))
    vals = m_lam and _walk(lam, n, cache, p, q, m_lam)
    if not vals:
        return None
    g = gcd(*vals.values()) * (1 if m_lam > 0 else -1)
    # every key is lam or a row key, so none needs validating again
    return m_lam // g, MSymPoly._raw(n, {nu: m // g for nu, m in vals.items()})


def jack_at(lam, n, beta0, cache=None):
    """P_lam in n variables at a rational beta0 = p/q (a Fraction or int)
    as a SpecializedJack: jack_at_key on lam validated as a partition of at
    most n parts.  Without a cache the call makes its own."""
    return jack_at_key(as_partition(lam, n), n, beta0,
                       cache if cache is not None else JackCache())


def jack_at_key(lam, n, beta0, cache):
    """jack_at for a partition key lam of at most n parts, taken as it is
    (build_basis hands it its family's keys), solved once per cache and
    filed under (lam, n, p, q): an int pair hashes faster than a Fraction.
    Where _solve_at stops it is read off jack_symbolic(...).at(beta0),
    which raises SpecializationPole at a pole, each time.

    A lam with n nonzero parts is P_lam = e_n P_low, low = lam - (1^n).
    Where P_low is filed (before lam, in a family walked by degree) each key
    of its num goes through the list of JackCache.table(|lam|, n): mu at
    position j of table (|low|, n) becomes the key at full[j], no tuple
    built.  Otherwise P_lam = e_n^c P_base, c = lam_n, read off
    P_base = jack_at_key(lam - (c^n), ...) without the tables between: each
    key mu of its num, padded to n, becomes mu + (c^n), and so does the mu
    of a pole.  num[lam] = den is checked once per Jack, as the membership
    sweep clears lam by that entry and never ends without it."""
    p, q = beta0.numerator, beta0.denominator
    hit = cache._at.get((lam, n, p, q))
    if hit is not None:
        return hit
    if not lam or len(lam) < n:
        den, num = (_solve_at(lam, n, cache, beta0)
                    or jack_symbolic(lam, n, cache).at(beta0).cleared())
    else:
        low = cache._at.get((tuple([x - 1 for x in lam if x > 1]), n, p, q))
        if low is not None:
            d = sum(lam)
            order, _, _, full = cache.table(d, n)
            lpos = cache.table(d - n, n)[1]
            den, num = low.den, MSymPoly._raw(n, {
                order[full[lpos[mu]]]: x for mu, x in low.num.terms.items()})
        else:
            c = lam[-1]
            cs = (c,) * n

            def shifted(mu):  # mu + (c^n), mu padded to n
                return tuple(map(add, mu, cs)) + cs[len(mu):]
            try:  # lam - (c^n), its zero parts dropped
                base = jack_at_key(tuple([x - c for x in lam if x != c]),
                                   n, beta0, cache)
            except SpecializationPole as e:
                raise SpecializationPole(lam, shifted(e.mu), e.order,
                                         e.beta0) from None
            den, num = base.den, MSymPoly._raw(n, {
                shifted(mu): x for mu, x in base.num.terms.items()})
    if num.terms.get(lam) != den:
        raise AssertionError("P_%r at %s: num[lam] != den" % (lam, beta0))
    hit = SpecializedJack(lam, n, beta0, den, num)
    cache.put(hit)
    return hit


def pole_profile(lam, n, beta0, cache=None):
    """Worst pole order at beta0 over the coefficients of P_lam (0 = regular;
    nums[lam] = den keeps it at >= 0)."""
    jp = jack_symbolic(lam, n, cache)
    return max(order_and_value(p, jp.den, beta0)[0] for p in jp.nums.values())


def specialize(lam, n, k, r, cache=None):
    """P_lam at beta(k, r), as jack_at(lam, n, beta_value(k, r), cache)."""
    return jack_at(lam, n, beta_value(k, r), cache)


def principal_specialization(lam, n):
    """Closed product for P_lam(1, ..., 1): over nodes (i, j),
    ((n - i + 1) beta + j - 1), over c_lambda(lam)."""
    lam = as_partition(lam, n)
    num = prod((BetaPoly((j - 1, n - i + 1)) for i, li in enumerate(lam, 1)
                for j in range(1, li + 1)), start=BetaPoly((1,)))
    return BetaRatFunc(num, c_lambda(lam))


def evaluate_all_ones(lam, n, cache=None):
    """P_lam at the all-ones point, exactly in Q(beta), from the m-expansion."""
    jp = jack_symbolic(lam, n, cache)
    total = sum((p * orbit_size(mu, n) for mu, p in jp.nums.items()),
                BetaPoly())
    return BetaRatFunc(total, jp.den)
