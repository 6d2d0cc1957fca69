"""Jack polynomials at a rational point, in Z, by the triangular
Hamiltonian recursion (over Q(beta) they are in the symbolic module).

P_lam is the unique eigenfunction of the Sutherland-type Hamiltonian that
is unitriangular on monomial symmetric functions: P_lam = m_lam + lower
terms in dominance order.  The solver is one walk in Z on int Hamiltonian
rows at a rational point, _walk, over the positions of a per-degree
JackCache.table in decreasing lex order, which extends dominance; rows and
pending sums are keyed by position, and each division is exact or raises.
jack_at runs it (_solve_at) on one integer per coefficient, and only where
c_lambda or a visited gap vanishes there does it import symbolic, for
jack_symbolic(...).at().  The result stays integral (SpecializedJack: den
and an int num): the walk and the shift build no Fraction.  jack_at
validates lam and hands it to jack_at_key, which takes partition keys as
they are and is the one memo of Jacks at a point.  A lam with n nonzero
parts is not walked: with e_n = x_1...x_n and E the Euler operator,
H(e_n f) = e_n (H + 2E + n) f, so P_lam = e_n P_(lam - (1^n)) identically
in beta, and adding 1 to each of n parts keeps decreasing lex order.  So
_row reads the row of such a key off the table n degrees down, by the
positions JackCache.table lists in full, and jack_at_key a Jack off a
filed P_(lam - (1^n)) the same way, or else off its base lam - (lam_n^n).
Every row goes through _checked_row, the one check of the diagonal
(partitions.eigenvalue_pair), of each entry's place in the table and of
mu's partial sums.
"""

import json
import os
import threading
from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate
from math import gcd, prod
from operator import add, le, mul

from .partitions import (as_partition, beta_value, eigenvalue_pair,
                         hook_factors, partitions_leq)
from .sympoly import MSymPoly


class SpecializationPole(ArithmeticError):
    """A Jack coefficient has a pole at the requested beta0."""

    def __init__(self, lam, mu, order, beta0):
        self.lam, self.mu, self.order, self.beta0 = lam, mu, order, beta0
        super().__init__("coefficient of m_%r in P_%r has a pole of order %d "
                         "at beta=%s" % (mu, lam, order, beta0))


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

    def to_json(self, keys):
        """The JSON text of .poly with k, r and beta0, as json.dumps prints
        it, written from (den, num): each x/den reduced by one gcd, terms
        in sorted_terms order.  keys is the caller's memo for one output,
        mu -> the term's text up to its numerator, filled on first use."""
        D, terms = self.den, self.num.sorted_terms()
        keys.update((mu, '{"%s": [%s], "coeff": {"num": "' % (
            MSymPoly.KEY, ", ".join(map(str, mu))))
            for mu, _ in terms if mu not in keys)
        return ('{"n": %d, "basis": "%s", "terms": [%s], "k": %d, "r": %d, '
                '"beta": {"num": %d, "den": %d}}' % (
                    self.n, MSymPoly.BASIS, ", ".join([
                        '%s%d", "den": "%d"}}' % (keys[mu], x // g, D // g)
                        for mu, x in terms for g in (gcd(x, D),)]),
                    self.k, self.r, self.beta0.numerator,
                    self.beta0.denominator))

    def to_text(self, names):
        """str(self.poly), written from (den, num) with one gcd per term.
        names is the caller's memo for one output, mu -> "*m[..]"."""
        D, terms = self.den, self.num.sorted_terms()
        names.update((mu, "*m[%s]" % ",".join(map(str, mu)))
                     for mu, _ in terms if mu not in names)
        return " + ".join([
            "(%d)%s" % (x // g, names[mu]) if g == D else
            "(%d/%d)%s" % (x // g, D // g, names[mu])
            for mu, x in terms for g in (gcd(x, D),)]) or "0"

    def __repr__(self):
        return "SpecializedJack(lam=%r, n=%d, beta0=%s)" % (self.lam, self.n,
                                                            self.beta0)


class JackCache:
    """Memo state shared by the calls it is passed to, safe for concurrent
    readers: symbolic Jacks (lam, n) -> JackPoly, optionally backed by a
    directory of JSON files read through symbolic, and, in memory only:
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
        from .symbolic import JackPoly
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
    eigenvalue (partitions.eigenvalue_pair), and each entry, in the loop that places it, to be in the
    table (pos has nu: mu's weight, at most n parts) and
    dominated by mu: no partial sum of nu exceeds mu's, taken once per row
    (past mu's length none can, as the weights agree).  Both routes of
    _row fill rows through this check.
    """
    if (euler, diag) != eigenvalue_pair(mu, n):
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
        solved = _solve_at(lam, n, cache, beta0)
        if solved is None:
            from .symbolic import jack_symbolic
            solved = jack_symbolic(lam, n, cache).at(beta0).cleared()
        den, num = solved
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


def specialize(lam, n, k, r, cache=None):
    """P_lam at beta(k, r), as jack_at(lam, n, beta_value(k, r), cache)."""
    return jack_at(lam, n, beta_value(k, r), cache)
