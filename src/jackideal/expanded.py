"""Polynomials on monomials, ExpandedPoly, and the operators that break
symmetry: Dunkl, Cherednik, Sekiguchi, and the l_m and w^(t)_m of the
commutator suite, whose inputs need not be symmetric.  S_n-orbits are
built only where monomials are the output (MSymPoly.to_expanded, under
TERM_BUDGET).  No module imports this one when it loads: to_expanded,
`ideal member` on expanded input, the Sekiguchi check and `verify
commutators` import it when they run."""

import random

from .partitions import padded, partitions_leq
from .report import Report
from .sympoly import (MSymPoly, NotSymmetric, _SparsePoly, _check_budget,
                      orbit_size, power_sum)
from .operators import _check_operator


def distinct_permutations(seq):
    """All distinct permutations of a multiset, in ascending lex order
    (plain next-permutation sweep, never the n! filter)."""
    a = sorted(seq)
    n = len(a)
    if n == 0:
        yield ()
        return
    while True:
        yield tuple(a)
        j = n - 2
        while j >= 0 and a[j] >= a[j + 1]:
            j -= 1
        if j < 0:
            return
        l = n - 1
        while a[j] >= a[l]:
            l -= 1
        a[j], a[l] = a[l], a[j]
        a[j + 1:] = a[:j:-1]


def orbit_exponents(lam, n):
    """Exponent vectors of the S_n-orbit of lam padded to n slots."""
    return tuple(distinct_permutations(padded(lam, n)))


class ExpandedPoly(_SparsePoly):
    """Polynomial as a dict {exponent tuple: coefficient}.  Treat as frozen."""

    __slots__ = ()
    BASIS, KEY = "expanded", "exponents"

    @staticmethod
    def _key(e, n):
        e = tuple(e)
        if len(e) != n or not all(type(a) is int and a >= 0 for a in e):
            raise ValueError("bad exponent vector %r for n=%r" % (e, n))
        return e

    def __mul__(self, other):
        """The polynomial product, or scaling by a coefficient."""
        if type(other) is not ExpandedPoly:
            return self.scale(other)
        if self.n != other.n:
            raise ValueError("variable counts differ")
        _check_budget(len(self.terms) * len(other.terms))
        return self._collect(self.n, (
            (tuple(x + y for x, y in zip(ea, eb)), ca * cb)
            for ea, ca in self.terms.items()
            for eb, cb in other.terms.items()))

    def mul_var(self, i, power=1):
        """Multiply by x_i**power (power >= 0)."""
        if power < 0:
            raise ValueError("negative power")
        if power == 0:
            return self
        j = i - 1
        out = {e[:j] + (e[j] + power,) + e[j + 1:]: c for e, c in self.terms.items()}
        return self._raw(self.n, out)

    def partial(self, i):
        """d/dx_i."""
        j = i - 1
        out = {}
        for e, c in self.terms.items():
            a = e[j]
            if a:
                out[e[:j] + (a - 1,) + e[j + 1:]] = c * a
        return self._raw(self.n, out)

    def swap(self, i, j):
        """Exchange variables x_i and x_j."""
        if i == j:
            return self
        a, b = i - 1, j - 1
        out = {}
        for e, c in self.terms.items():
            f = list(e)
            f[a], f[b] = f[b], f[a]
            out[tuple(f)] = c
        return self._raw(self.n, out)

    def divided_difference(self, i, j):
        """(P - K_ij P)/(x_i - x_j), exact by the telescoping identity
        (x^a y^b - x^b y^a)/(x - y) = x^b y^b sum_t x^t y^(a-b-1-t)."""
        if i == j:
            raise ValueError("need distinct variables")
        a_i, a_j = i - 1, j - 1

        def moves():
            for e, c in self.terms.items():
                a, b = e[a_i], e[a_j]
                if a < b:
                    a, b, c = b, a, -c
                base = list(e)
                for t in range(a - b):
                    base[a_i], base[a_j] = b + t, a - 1 - t
                    yield tuple(base), c
        return self._collect(self.n, moves())

    def evaluate(self, point):
        if len(point) != self.n:
            raise ValueError("point has %d coordinates, need %d" % (len(point), self.n))
        total = 0
        for e, c in self.terms.items():
            v = c
            for x, a in zip(point, e):
                if a:
                    v = v * x ** a
            total = total + v
        return total

    def _orbit_coeffs(self):
        """{lam: c} if every S_n-orbit is whole with one coefficient c, else
        None.  The terms sorting to lam are distinct permutations of it, at
        most orbit_size(lam, n) of them, so the orbits are whole exactly
        when the term count is the sum of their sizes."""
        coeffs = {}
        for e, c in self.terms.items():
            lam = tuple(sorted(e, reverse=True))
            if coeffs.setdefault(lam[:len(lam) - lam.count(0)], c) != c:
                return None
        if len(self.terms) == sum(orbit_size(lam, self.n) for lam in coeffs):
            return coeffs
        return None

    def is_symmetric(self):
        """Invariant under every exchange of variables, decided in time
        linear in the number of terms (see _orbit_coeffs)."""
        return self._orbit_coeffs() is not None

    def to_msym(self):
        """Collect into the m-basis; NotSymmetric unless is_symmetric()."""
        coeffs = self._orbit_coeffs()
        if coeffs is None:
            raise NotSymmetric("polynomial is not symmetric")
        return MSymPoly._raw(self.n, coeffs)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: t[0], reverse=True)


def apply_dunkl(P, i, beta):
    """nabla_i = d/dx_i + beta * sum_{j != i} (1 - K_ij)/(x_i - x_j)."""
    out = P.partial(i)
    acc = None
    for j in range(1, P.n + 1):
        if j != i:
            d = P.divided_difference(i, j)
            acc = d if acc is None else acc + d
    if acc is not None:
        out = out + acc * beta
    return out


def apply_dunkl_power(P, i, t, beta):
    for _ in range(t):
        P = apply_dunkl(P, i, beta)
    return P


def apply_cherednik(P, i, beta):
    """dhat_i = x_i nabla_i + beta * sum_{j > i} K_ij."""
    out = apply_dunkl(P, i, beta).mul_var(i)
    acc = None
    for j in range(i + 1, P.n + 1):
        s = P.swap(i, j)
        acc = s if acc is None else acc + s
    if acc is not None:
        out = out + acc * beta
    return out


def apply_sekiguchi(P, beta):
    """prod_i (u + dhat_i) applied to P; returns coefficients of powers of u,
    low degree first (a list of n+1 expanded polynomials)."""
    coeffs = [P]
    for i in range(1, P.n + 1):
        nxt = [apply_cherednik(c, i, beta) for c in coeffs]
        nxt.append(ExpandedPoly.zero(P.n))
        for m in range(len(coeffs)):
            nxt[m + 1] = nxt[m + 1] + coeffs[m]
        coeffs = nxt
    return coeffs


def _l_expanded(P, m):
    """l_m = sum_j x_j^(m+1) d/dx_j (m >= -1); beta-free."""
    _check_operator("l", m)
    out = ExpandedPoly.zero(P.n)
    for j in range(1, P.n + 1):
        out = out + P.partial(j).mul_var(j, m + 1)
    return out


def _w_expanded(P, t, m, beta):
    """w^(t)_m = sum_j x_j^(m+t-1) nabla_j^(t-1) (t >= 2, m >= -t+1)."""
    _check_operator("w", m, t)
    out = ExpandedPoly.zero(P.n)
    for j in range(1, P.n + 1):
        out = out + apply_dunkl_power(P, j, t - 1, beta).mul_var(j, m + t - 1)
    return out


def expanded_power_sum(n, m):
    if m < 0:
        raise ValueError("need m >= 0")
    if m == 0:
        return ExpandedPoly(n, {(0,) * n: n})
    return power_sum(m, n).to_expanded()


def _w_general(P, t, m, beta):
    """w with the t = 1 convention w^(1)_m = p_m (and p_0 = n)."""
    if t == 1:
        return P * expanded_power_sum(P.n, m)
    return _w_expanded(P, t, m, beta)


def _random_expanded(rng, n, degree, nterms=4):
    terms = {}
    for _ in range(nterms):
        d = rng.randint(0, degree)
        e = [0] * n
        for _ in range(d):
            e[rng.randrange(n)] += 1
        c = rng.choice([x for x in range(-5, 6) if x])
        key = tuple(e)
        terms[key] = terms.get(key, 0) + c
    return ExpandedPoly(n, terms)


def _random_symmetric(rng, n, degree, nterms=3):
    terms = {}
    for _ in range(nterms):
        d = rng.randint(0, degree)
        parts = partitions_leq(d, n)
        lam = parts[rng.randrange(len(parts))]
        c = rng.choice([x for x in range(-5, 6) if x])
        terms[lam] = terms.get(lam, 0) + c
    return MSymPoly(n, terms).to_expanded()


def verify_commutators(n, degree, trials, seed, tmax=3):
    """Randomized exact check of the operator algebra:

    (a) Dunkl family: [nabla_i, nabla_j] = 0,
        [nabla_i, x_j] = delta_ij (1 + beta sum_{t != i} K_it) - beta K_ij
        (i != j), and K_ij nabla_m = nabla_(ij)(m) K_ij;
    (b) [l_a, l_b] = (b - a) l_(a+b);
    (c) [l_-1, w^(3)_0] = 2 w^(3)_-1,
        [w^(t)_(-t+1), w^(3)_-1] = (t-1) w^(t+1)_(-t),
        and, on symmetric inputs only,
        [w^(t+1)_m, p_2] ~ 2t w^(t)_(m+2) + t(t-1)(1-beta) w^(t-1)_(m+2)
            + 2 beta sum_i (t-1-i) w^(i+1)_(m+t-i) w^(t-1-i)_(-t+2+i);
    (d) [l_1, p_m] = m p_(m+1).

    All checks are identical in beta: inputs have integer coefficients and
    beta is the symbolic generator, so a pass is a polynomial identity.
    """
    if trials < 1 or tmax < 2:
        raise ValueError("commutators need trials >= 1 and tmax >= 2")
    from .ratfunc import BETA as beta
    rng = random.Random(seed)
    rep = Report("commutators", {"n": n, "degree": degree,
                                 "trials": trials, "seed": seed})
    gen = [(_random_expanded(rng, n, degree), _random_symmetric(rng, n, degree))
           for _ in range(trials)]

    def run(case_id, check, symmetric=False):
        for idx, (pg, ps) in enumerate(gen):
            P = ps if symmetric else pg
            if not check(P):
                rep.add(case_id, False, trials=trials, seed=seed,
                        counterexample={"trial": idx, "input": P.to_obj()})
                return
        rep.add(case_id, True, trials=trials, seed=seed)

    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            run("nabla-commute[%d,%d]" % (i, j), lambda P, i=i, j=j:
                apply_dunkl(apply_dunkl(P, j, beta), i, beta)
                == apply_dunkl(apply_dunkl(P, i, beta), j, beta))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            def check(P, i=i, j=j):
                lhs = apply_dunkl(P.mul_var(j), i, beta) \
                    - apply_dunkl(P, i, beta).mul_var(j)
                if i == j:
                    rhs = P
                    for t in range(1, n + 1):
                        if t != i:
                            rhs = rhs + P.swap(i, t) * beta
                else:
                    rhs = P.swap(i, j) * (-beta)
                return lhs == rhs
            run("nabla-x[%d,%d]" % (i, j), check)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for m in range(1, n + 1):
                sm = j if m == i else (i if m == j else m)
                run("exchange-nabla[%d,%d;%d]" % (i, j, m), lambda P, i=i, j=j,
                    m=m, sm=sm: apply_dunkl(P, m, beta).swap(i, j)
                    == apply_dunkl(P.swap(i, j), sm, beta))

    for a in range(-1, 3):
        for b in range(a, 3):
            if a + b < -1 and b != a:
                continue

            def check(P, a=a, b=b):
                lhs = _l_expanded(_l_expanded(P, b), a) \
                    - _l_expanded(_l_expanded(P, a), b)
                if b == a:
                    return lhs.is_zero()
                return lhs == _l_expanded(P, a + b) * (b - a)
            run("l-bracket[%d,%d]" % (a, b), check)

    run("l-1-w30", lambda P:
        _l_expanded(_w_expanded(P, 3, 0, beta), -1)
        - _w_expanded(_l_expanded(P, -1), 3, 0, beta)
        == _w_expanded(P, 3, -1, beta) * 2)
    for t in range(2, tmax + 1):
        run("w%d-w3-ladder" % t, lambda P, t=t:
            _w_expanded(_w_expanded(P, 3, -1, beta), t, -t + 1, beta)
            - _w_expanded(_w_expanded(P, t, -t + 1, beta), 3, -1, beta)
            == _w_expanded(P, t + 1, -t, beta) * (t - 1))

    for t in range(2, tmax + 1):
        for m in range(-t, 3):
            def check(P, t=t, m=m):
                p2 = expanded_power_sum(P.n, 2)
                lhs = _w_expanded(P * p2, t + 1, m, beta) \
                    - _w_expanded(P, t + 1, m, beta) * p2
                rhs = _w_general(P, t, m + 2, beta) * (2 * t)
                rhs = rhs + _w_general(P, t - 1, m + 2, beta) \
                    * (t * (t - 1) * (1 - beta))
                for i in range(t - 1):
                    inner = _w_general(P, t - 1 - i, -t + 2 + i, beta)
                    outer = _w_general(inner, i + 1, m + t - i, beta)
                    rhs = rhs + outer * (2 * beta * (t - 1 - i))
                return lhs == rhs
            run("w%d-p2[m=%d]" % (t + 1, m), check, symmetric=True)

    for m in range(1, 5):
        run("l1-p[%d]" % m, lambda P, m=m:
            _l_expanded(P * expanded_power_sum(P.n, m), 1)
            - _l_expanded(P, 1) * expanded_power_sum(P.n, m)
            == P * expanded_power_sum(P.n, m + 1) * m)

    return rep
