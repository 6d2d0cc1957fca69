"""Operators on polynomials: Dunkl, Cherednik, Sekiguchi, the
Sutherland-type Hamiltonian and the degree-shift families l_m, w^(t)_m.
The exchange K_ij is ExpandedPoly.swap.

Every operator takes the coupling as an explicit scalar `beta`, which is a
Fraction (specialized) or a BetaPoly (symbolic), never a BetaRatFunc (a
value with no arithmetic); the arithmetic is whatever the coefficients
support.  Divisions by (x_i - x_j) are always performed exactly through
the telescoping identity, so no operator ever leaves the coefficient ring.

An operator that preserves symmetry takes an MSymPoly (TypeError on anything
else), and Dunkl, Cherednik and the Sekiguchi product built from them take
an ExpandedPoly.  The Hamiltonian acts on the m-basis in closed form, row
by row (jack.hamiltonian_row, which the Jack solve reads, so jack imports
no operator), and so do p_m and l_m (OperatorTag.apply).  w^(t)_m is
sum_j x_j^(m+t-1) K_1j nabla_1^(t-1) P (nabla_j^s P = K_1j nabla_1^s P
for symmetric P), read off dunkl_chain.

The class form t^a m_nu(x_2, ..., x_n) is positions over class_table
alone.  coincident_row states x_1 = ... = x_c = t on m_lam once, for the
chain at c = 1 and the wheel at c = k + 1.  At a rational beta = a/b
dunkl_chain runs in Z as c_s nabla_1^s P, c_s = D b^s > 0 with D the
common denominator of P: sparse (position, coefficient) lists, one
nabla_positions per entry.  Every row is built once into a memo the
caller holds and may share across calls (`rows`).  On monomials, l_m and
w are _l_expanded and _w_expanded: the operators of the commutator suite,
whose inputs need not be symmetric.  That suite alone runs over Q(beta),
and imports the generator BETA when it runs, so loading this module loads
no Q(beta) code.
"""

import random
from fractions import Fraction
from itertools import combinations

from .report import Report
from .sympoly import (ExpandedPoly, MSymPoly, _replace_part, orbit_size,
                      power_sum)
from .partitions import padded, partitions_leq
from .jack import hamiltonian_row


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


def _check_msym(P):
    if not isinstance(P, MSymPoly):
        raise TypeError("operators that preserve symmetry take an MSymPoly, "
                        "not %s" % type(P).__name__)


def apply_hamiltonian(P, beta):
    """Hamiltonian on an MSymPoly, row by row in the m-basis."""
    _check_msym(P)
    euler, cross = {}, {}
    for mu, c in P.terms.items():
        e, row = hamiltonian_row(mu, P.n)
        euler[mu] = c * e
        for nu, h in row.items():
            acc = cross.get(nu)
            cross[nu] = c * h if acc is None else acc + c * h
    return MSymPoly(P.n, euler) + MSymPoly(P.n, cross).scale(beta)


def _check_operator(kind, m, t=None):
    """Raise ValueError unless p_m (m >= 1), l_m (m >= -1) or w^(t)_m
    (t >= 2, m >= -t+1) is defined."""
    if kind == "p":
        if m < 1:
            raise ValueError("p_m needs m >= 1")
    elif kind == "l":
        if m < -1:
            raise ValueError("l_m needs m >= -1")
    elif kind == "w":
        if t is None or t < 2:
            raise ValueError("w operators need t >= 2")
        if m < -t + 1:
            raise ValueError("w^(%d)_m needs m >= %d" % (t, -t + 1))
    else:
        raise ValueError("unknown operator kind %r" % (kind,))


def _l_expanded(P, m):
    """l_m = sum_j x_j^(m+1) d/dx_j (m >= -1); beta-free."""
    _check_operator("l", m)
    out = ExpandedPoly.zero(P.n)
    for j in range(1, P.n + 1):
        out = out + P.partial(j).mul_var(j, m + 1)
    return out


def apply_l(P, m):
    """l_m P for an MSymPoly P (m >= -1), on the m-basis."""
    return OperatorTag("l", m).apply(P, None)


def apply_p(P, m):
    """p_m P for an MSymPoly P (m >= 1), on the m-basis."""
    return OperatorTag("p", m).apply(P, None)


def _w_expanded(P, t, m, beta):
    """w^(t)_m = sum_j x_j^(m+t-1) nabla_j^(t-1) (t >= 2, m >= -t+1)."""
    _check_operator("w", m, t)
    out = ExpandedPoly.zero(P.n)
    for j in range(1, P.n + 1):
        out = out + apply_dunkl_power(P, j, t - 1, beta).mul_var(j, m + t - 1)
    return out


def class_table(n, e, rows):
    """(order, pos) for class degree e in n variables: order the keys
    (a,) + nu, a + |nu| = e and nu with at most n - 1 parts, in decreasing
    lex order, pos[key] its position; built once into `rows`: the keys of
    degree e - 1 with a raised by one, then the a = 0 keys (none if e < 0)."""
    name = ("classes", n, e)
    if name not in rows:
        order = [] if e < 0 else [
            (key[0] + 1,) + key[1:] for key in class_table(n, e - 1, rows)[0]
        ] + [(0,) + nu for nu in partitions_leq(e, n - 1)]
        rows[name] = order, {key: i for i, key in enumerate(order)}
    return rows[name]


def nabla_positions(Q, n, e, a, b, rows):
    """b d_t + a sum_{j > 1} (1 - K_1j)/(t - x_j) on Q, a sparse list of
    (position, coefficient) over class_table(n, e), as one over
    class_table(n, e - 1): b nabla_1 at beta = a/b, b d_t (position kept)
    at a = 0, the bare Dunkl sum at (1, 0).  Each row goes into `rows` by
    position on first use, each target once.  The sum is telescoped: on
    t^f m_nu each distinct part v != f of nu padded to n - 1 slots gives
    t^i and a part f+v-1-i, v <= i < f (negated when f < v), per slot."""
    order = class_table(n, e, rows)[0]
    below = class_table(n, e - 1, rows)[1]
    memo = rows.get(("nabla", n, a, b, e)) or rows.setdefault(
        ("nabla", n, a, b, e), [None] * len(order))

    def row_of(p, key):
        f, nu, slots = key[0], key[1:], n - 1
        row = {p: b * f} if b and f else {}
        for v in (set(padded(nu, slots)) - {f}) if a else ():
            lo, hi, s = (v, f, a) if f > v else (f, v, -a)
            for i in range(lo, hi):
                q, mult = _replace_part(nu, slots, v, lo + hi - 1 - i)
                j = below[(i,) + q]
                row[j] = row.get(j, 0) + s * mult
        return tuple((j, x) for j, x in row.items() if x)
    acc = [0] * len(below)
    for p, c in Q:
        row = memo[p]
        if row is None:
            row = memo[p] = row_of(p, order[p])
        for q, x in row:
            acc[q] += c * x
    return [(q, x) for q, x in enumerate(acc) if x]


def coincident_row(lam, n, c, rows):
    """m_lam at x_1 = ... = x_c = t, 1 <= c <= n, as ((position,
    multiplicity), ...) over class_table(n - c + 1, |lam|): each multiset S
    of c entries of lam padded to n sends m_lam to t^|S| m_(lam minus S),
    once per arrangement of S in the c slots, orbit_size(S, c) times.
    Each lam's row and each orbit size per (S, c) is built once into `rows`."""
    memo = rows.setdefault(("coincident", n, c), {})
    row = memo.get(lam)
    if row is None:
        if not 1 <= c <= n:
            raise ValueError("need 1 <= c <= n")
        pos = class_table(n - c + 1, sum(lam), rows)[1]
        orbits = rows.setdefault(("orbits", c), {})
        row = []
        for S in set(combinations(padded(lam, n), c)):
            nu = list(lam)
            for v in S:
                if v:
                    nu.remove(v)
            size = orbits.get(S) or orbits.setdefault(S, orbit_size(S, c))
            row.append((pos[(sum(S),) + tuple(nu)], size))
        row = memo[lam] = tuple(row)
    return row


def dunkl_chain(P, smax, beta, rows=None):
    """[(c_s, Q_s) for s = 0..smax], P a homogeneous MSymPoly of degree e:
    Q_s = c_s nabla_1^s P on classes, a sparse list of (position, nonzero
    coefficient) over class_table(n, e - s).  In Z at a rational beta = a/b
    (Q_0 = D P = P.cleared() at x_1 = t, Q_(s+1) = b nabla_1 Q_s, c_s =
    D b^s, and Q_1 = b d_t Q_0 at (0, b): (1 - K_1j) P = 0); a symbolic
    beta at (a, b, D) = (beta, 1, 1).  `rows` is the caller's memo (made
    here when none is given) of class tables, step and coincident rows."""
    rational = isinstance(beta, (int, Fraction))
    a, b = (beta.numerator, beta.denominator) if rational else (beta, 1)
    D, P = P.cleared() if rational else (1, P)
    rows = {} if rows is None else rows
    n, e = P.n, sum(next(iter(P.terms), ()))
    if any(sum(lam) != e for lam in P.terms):
        raise ValueError("dunkl_chain needs a homogeneous polynomial")
    Q = [(p, c * x) for lam, c in (P.terms.items() if n else ())
         for p, x in coincident_row(lam, n, 1, rows)]
    chain = [(D, Q)]
    for s in range(smax):
        Q = nabla_positions(Q, n, e - s, a if s else 0, b, rows)
        chain.append((chain[-1][0] * b, Q))
    return chain


def apply_w(P, t, m, beta):
    """w^(t)_m P for an MSymPoly P, through one Dunkl chain."""
    return OperatorTag("w", m, t).apply(P, beta)


def expanded_power_sum(n, m):
    if m < 0:
        raise ValueError("need m >= 0")
    if m == 0:
        return ExpandedPoly(n, {(0,) * n: n})
    return power_sum(m, n).to_expanded()


class OperatorTag:
    """A validated name for one operator instance: p_m, l_m or w^(t)_m."""

    __slots__ = ("kind", "m", "t")

    def __init__(self, kind, m, t=None):
        _check_operator(kind, m, t)
        if kind != "w" and t is not None:
            raise ValueError("%s_m takes no t" % kind)
        self.kind, self.m, self.t = kind, m, t

    def chain_step(self):
        """(s, shift): entry s of dunkl_chain(P), symmetrized with shift, is
        c_s times the image of a symmetric P (nabla_1 P = d_1 P for l)."""
        if self.kind == "p":
            return 0, self.m
        if self.kind == "l":
            return 1, self.m + 1
        return self.t - 1, self.m + self.t - 1

    def apply(self, P, beta):
        """Apply to an MSymPoly; p and l need no beta.  On m_lam, p_m and
        l_m move one distinct part v of lam padded to n to v + m, weighted
        1 and v; w reads dunkl_chain at chain_step()."""
        _check_msym(P)
        n, out = P.n, {}
        if self.kind != "w":
            for lam, c in P.terms.items():
                for v in set(padded(lam, n)):
                    x = 1 if self.kind == "p" else v
                    if x:
                        mu, mult = _replace_part(lam, n, v, v + self.m)
                        out[mu] = out.get(mu, 0) + c * (x * mult)
            return MSymPoly._raw(n, {mu: c for mu, c in out.items() if c})
        s, shift = self.chain_step()
        rows = {}
        for e, comp in P.homogeneous_components().items():
            c, entry = dunkl_chain(comp, s, beta, rows)[s]
            order = class_table(n, e - s, rows)[0]
            acc = {}
            for p, x in entry:
                key = order[p]
                mu, mult = _replace_part(key[1:], n, 0, key[0] + shift)
                acc[mu] = acc.get(mu, 0) + x * mult
            out.update((mu, y * Fraction(1, c)) for mu, y in acc.items() if y)
        return MSymPoly._raw(n, out)

    def __str__(self):
        if self.kind == "w":
            return "w%d(%d)" % (self.t, self.m)
        return "%s(%d)" % (self.kind, self.m)

    __repr__ = __str__


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
