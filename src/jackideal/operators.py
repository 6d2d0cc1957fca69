"""Operators that preserve symmetry, on the m-basis: the Sutherland-type
Hamiltonian, p_m, l_m and w^(t)_m.  Those that break it take an
ExpandedPoly and live in the expanded module, which this one never loads.

Every operator takes the coupling as an explicit scalar `beta`, which is a
Fraction (specialized) or a BetaPoly (symbolic), never a BetaRatFunc (a
value with no arithmetic); the arithmetic is whatever the coefficients
support.  Divisions by (x_i - x_j) are always performed exactly through
the telescoping identity, so no operator ever leaves the coefficient ring.

An operator here takes an MSymPoly (TypeError on anything else).  The
Hamiltonian acts on the m-basis in closed form, row by row
(jack.hamiltonian_row, which the Jack solve reads, so jack imports no
operator), and so do p_m and l_m (OperatorTag.apply).  w^(t)_m is
sum_j x_j^(m+t-1) K_1j nabla_1^(t-1) P (nabla_j^s P = K_1j nabla_1^s P
for symmetric P), read off dunkl_chain.

The class form t^a m_nu(x_2, ..., x_n) is positions over class_table
alone.  coincident_row states x_1 = ... = x_c = t on m_lam once, for the
chain at c = 1 and the wheel at c = k + 1.  At a rational beta = a/b
dunkl_chain runs in Z as c_s nabla_1^s P, c_s = D b^s > 0 with D the
common denominator of P: sparse (position, coefficient) lists, one
nabla_positions per entry.  Every row is built once into a memo the
caller holds and may share across calls (`rows`).
"""

from fractions import Fraction
from itertools import combinations

from .sympoly import MSymPoly, _replace_part, orbit_size
from .partitions import padded, partitions_leq
from .jack import hamiltonian_row


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


def apply_l(P, m):
    """l_m P for an MSymPoly P (m >= -1), on the m-basis."""
    return OperatorTag("l", m).apply(P, None)


def apply_p(P, m):
    """p_m P for an MSymPoly P (m >= 1), on the m-basis."""
    return OperatorTag("p", m).apply(P, None)


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
