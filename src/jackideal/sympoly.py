"""Sparse polynomials in n variables: expanded monomial form and the
monomial-symmetric basis.

ExpandedPoly maps exponent tuples to coefficients; MSymPoly maps partitions
to coefficients (the m-basis).  The class form t^a m_nu(x_2, ..., x_n) of a
coincidence x_1 = ... = x_c = t or a Dunkl chain entry lives as positions
in the operators module (class_table), not here.  Both share one
sparse-term core (_SparsePoly): equality, sums, negation, scaling,
grading, repr and the JSON form.  Only ExpandedPoly multiplies polynomials:
MSymPoly is scaled by coefficients alone, since the operators that
preserve symmetry act on the m-basis directly (operators module), and
MSymPoly * MSymPoly raises TypeError.  Coefficients may live in Q
(int/Fraction) or Q[beta] (BetaPoly); all operations here are
coefficient-ring agnostic and never divide by coefficients.  Jacks reach
this module in integral form: symbolic ones as integer BetaPoly numerators
over a shared denominator (JackPoly.cleared()), specialized ones as an int
MSymPoly over one int den (SpecializedJack.num), in Q only as its .poly.
Q(beta) coefficients (BetaRatFunc, from JackPoly.msym() at the API boundary)
support equality, JSON and printing only: they have no arithmetic.

Keys are validated at the boundary only.  The public constructor and
from_obj check every key (an exponent vector must be n non-negative
integers; a partition is normalized by as_partition and has at most n
parts), reject a key repeated once normalized and drop zero coefficients
(_checked).  They serve outside input and results whose keys may be
unnormalized or whose terms may cancel.  Results whose keys come from an
existing polynomial and whose coefficients cannot be zero (the coefficient
rings have no zero divisors) are built unchecked by _raw, or by _collect
where terms may cancel: negation, nonzero scaling, sums and products after
pruning, homogeneous components, restrict_last, to_expanded, to_msym, the
m-basis images of p_m, l_m and w^(t)_m (OperatorTag.apply) and the Dunkl
building blocks (partial, mul_var, swap, divided_difference).  Symmetry is
decided from orbit sizes in one pass over the terms (is_symmetric,
to_msym); S_n-orbits are built only where monomials are the output
(MSymPoly.to_expanded, under TERM_BUDGET).
"""

from fractions import Fraction
from math import factorial, lcm

from .partitions import as_partition, padded

# refuse expansions beyond this many terms; mutate at runtime to tune
TERM_BUDGET = 10_000_000


class NotSymmetric(ValueError):
    """Expanded polynomial is not invariant under variable exchange."""


class TermBudgetExceeded(RuntimeError):
    """An operation would produce more terms than TERM_BUDGET allows."""


def rat_to_obj(q):
    """Serialize an exact rational as decimal strings."""
    q = Fraction(q)
    return {"num": str(q.numerator), "den": str(q.denominator)}


def rat_from_obj(obj):
    return Fraction(int(obj["num"]), int(obj["den"]))


def coeff_to_obj(c):
    """Serialize a coefficient from Q, or via ratfunc from Q[beta], Q(beta)."""
    if isinstance(c, (int, Fraction)):
        return rat_to_obj(c)
    from .ratfunc import BetaPoly, BetaRatFunc
    if isinstance(c, BetaPoly):
        return BetaRatFunc(c).to_obj()
    if isinstance(c, BetaRatFunc):
        return c.to_obj()
    raise TypeError("cannot serialize coefficient %r" % (type(c).__name__,))


def coeff_from_obj(obj):
    """Read a coefficient; shape distinguishes Q from Q(beta)."""
    if isinstance(obj["num"], str):
        return rat_from_obj(obj)
    from .ratfunc import ONE, BetaRatFunc
    f = BetaRatFunc.from_obj(obj)
    if f.den == ONE and f.num.degree <= 0:
        return f.num(0) if f.num.coeffs else Fraction(0)
    return f


def _check_budget(count):
    if count > TERM_BUDGET:
        raise TermBudgetExceeded(
            "operation needs %d terms, budget is %d" % (count, TERM_BUDGET))


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


def orbit_size(lam, n):
    counts = {}
    for p in padded(lam, n):
        counts[p] = counts.get(p, 0) + 1
    size = factorial(n)
    for c in counts.values():
        size //= factorial(c)
    return size


def _replace_part(nu, slots, old, new):
    """nu padded with zeros to `slots` parts, with one part old replaced by
    new: (the resulting partition, how many of its padded slots hold new)."""
    q = list(nu)
    if old:
        q.remove(old)
    if not new:
        return tuple(q), slots - len(q)
    q.append(new)
    q.sort(reverse=True)
    return tuple(q), q.count(new)


class _SparsePoly:
    """A dict {key: nonzero coefficient} in n variables.  Subclasses set
    BASIS and KEY (the JSON names), _key (validate one key) and
    sorted_terms.  Treat as frozen."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = self._checked(n, terms.items()) if terms else {}

    @classmethod
    def _checked(cls, n, pairs):
        """{key: c} from (key, c) pairs, each key validated by _key: a key
        repeated once normalized raises ValueError, zero coefficients drop."""
        out = {}
        for key, c in pairs:
            key = cls._key(key, n)
            if key in out:
                raise ValueError("repeated %s %r" % (cls.KEY, list(key)))
            out[key] = c
        return {k: c for k, c in out.items() if c}

    @classmethod
    def _raw(cls, n, terms):
        """Unchecked constructor: every key valid for n, no zero coefficient."""
        p = cls.__new__(cls)
        p.n, p.terms = n, terms
        return p

    @classmethod
    def _collect(cls, n, pairs):
        """Sum (key, coefficient) pairs with valid keys; zero sums drop."""
        out = {}
        for key, c in pairs:
            acc = out.get(key)
            out[key] = c if acc is None else acc + c
        return cls._raw(n, {k: c for k, c in out.items() if c})

    @classmethod
    def zero(cls, n):
        return cls._raw(n, {})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __neg__(self):
        return self._raw(self.n, {k: -c for k, c in self.terms.items()})

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("variable counts differ: %d vs %d" % (self.n, other.n))
        out = dict(self.terms)
        for k, c in other.terms.items():
            acc = out.get(k)
            acc = c if acc is None else acc + c
            if acc:
                out[k] = acc
            elif k in out:
                del out[k]
        return self._raw(self.n, out)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if isinstance(c, _SparsePoly):
            raise TypeError("a polynomial is not a scalar")
        if not c:
            return self.zero(self.n)
        return self._raw(self.n, {k: v * c for k, v in self.terms.items()})

    __mul__ = __rmul__ = scale

    def cleared(self):
        """(D, D * self) for rational coefficients, D > 0 their least common
        denominator, so D * self has int coefficients."""
        D = lcm(*(c.denominator for c in self.terms.values()))
        return D, self._raw(self.n, {k: c.numerator * (D // c.denominator)
                                     for k, c in self.terms.items()})

    def homogeneous_components(self):
        comps = {}
        for k, c in self.terms.items():
            comps.setdefault(sum(k), {})[k] = c
        return {d: self._raw(self.n, t) for d, t in sorted(comps.items())}

    def __repr__(self):
        return "%s(n=%d, %d terms)" % (type(self).__name__, self.n,
                                       len(self.terms))

    def to_obj(self):
        return {"n": self.n, "basis": self.BASIS,
                "terms": [{self.KEY: list(k), "coeff": coeff_to_obj(c)}
                          for k, c in self.sorted_terms()]}

    @classmethod
    def from_obj(cls, obj):
        if obj.get("basis") != cls.BASIS:
            raise ValueError("not an %s-basis polynomial" % cls.BASIS)
        n = obj["n"]
        if type(n) is not int or n < 0:
            raise ValueError("bad variable count n=%r" % (n,))
        return cls._raw(n, cls._checked(n, (
            (t[cls.KEY], coeff_from_obj(t["coeff"])) for t in obj["terms"])))


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


class MSymPoly(_SparsePoly):
    """Symmetric polynomial as a dict {partition: coefficient} in the
    monomial-symmetric basis m_lambda.  Treat as frozen."""

    __slots__ = ()
    BASIS, KEY = "msym", "partition"

    _key = staticmethod(as_partition)

    def to_expanded(self):
        _check_budget(sum(orbit_size(lam, self.n) for lam in self.terms))
        out = {}
        for lam, c in self.terms.items():
            for e in orbit_exponents(lam, self.n):
                out[e] = c
        return ExpandedPoly._raw(self.n, out)

    def restrict_last(self, j=0):
        """(d/dx_n)^j, then x_n = 0, in n - 1 variables: j! times the
        coefficient of x_n^j.  Each mu padded to n with a part j loses one
        such part; the rest of m_mu dies."""
        if self.n < 1:
            raise ValueError("no variable to restrict")
        if j < 0:
            raise ValueError("restriction needs j >= 0")
        f = factorial(j)
        out = {}
        for mu, c in self.terms.items():
            if j in mu:
                i = mu.index(j)
                out[mu[:i] + mu[i + 1:]] = c * f
            elif not j and len(mu) < self.n:
                out[mu] = c
        return self._raw(self.n - 1, out)

    def sorted_terms(self):
        return sorted(self.terms.items(),
                      key=lambda t: (sum(t[0]), t[0]), reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for lam, c in self.sorted_terms():
            name = "m[%s]" % ",".join(str(p) for p in lam)
            bits.append("(%s)*%s" % (c, name))
        return " + ".join(bits)


def power_sum(m, n):
    """p_m = sum_j x_j^m as an MSymPoly (m >= 1)."""
    if m < 1:
        raise ValueError("power sums need m >= 1")
    if n == 0:
        return MSymPoly(0)
    return MSymPoly(n, {(m,): 1})
