"""Sparse polynomials in n variables: expanded monomial form and the
monomial-symmetric basis.

ExpandedPoly maps exponent tuples to coefficients; MSymPoly maps partitions
to coefficients (the m-basis).  Coefficients may live in Q (int/Fraction),
Q[beta] (BetaPoly) or Q(beta) (BetaRatFunc); all operations here are
coefficient-ring agnostic and never divide by coefficients.  Symbolic Jack
polynomials reach this module as integer BetaPoly numerators over a shared
denominator (JackPoly.cleared()) or, at the API boundary, as BetaRatFunc
coefficients (JackPoly.msym()); specialized ones have coefficients in Q.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .partitions import as_partition, padded

# refuse expansions beyond this many terms; mutate at runtime to tune
TERM_BUDGET = 10_000_000


class NotSymmetric(ValueError):
    """Expanded polynomial is not invariant under variable exchange."""


class TermBudgetExceeded(RuntimeError):
    """An operation would produce more terms than TERM_BUDGET allows."""


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


@lru_cache(maxsize=None)
def orbit_exponents(lam, n):
    """Exponent vectors of the S_n-orbit of lam padded to n slots."""
    return tuple(distinct_permutations(padded(lam, n)))


@lru_cache(maxsize=None)
def orbit_size(lam, n):
    counts = {}
    for p in padded(lam, n):
        counts[p] = counts.get(p, 0) + 1
    size = factorial(n)
    for c in counts.values():
        size //= factorial(c)
    return size


class ExpandedPoly:
    """Polynomial as a dict {exponent tuple: coefficient}.  Treat as frozen."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = {}
        if terms:
            for e, c in terms.items():
                if c:
                    self.terms[tuple(e)] = c

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def one(cls, n):
        return cls(n, {(0,) * n: 1})

    @classmethod
    def monomial(cls, n, exps, coeff=1):
        exps = tuple(exps)
        if len(exps) != n or any(e < 0 for e in exps):
            raise ValueError("bad exponent vector %r for n=%d" % (exps, n))
        return cls(n, {exps: coeff})

    @classmethod
    def variable(cls, n, i):
        if not 1 <= i <= n:
            raise IndexError("variable index %d out of 1..%d" % (i, n))
        e = [0] * n
        e[i - 1] = 1
        return cls(n, {tuple(e): 1})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, ExpandedPoly):
            return NotImplemented
        if self.n != other.n or len(self.terms) != len(other.terms):
            return False
        for e, c in self.terms.items():
            if e not in other.terms or other.terms[e] != c:
                return False
        return True

    def __neg__(self):
        return ExpandedPoly(self.n, {e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        if not isinstance(other, ExpandedPoly):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("variable counts differ: %d vs %d" % (self.n, other.n))
        out = dict(self.terms)
        for e, c in other.terms.items():
            acc = out.get(e)
            acc = c if acc is None else acc + c
            if acc:
                out[e] = acc
            elif e in out:
                del out[e]
        p = ExpandedPoly.__new__(ExpandedPoly)
        p.n, p.terms = self.n, out
        return p

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, ExpandedPoly):
            if self.n != other.n:
                raise ValueError("variable counts differ")
            _check_budget(len(self.terms) * len(other.terms))
            out = {}
            for ea, ca in self.terms.items():
                for eb, cb in other.terms.items():
                    e = tuple(x + y for x, y in zip(ea, eb))
                    c = ca * cb
                    acc = out.get(e)
                    acc = c if acc is None else acc + c
                    if acc:
                        out[e] = acc
                    elif e in out:
                        del out[e]
            p = ExpandedPoly.__new__(ExpandedPoly)
            p.n, p.terms = self.n, out
            return p
        # scalar
        if not other:
            return ExpandedPoly(self.n)
        return ExpandedPoly(self.n, {e: c * other for e, c in self.terms.items()})

    def __rmul__(self, other):
        return self.__mul__(other)

    def scale(self, c):
        return self.__mul__(c)

    def mul_var(self, i, power=1):
        """Multiply by x_i**power (power >= 0)."""
        if power < 0:
            raise ValueError("negative power")
        if power == 0:
            return self
        j = i - 1
        out = {e[:j] + (e[j] + power,) + e[j + 1:]: c for e, c in self.terms.items()}
        p = ExpandedPoly.__new__(ExpandedPoly)
        p.n, p.terms = self.n, out
        return p

    def partial(self, i):
        """d/dx_i."""
        j = i - 1
        out = {}
        for e, c in self.terms.items():
            a = e[j]
            if a:
                out[e[:j] + (a - 1,) + e[j + 1:]] = c * a
        p = ExpandedPoly.__new__(ExpandedPoly)
        p.n, p.terms = self.n, out
        return p

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
        p = ExpandedPoly.__new__(ExpandedPoly)
        p.n, p.terms = self.n, out
        return p

    def divided_difference(self, i, j):
        """(P - K_ij P)/(x_i - x_j), exact by the telescoping identity
        (x^a y^b - x^b y^a)/(x - y) = x^b y^b sum_t x^t y^(a-b-1-t)."""
        if i == j:
            raise ValueError("need distinct variables")
        a_i, a_j = i - 1, j - 1
        out = {}
        for e, c in self.terms.items():
            a, b = e[a_i], e[a_j]
            if a == b:
                continue
            if a < b:
                a, b = b, a
                c = -c
            base = list(e)
            for t in range(a - b):
                base[a_i] = b + t
                base[a_j] = a - 1 - t
                key = tuple(base)
                acc = out.get(key)
                acc = c if acc is None else acc + c
                if acc:
                    out[key] = acc
                elif key in out:
                    del out[key]
        p = ExpandedPoly.__new__(ExpandedPoly)
        p.n, p.terms = self.n, out
        return p

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

    def substitute_coincident(self, c):
        """Set x_1 = ... = x_c = t; result lives in variables (t, x_{c+1}, ..., x_n)."""
        if not 1 <= c <= self.n:
            raise ValueError("need 1 <= c <= n")
        out = {}
        for e, coeff in self.terms.items():
            key = (sum(e[:c]),) + e[c:]
            acc = out.get(key)
            acc = coeff if acc is None else acc + coeff
            if acc:
                out[key] = acc
            elif key in out:
                del out[key]
        p = ExpandedPoly.__new__(ExpandedPoly)
        p.n, p.terms = self.n - c + 1, out
        return p

    def restrict_last(self):
        """Set x_n = 0 and drop the variable."""
        if self.n < 1:
            raise ValueError("no variable to restrict")
        out = {e[:-1]: c for e, c in self.terms.items() if e[-1] == 0}
        p = ExpandedPoly.__new__(ExpandedPoly)
        p.n, p.terms = self.n - 1, out
        return p

    def degree(self):
        return max((sum(e) for e in self.terms), default=-1)

    def homogeneous_components(self):
        comps = {}
        for e, c in self.terms.items():
            comps.setdefault(sum(e), {})[e] = c
        return {d: ExpandedPoly(self.n, t) for d, t in sorted(comps.items())}

    def is_symmetric(self):
        """Full orbit check: every monomial's orbit present with one coefficient."""
        seen = set()
        for e, c in self.terms.items():
            if e in seen:
                continue
            lam = tuple(sorted(e, reverse=True))
            orbit = orbit_exponents(as_partition(lam), self.n)
            for f in orbit:
                if self.terms.get(f) != c:
                    return False
                seen.add(f)
        return True

    def to_msym(self, validate=True):
        """Collect into the monomial-symmetric basis."""
        if validate and not self.is_symmetric():
            raise NotSymmetric("polynomial is not symmetric")
        out = {}
        for e, c in self.terms.items():
            dec = True
            for u in range(len(e) - 1):
                if e[u] < e[u + 1]:
                    dec = False
                    break
            if dec:
                out[as_partition(e)] = c
        return MSymPoly(self.n, out)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: t[0], reverse=True)

    def __repr__(self):
        return "ExpandedPoly(n=%d, %d terms)" % (self.n, len(self.terms))

    def to_obj(self):
        from .ratfunc import coeff_to_obj
        return {"n": self.n, "basis": "expanded",
                "terms": [{"exponents": list(e), "coeff": coeff_to_obj(c)}
                          for e, c in self.sorted_terms()]}

    @classmethod
    def from_obj(cls, obj):
        from .ratfunc import coeff_from_obj
        if obj.get("basis") != "expanded":
            raise ValueError("not an expanded-basis polynomial")
        return cls(obj["n"], {tuple(t["exponents"]): coeff_from_obj(t["coeff"])
                              for t in obj["terms"]})


class MSymPoly:
    """Symmetric polynomial as a dict {partition: coefficient} in the
    monomial-symmetric basis m_lambda.  Treat as frozen."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = {}
        if terms:
            for lam, c in terms.items():
                lam = as_partition(lam)
                if len(lam) > n:
                    raise ValueError("partition %r longer than n=%d" % (lam, n))
                if c:
                    self.terms[lam] = c

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def one(cls, n):
        return cls(n, {(): 1})

    @classmethod
    def monomial_sym(cls, n, lam, coeff=1):
        return cls(n, {as_partition(lam): coeff})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, MSymPoly):
            return NotImplemented
        if self.n != other.n or len(self.terms) != len(other.terms):
            return False
        for lam, c in self.terms.items():
            if lam not in other.terms or other.terms[lam] != c:
                return False
        return True

    def __neg__(self):
        return MSymPoly(self.n, {p: -c for p, c in self.terms.items()})

    def __add__(self, other):
        if not isinstance(other, MSymPoly):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("variable counts differ")
        out = dict(self.terms)
        for p, c in other.terms.items():
            acc = out.get(p)
            acc = c if acc is None else acc + c
            if acc:
                out[p] = acc
            elif p in out:
                del out[p]
        q = MSymPoly.__new__(MSymPoly)
        q.n, q.terms = self.n, out
        return q

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if not c:
            return MSymPoly(self.n)
        return MSymPoly(self.n, {p: v * c for p, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, MSymPoly):
            return self.multiply(other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def multiply(self, other):
        """Product via expansion and recollection."""
        if self.n != other.n:
            raise ValueError("variable counts differ")
        prod = self.to_expanded() * other.to_expanded()
        return prod.to_msym(validate=False)

    def to_expanded(self):
        _check_budget(sum(orbit_size(lam, self.n) for lam in self.terms))
        out = {}
        for lam, c in self.terms.items():
            for e in orbit_exponents(lam, self.n):
                out[e] = c
        p = ExpandedPoly.__new__(ExpandedPoly)
        p.n, p.terms = self.n, out
        return p

    def evaluate(self, point):
        return self.to_expanded().evaluate(point)

    def restrict_last(self):
        """Drop the last variable (partitions of full length die)."""
        if self.n < 1:
            raise ValueError("no variable to restrict")
        out = {p: c for p, c in self.terms.items() if len(p) < self.n}
        return MSymPoly(self.n - 1, out)

    def substitute_coincident(self, c):
        return self.to_expanded().substitute_coincident(c)

    def degree(self):
        return max((sum(p) for p in self.terms), default=-1)

    def homogeneous_components(self):
        comps = {}
        for p, c in self.terms.items():
            comps.setdefault(sum(p), {})[p] = c
        return {d: MSymPoly(self.n, t) for d, t in sorted(comps.items())}

    def map_coeffs(self, fn):
        return MSymPoly(self.n, {p: fn(c) for p, c in self.terms.items()})

    def sorted_terms(self):
        return sorted(self.terms.items(),
                      key=lambda t: (sum(t[0]), t[0]), reverse=True)

    def __repr__(self):
        return "MSymPoly(n=%d, %d terms)" % (self.n, len(self.terms))

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for lam, c in self.sorted_terms():
            name = "m[%s]" % ",".join(str(p) for p in lam)
            bits.append("(%s)*%s" % (c, name))
        return " + ".join(bits)

    def to_obj(self):
        from .ratfunc import coeff_to_obj
        return {"n": self.n, "basis": "msym",
                "terms": [{"partition": list(p), "coeff": coeff_to_obj(c)}
                          for p, c in self.sorted_terms()]}

    @classmethod
    def from_obj(cls, obj):
        from .ratfunc import coeff_from_obj
        if obj.get("basis") != "msym":
            raise ValueError("not an msym-basis polynomial")
        return cls(obj["n"], {tuple(t["partition"]): coeff_from_obj(t["coeff"])
                              for t in obj["terms"]})


def power_sum(m, n):
    """p_m = sum_j x_j^m as an MSymPoly (m >= 1)."""
    if m < 1:
        raise ValueError("power sums need m >= 1")
    if n == 0:
        return MSymPoly(0)
    return MSymPoly(n, {(m,): 1})
