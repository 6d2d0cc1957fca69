"""Exact univariate polynomials in beta and reduced values in Q(beta).

Coefficients are Python ints or fractions.Fraction (arbitrary precision, always
exact).  BetaPoly is a dense univariate polynomial in the coupling beta and
carries all the arithmetic (ring operations, division with remainder, gcd).
BetaRatFunc is a value, not a field: a quotient of two BetaPolys reduced once
at construction, with a monic denominator, so equality is plain structural
comparison.  It supports evaluation, pole orders, printing and JSON only;
computations run on integer numerators and denominators (BetaPoly) instead,
and order_and_value reads pole order and value off such an unreduced pair.
"""

from fractions import Fraction

from .sympoly import rat_from_obj, rat_to_obj


class PoleError(ArithmeticError):
    """Evaluation of a rational function at a pole.  Carries the pole order."""

    def __init__(self, order, point=None):
        self.order = order
        self.point = point
        super().__init__("pole of order %d at beta=%s" % (order, point))


def _as_rat(x):
    # accepted scalar coefficient types; ints stay ints so integer
    # polynomials keep native int arithmetic
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError("expected int or Fraction, got %r" % (type(x).__name__,))


class BetaPoly:
    """Polynomial in beta over Q, coefficients stored low degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = [_as_rat(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @classmethod
    def trusted(cls, coeffs):
        """Wrap a tuple of ints with a nonzero top entry, unchecked."""
        p = object.__new__(cls)
        p.coeffs = coeffs
        return p

    @property
    def degree(self):
        # degree of the zero polynomial is -1 by convention
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, BetaPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == (() if other == 0 else (other,))
        return NotImplemented

    def __hash__(self):
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash(self.coeffs)

    def __neg__(self):
        return BetaPoly([-c for c in self.coeffs])

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BetaPoly((other,))
        if not isinstance(other, BetaPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return BetaPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, BetaPoly) else -_coerce_poly(other))

    def __rsub__(self, other):
        return _coerce_poly(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return BetaPoly()
            return BetaPoly([c * other for c in self.coeffs])
        if not isinstance(other, BetaPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return BetaPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return BetaPoly(out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        """Polynomial long division over Q.  A quotient coefficient stays an
        int when the leading coefficient divides it exactly, so division in
        Z[beta] that happens to be exact never leaves the integers."""
        if isinstance(other, (int, Fraction)):
            other = BetaPoly((other,))
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        db, lb = other.degree, other.coeffs[-1]
        if len(rem) - 1 < db:
            return BetaPoly(), self
        quo = [0] * (len(rem) - db)
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if c:
                if type(c) is int and type(lb) is int and not c % lb:
                    q = c // lb
                else:
                    q = Fraction(c) / lb
                quo[i - db] = q
                for j, cb in enumerate(other.coeffs):
                    rem[i - db + j] -= q * cb
        return BetaPoly(quo), BetaPoly(rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other):
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("inexact polynomial division")
        return q

    def __call__(self, beta0):
        """Exact value at a rational beta0 = a/b, as a Fraction.

        Runs Horner's rule on the homogenized form,
        p(a/b) = sum_i c_i a^i b^(D-i) / b^D with D = degree, so an integer
        polynomial is evaluated in Z with no gcd until the one Fraction
        built at the end."""
        if not self.coeffs:
            return Fraction(0)
        beta0 = Fraction(beta0)
        a, b = beta0.numerator, beta0.denominator
        coeffs = reversed(self.coeffs)
        acc, bp = next(coeffs), 1
        for c in coeffs:
            bp *= b
            acc = acc * a + c * bp
        return Fraction(acc, bp)

    def monic(self):
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        if lead == 1:
            return self
        inv = Fraction(1, 1) / lead
        return BetaPoly([c * inv for c in self.coeffs])

    def split_root(self, beta0):
        """(m, q) with self = (b beta - a)^m q and q(beta0) != 0, for
        beta0 = a/b, by repeated exact division."""
        if self.is_zero():
            raise ValueError("zero polynomial has no root multiplicity")
        # the primitive factor b*beta - a of beta - a/b: by Gauss's lemma an
        # integer polynomial divided by it stays in Z[beta]
        beta0 = Fraction(beta0)
        lin = BetaPoly((-beta0.numerator, beta0.denominator))
        mult, p = 0, self
        while p(beta0) == 0:
            p = p.exact_div(lin)
            mult += 1
        return mult, p

    def root_multiplicity(self, beta0):
        """Multiplicity of beta0 as a root."""
        return self.split_root(beta0)[0]

    def __repr__(self):
        return "BetaPoly(%r)" % (list(self.coeffs),)

    def __str__(self):
        if self.is_zero():
            return "0"
        bits = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                bits.append(str(c))
            elif i == 1:
                bits.append("%s*beta" % (c,) if c != 1 else "beta")
            else:
                bits.append("%s*beta^%d" % (c, i) if c != 1 else "beta^%d" % i)
        return " + ".join(bits).replace("+ -", "- ")

    def to_obj(self):
        return [rat_to_obj(c) for c in self.coeffs]

    @classmethod
    def from_obj(cls, obj):
        return cls([rat_from_obj(c) for c in obj])


def _coerce_poly(x):
    if isinstance(x, BetaPoly):
        return x
    return BetaPoly((_as_rat(x),))


BETA = BetaPoly((0, 1))
ONE = BetaPoly((1,))


def poly_gcd(a, b):
    """Monic gcd by the Euclidean algorithm over Q."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def order_and_value(num, den, beta0):
    """(order, value) of num/den at beta0 for BetaPolys that need not be
    coprime, den != 0, with no gcd.  The order is the pole order: the root
    multiplicity of den minus that of num (negative at a zero, None when
    num = 0).  The value is None at a pole, 0 at a zero, and otherwise the
    quotient of the cofactors that split_root leaves."""
    if num.is_zero():
        return None, Fraction(0)
    m_num, q_num = num.split_root(beta0)
    m_den, q_den = den.split_root(beta0)
    order = m_den - m_num
    if order:
        return order, (None if order > 0 else Fraction(0))
    return 0, q_num(beta0) / q_den(beta0)


class BetaRatFunc:
    """Element of Q(beta), stored as num/den with den monic and gcd(num, den) = 1."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _coerce_poly(num)
        den = ONE if den is None else _coerce_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in Q(beta)")
        if num.is_zero():
            num, den = BetaPoly(), ONE
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = num.exact_div(g), den.exact_div(g)
            lead = den.coeffs[-1]
            if lead != 1:
                inv = Fraction(1, 1) / lead
                num = num * inv
                den = den * inv
        self.num = num
        self.den = den

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, BetaRatFunc):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction, BetaPoly)):
            return self.den == ONE and self.num == other
        return NotImplemented

    def __hash__(self):
        if self.den == ONE:
            return hash(self.num)
        return hash((self.num.coeffs, self.den.coeffs))

    def pole_order(self, beta0):
        """Order of the pole at beta0 (negative for a zero, None for f = 0)."""
        return order_and_value(self.num, self.den, beta0)[0]

    def __call__(self, beta0):
        """Exact value at beta0; raises PoleError at a pole."""
        order, value = order_and_value(self.num, self.den, beta0)
        if value is None:
            raise PoleError(order, beta0)
        return value

    def __repr__(self):
        return "BetaRatFunc(%r, %r)" % (list(self.num.coeffs), list(self.den.coeffs))

    def __str__(self):
        if self.den == ONE:
            return str(self.num) if self.num.degree <= 0 else "(%s)" % self.num
        return "(%s)/(%s)" % (self.num, self.den)

    def to_obj(self):
        return {"num": self.num.to_obj(), "den": self.den.to_obj()}

    @classmethod
    def from_obj(cls, obj):
        return cls(BetaPoly.from_obj(obj["num"]), BetaPoly.from_obj(obj["den"]))
