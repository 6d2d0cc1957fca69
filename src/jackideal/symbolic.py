"""Jack polynomials over Q(beta), which the integer core imports only where
it runs (jack_at_key's fallback, a JackCache file read).  A JackPoly stores
J_lam = c_lam P_lam: den = c_lambda(lam) and one integer-coefficient
numerator per m-basis coefficient, read off jack._walk by jack_symbolic,
so evaluation (JackPoly.at), pole profiles and the disk cache work in
Z[beta] without a gcd, and BetaRatFunc coefficients are built on request.
"""

from fractions import Fraction
from math import prod
from operator import mul

from .ratfunc import BetaPoly, BetaRatFunc, order_and_value
from .partitions import (as_partition, dominated_by, eigenvalue_pair,
                         hook_factors, padded)
from .sympoly import MSymPoly, orbit_size
from .jack import JackCache, SpecializationPole, _walk

# format of the JackPoly.to_obj() files that JackCache writes
CACHE_VERSION = 2


def c_lambda(lam):
    """Denominator-clearing hook product: over the nodes of lam, the
    product of arm + (leg + 1) * beta, on an int coefficient list.  Every
    beta-coefficient is a leg length plus one, at least 1, so the top
    entry is nonzero."""
    out = [1]
    for a, b in hook_factors(lam):
        out = [a * x + b * y for x, y in zip(out + [0], [0] + out)]
    return BetaPoly.trusted(tuple(out))


def cs_eigenvalue(lam, n):
    """Sutherland-type eigenvalue: sum over rows of (lam_i + beta(n+1-2i)) lam_i."""
    return BetaPoly(eigenvalue_pair(lam, n))


def sekiguchi_eigenvalue(lam, n):
    """Coefficients in u (low degree first) of prod_i (u + lam_i + (n-i)beta)."""
    lp = padded(lam, n)
    out = [BetaPoly((1,))]
    for i in range(1, n + 1):
        lin = BetaPoly((lp[i - 1], n - i))
        nxt = [BetaPoly()] * (len(out) + 1)
        for m, c in enumerate(out):
            nxt[m + 1] = nxt[m + 1] + c
            nxt[m] = nxt[m] + c * lin
        out = nxt
    return out


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


def pole_profile(lam, n, beta0, cache=None):
    """Worst pole order at beta0 over the coefficients of P_lam (0 = regular;
    nums[lam] = den keeps it at >= 0)."""
    jp = jack_symbolic(lam, n, cache)
    return max(order_and_value(p, jp.den, beta0)[0] for p in jp.nums.values())


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
