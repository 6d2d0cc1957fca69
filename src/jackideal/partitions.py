"""Partitions, dominance order, admissibility, hook factors and eigenvalues,
in Z (their Q[beta] forms are in the symbolic module).

A partition is a plain tuple of weakly decreasing positive ints (trailing
zeros are stripped on normalization).  Where an ambient number of variables
matters the functions take n explicitly and treat the partition as padded
with zeros to length n.
"""

import operator
from fractions import Fraction
from itertools import repeat
from math import gcd


class InvalidParameters(ValueError):
    """Parameters (k, r, n, ...) outside the allowed range."""


class DegreeMismatch(ValueError):
    """Dominance comparison of partitions of different weights."""


def as_partition(parts, n=None):
    """Normalize to a partition tuple; validates weak decrease, and at most
    n parts when n is given.  Parts must be integers (operator.index):
    floats and strings raise TypeError rather than being truncated or
    parsed."""
    parts = tuple(map(operator.index, parts))
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    for i in range(1, len(parts)):
        if parts[i] > parts[i - 1]:
            raise ValueError("not weakly decreasing: %r" % (parts,))
    if parts and parts[-1] < 0:
        raise ValueError("negative part in %r" % (parts,))
    if n is not None and len(parts) > n:
        raise ValueError("partition %r longer than n=%d" % (parts, n))
    return parts


def padded(lam, n):
    if len(lam) > n:
        raise ValueError("partition %r longer than n=%d" % (lam, n))
    return tuple(lam) + (0,) * (n - len(lam))


def conjugate(lam):
    """Transpose of the Young diagram: from the last row up, each row i
    (1-indexed) adds lam_i - lam_(i+1) columns of height i."""
    out, below = [], 0
    for i in range(len(lam), 0, -1):
        out += [i] * (lam[i - 1] - below)
        below = lam[i - 1]
    return tuple(out)


def dominance_compare(mu, lam):
    """Compare in dominance order; returns 'less', 'equal', 'greater'
    or 'incomparable' (mu relative to lam).  Weights must agree."""
    if sum(mu) != sum(lam):
        raise DegreeMismatch("weights differ: %r vs %r" % (mu, lam))
    le = dominated_by(mu, lam)
    ge = dominated_by(lam, mu)
    if le and ge:
        return "equal"
    if le:
        return "less"
    if ge:
        return "greater"
    return "incomparable"


def dominated_by(mu, lam):
    """True iff mu <= lam in dominance (same weight assumed)."""
    sm = sl = 0
    for i in range(max(len(mu), len(lam))):
        sm += mu[i] if i < len(mu) else 0
        sl += lam[i] if i < len(lam) else 0
        if sm > sl:
            return False
    return True


def partitions_of(d, max_len=None):
    """All partitions of d with at most max_len parts (any number when
    None), in decreasing lex order, by one loop: from (d,), lower the
    rightmost part p_i that can drop by one to v = p_i - 1 with the rest
    of its tail, sum_(j >= i) p_j - v, fitting in the slots after i as
    parts at most v, and refill the tail from i greedily with parts v."""
    slots = d if max_len is None else max_len
    if d == 0:
        yield ()
    if d <= 0 or slots <= 0:
        return
    p = [d]
    while True:
        yield tuple(p)
        tail = 0
        for i in range(len(p) - 1, -1, -1):
            tail += p[i]
            v = p[i] - 1
            if v and tail - v <= v * (slots - 1 - i):
                break
        else:
            return
        q, rem = divmod(tail, v)
        p[i:] = [v] * q + ([rem] if rem else [])


def partitions_leq(d, n):
    """Partitions of d with at most n parts, decreasing lex, as a tuple."""
    return tuple(partitions_of(d, max_len=n))


def _check_kr(k, r):
    if k < 1 or r < 2:
        raise InvalidParameters("need k >= 1 and r >= 2, got k=%d r=%d" % (k, r))
    if gcd(k + 1, r - 1) != 1:
        raise InvalidParameters(
            "k+1=%d and r-1=%d are not coprime" % (k + 1, r - 1))


def beta_value(k, r):
    """The specialization point beta(k, r) = -(r-1)/(k+1)."""
    _check_kr(k, r)
    return Fraction(-(r - 1), k + 1)


def _in_window(lam, k, r, n):
    """lam[i] - lam[i+k] >= r for a partition tuple lam padded to n."""
    lp = lam + (0,) * (n - len(lam))
    return all(map(operator.ge, map(operator.sub, lp, lp[k:]), repeat(r)))


def is_admissible(lam, k, r, n):
    """Whether lam is (k, r, n)-admissible: _in_window, after checking k, r, n
    and the length.  Zero parts count: () is admissible only when n <= k."""
    _check_kr(k, r)
    if n < 1:
        raise InvalidParameters("need n >= 1, got n=%d" % n)
    if len(lam) > n:
        raise InvalidParameters("partition %r longer than n=%d" % (lam, n))
    return _in_window(tuple(lam), k, r, n)


class AdmissibleFamily:
    """Admissible partitions for fixed (k, r, n), grouped by degree."""

    def __init__(self, k, r, n, dmax, by_degree):
        self.k, self.r, self.n, self.dmax = k, r, n, dmax
        self.by_degree = by_degree

    def character(self):
        """Number of admissible partitions per degree 0..dmax."""
        return [len(self.by_degree.get(d, ())) for d in range(self.dmax + 1)]

    def all_partitions(self):
        for d in range(self.dmax + 1):
            yield from self.by_degree.get(d, ())

    def to_obj(self):
        return {
            "k": self.k, "r": self.r, "n": self.n,
            "character": self.character(),
            "partitions": {str(d): [list(p) for p in self.by_degree.get(d, ())]
                           for d in range(self.dmax + 1)},
        }


def enumerate_admissible(k, r, n, dmax):
    """All admissible partitions of weight <= dmax, each degree in
    decreasing lex order, with the checks of is_admissible run once for
    (k, r, n, dmax).  Each lam, padded to n, is grown from its last row up:
    a suffix (lam_i, ..., lam_n) is dropped when, longer than k, it fails
    _in_window on its own slots, which no row above can mend, or when its
    least completion, every row above equal to lam_i, passes dmax."""
    _check_kr(k, r)
    if n < 1 or dmax < 0:
        raise InvalidParameters("need n >= 1 and dmax >= 0")
    by_degree = {d: [] for d in range(dmax + 1)}
    stack = [((), 0)]  # (suffix, its total)
    while stack:
        suffix, total = stack.pop()
        left = n - len(suffix)  # rows above the suffix
        if not left:
            by_degree[total].append(tuple(filter(None, suffix)))
            continue
        v = suffix[0] if suffix else 0
        while total + v * left <= dmax:
            grown = (v,) + suffix
            if len(grown) <= k or _in_window(grown, k, r, len(grown)):
                stack.append((grown, total + v))
            v += 1
    return AdmissibleFamily(k, r, n, dmax, {
        d: tuple(sorted(lams, reverse=True)) for d, lams in by_degree.items()})


class InvalidNode(ValueError):
    """A node position outside the Young diagram or breaking partition shape."""


def add_node(lam, row):
    """Partition with one node added in the given 1-indexed row."""
    lam = tuple(lam)
    if row < 1 or row > len(lam) + 1:
        raise InvalidNode("cannot add a node in row %d of %r" % (row, lam))
    parts = list(lam) + [0] * (row - len(lam))
    parts[row - 1] += 1
    try:
        return as_partition(parts)
    except ValueError:
        raise InvalidNode("adding in row %d of %r breaks shape" % (row, lam))


def remove_node(lam, row):
    """Partition with one node removed from the given 1-indexed row."""
    lam = tuple(lam)
    if row < 1 or row > len(lam):
        raise InvalidNode("no row %d in %r" % (row, lam))
    parts = list(lam)
    parts[row - 1] -= 1
    try:
        return as_partition(parts)
    except ValueError:
        raise InvalidNode("removing from row %d of %r breaks shape" % (row, lam))


def addable_rows(lam, n):
    """Rows where a node can be added keeping a partition of length <= n."""
    return [row for row in range(1, min(len(lam) + 1, n) + 1)
            if row in (1, len(lam) + 1) or lam[row - 1] < lam[row - 2]]


def removable_rows(lam):
    return [row for row in range(1, len(lam) + 1)
            if row == len(lam) or lam[row - 1] > lam[row]]


def node_moves(lam, n):
    """All partitions one node away from lam (length capped at n)."""
    ups = [add_node(lam, row) for row in addable_rows(lam, n)]
    downs = [remove_node(lam, row) for row in removable_rows(lam)]
    return ups + downs


def hook_factors(lam):
    """(arm, leg + 1) of each node (i, j) of lam: lam[i] - j and
    conj(lam)[j] - i + 1."""
    conj = conjugate(lam)
    return [(li - j, conj[j - 1] - i + 1)
            for i, li in enumerate(lam, start=1) for j in range(1, li + 1)]


def eigenvalue_pair(lam, n):
    """(euler, diag) of the Sutherland-type eigenvalue euler + diag beta,
    sum over rows of (lam_i + beta(n+1-2i)) lam_i, as two ints."""
    if len(lam) > n:
        raise ValueError("partition %r longer than n=%d" % (lam, n))
    return (sum(map(operator.mul, lam, lam)),
            sum(map(operator.mul, range(n - 1, -n, -2), lam)))


def check_nonvanishing(lam, k, r, n):
    """Machine check that the denominator factors stay nonzero at
    beta0 = beta(k, r) for an admissible lam: pairwise row terms and the
    hook product c_lambda, plus the shifted pairwise term avoiding 1 below
    every strict drop."""
    if not is_admissible(lam, k, r, n):
        raise InvalidParameters("%r is not (%d,%d,%d)-admissible" % (lam, k, r, n))
    b0 = beta_value(k, r)
    lp = padded(lam, n)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if (j - i) * b0 + lp[i - 1] - lp[j - 1] == 0:
                return False
    if any(a + b * b0 == 0 for a, b in hook_factors(lam)):  # c_lambda(b0)
        return False
    for j in range(2, n + 1):
        if lp[j - 1] < lp[j - 2]:
            for i in range(1, j):
                if (j - i) * b0 + lp[i - 1] - lp[j - 1] == 1:
                    return False
    return True
