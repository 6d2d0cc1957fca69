"""Differential oracle for membership reduction.

batch_reduce is the reduction as it was before the one-sweep integer form:
Fraction arithmetic, and in every pass all dominance-maximal support
partitions found by pairwise dominated_by tests and cleared at once.  It
shares neither the lex walk nor the integer rows with reduce_membership,
so equal members and combinations on closure, restriction and random
inputs check the sweep from outside.

With keep_going, batch_reduce moves non-admissible maxima into a remainder
and carries on; what it ends with is the normal form (P minus its part in
the span, supported on non-admissible partitions only, hence unique).  The
obstruction of reduce_membership must be the lex-largest partition of the
normal form's lowest nonzero degree.

IdealBasis.obstruction reads the same verdict off the per-degree table of
normal forms NF(m_mu), with no elimination at all: it must give
reduce_membership's obstruction (None for a member) and agree with the
normal form batch_reduce ends with, on inputs that span several degrees.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from jackideal.basis import MembershipCertificate
from jackideal.ideal import build_basis, closure_tags, reduce_membership
from jackideal.jack import JackCache
from jackideal.partitions import beta_value, dominated_by, partitions_leq
from jackideal.sympoly import MSymPoly

CACHE = JackCache()


def batch_reduce(P, basis, keep_going=False):
    """Batch-of-maxima reduction of P (over Q); with keep_going, returns
    (certificate of the admissible part, normal form) instead."""
    combination = {}
    rest = {}
    for d, comp in P.homogeneous_components().items():
        work = comp
        while work.terms:
            support = sorted(work.terms, reverse=True)
            maxima = [p for p in support
                      if not any(q != p and dominated_by(p, q) for q in support)]
            if not keep_going:
                for p in maxima:
                    if p not in basis.elements:
                        return MembershipCertificate(False, {}, p)
            acc = work
            for p in maxima:
                c = work.terms[p]
                if p in basis.elements:
                    combination[p] = c
                    acc = acc - basis.elements[p].poly.scale(c)
                else:
                    rest[p] = rest.get(p, 0) + c
                    acc = acc - MSymPoly(P.n, {p: c})
            work = acc
    cert = MembershipCertificate(True, combination, None)
    return (cert, MSymPoly(P.n, rest)) if keep_going else cert


def assert_same(P, basis, label=None):
    want = batch_reduce(P, basis)
    got = reduce_membership(P, basis)
    assert got.member == want.member, label
    if want.member:
        assert got.combination == want.combination, label
    assert basis.obstruction(P) == got.obstruction, label
    return got


def assert_lex_leading(P, basis, label=None):
    """reduce_membership and the table both stop at the lex-largest
    partition of the lowest nonzero degree of the normal form."""
    got = reduce_membership(P, basis)
    cert, nf = batch_reduce(P, basis, keep_going=True)
    assert got.member == nf.is_zero(), label
    if got.member:
        assert got.combination == cert.combination, label
        assert basis.obstruction(P) is None, label
    else:
        lowest = min(nf.homogeneous_components().items())[1]
        assert got.obstruction == max(lowest.terms), label
        assert basis.obstruction(P) == got.obstruction, label
    return got


def closure_images(k, r, n, dmax, mmax, tmax):
    """Every closure image tag(P_lam) at beta(k, r), over Q, with its basis."""
    b0 = beta_value(k, r)
    basis = build_basis(k, r, n, dmax, CACHE)
    images = []
    for lam in basis.family.all_partitions():
        for tag in closure_tags(mmax, tmax):
            if 0 <= sum(lam) + tag.m <= dmax:
                images.append(("%s@%s" % (tag, list(lam)),
                               tag.apply(basis.get(lam).poly, b0)))
    return basis, images


def test_criterion_7_closure_images():
    for k, r in ((1, 2), (2, 3), (1, 4)):
        for n in range(1, 5):
            basis, images = closure_images(k, r, n, 10, 4, 4)
            for label, img in images:
                assert_same(img, basis, (k, r, n, label))


def test_closure_images_1_2_3_14():
    basis, images = closure_images(1, 2, 3, 14, 4, 4)
    for label, img in images:
        assert_same(img, basis, label)


def test_restriction_images_2_2_4_10():
    basis_n = build_basis(2, 2, 4, 10, CACHE)
    basis_m = build_basis(2, 2, 3, 10, CACHE)
    for lam in basis_n.family.all_partitions():
        for j in range(3):
            assert_same(basis_n.get(lam).poly.restrict_last(j), basis_m,
                        (lam, j))


def test_seeded_combinations():
    """Seeded Q-combinations of basis elements, which span several degrees,
    and the same plus one to three stray m_mu off the basis, in any degree:
    members come back with their combination, and every non-member stops
    at the lex-leading partition of its normal form's lowest degree."""
    rng = random.Random(8)
    for grid in ((1, 2, 3, 12), (2, 2, 4, 10), (2, 3, 3, 12), (2, 3, 4, 12),
                 (3, 2, 5, 10)):
        basis = build_basis(*grid, cache=CACHE)
        lams = sorted(basis.elements)
        outside = [mu for d in range(basis.dmax + 1)
                   for mu in partitions_leq(d, basis.n)
                   if mu not in basis.elements]
        for _ in range(40):
            comb = {lam: Fraction(rng.choice([-7, -2, -1, 1, 3, 5]),
                                  rng.randint(1, 6))
                    for lam in rng.sample(lams, rng.randint(1, 5))}
            P = MSymPoly(basis.n)
            for lam, c in comb.items():
                P = P + basis.get(lam).poly.scale(c)
            got = assert_same(P, basis, comb)
            assert got.member and got.combination == comb
            stray = MSymPoly(basis.n, {mu: rng.choice([-3, 1, 2])
                                       for mu in rng.sample(outside,
                                                            rng.randint(1, 3))})
            got = assert_lex_leading(P + stray, basis, (comb, stray))
            assert not got.member


NF_BASIS = build_basis(1, 2, 3, 12, CACHE)
NF_PARTS = [mu for d in range(13) for mu in partitions_leq(d, 3)]


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.sampled_from(NF_PARTS),
                       st.fractions(min_value=-5, max_value=5,
                                    max_denominator=6),
                       min_size=1, max_size=6))
def test_obstruction_is_lex_leading_term_of_normal_form(terms):
    assert_lex_leading(MSymPoly(3, terms), NF_BASIS)
