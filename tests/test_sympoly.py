"""Polynomials in n variables: expanded monomial form, the symmetric
m-basis, and the exact structural operations both support."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import jackideal.sympoly as sympoly
from jackideal.operators import (apply_l, apply_p, apply_w, class_table,
                                 coincident_row, nabla_positions)
from jackideal.partitions import as_partition, partitions_leq
from jackideal.ratfunc import BETA, BetaPoly, BetaRatFunc
from jackideal.sympoly import (ExpandedPoly, MSymPoly, NotSymmetric,
                               TermBudgetExceeded, distinct_permutations,
                               orbit_exponents, orbit_size, power_sum)

from class_oracle import (PartSymPoly, expanded_coincident,
                          substitute_coincident)


def rand_expanded(rng, n, deg, nterms=4):
    p = ExpandedPoly.zero(n)
    for _ in range(nterms):
        e = tuple(rng.randint(0, deg) for _ in range(n))
        p = p + ExpandedPoly(n, {e: rng.randint(-5, 5)})
    return p


def rand_symmetric(rng, n, deg):
    q = MSymPoly.zero(n)
    for _ in range(3):
        lam = tuple(sorted((rng.randint(0, deg) for _ in range(n)),
                           reverse=True))
        lam = tuple(x for x in lam if x)
        q = q + MSymPoly(n, {lam: rng.randint(-4, 4)})
    return q


def test_distinct_permutations():
    assert sorted(distinct_permutations((1, 1, 0))) == [
        (0, 1, 1), (1, 0, 1), (1, 1, 0)]
    assert list(distinct_permutations((2, 2))) == [(2, 2)]
    rng = random.Random(3)
    for _ in range(20):
        seq = tuple(rng.randint(0, 2) for _ in range(5))
        got = list(distinct_permutations(seq))
        assert len(got) == len(set(got))
        import itertools
        assert set(got) == set(itertools.permutations(seq))


def test_orbit_size():
    assert orbit_size((2, 1), 3) == 6
    assert orbit_size((1, 1), 3) == 3
    assert orbit_size((), 4) == 1
    assert orbit_size((3, 3, 3), 3) == 1
    assert len(orbit_exponents((2, 1), 3)) == 6


def test_monomial_sym_expansion():
    m = MSymPoly(2, {(2, 1): 1}).to_expanded()
    assert m.terms == {(2, 1): 1, (1, 2): 1}
    m = MSymPoly(3, {(2,): 1}).to_expanded()
    assert m.terms == {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}
    assert MSymPoly(3, {(): 1}).to_expanded().terms == {(0, 0, 0): 1}


def test_expanded_msym_roundtrip():
    rng = random.Random(9)
    for _ in range(25):
        n = rng.randint(1, 4)
        q = rand_symmetric(rng, n, 4)
        assert q.to_expanded().to_msym() == q


def test_to_msym_rejects_asymmetric():
    p = ExpandedPoly(2, {(2, 1): 1})
    with pytest.raises(NotSymmetric):
        p.to_msym()
    assert not p.is_symmetric()
    assert (p + ExpandedPoly(2, {(1, 2): 1})).is_symmetric()


def orbit_walk_is_symmetric(p):
    """The earlier symmetry check, kept as the oracle: build each term's
    S_n-orbit and look every member up with one coefficient."""
    seen = set()
    for e, c in p.terms.items():
        if e in seen:
            continue
        for f in orbit_exponents(as_partition(sorted(e, reverse=True)), p.n):
            if p.terms.get(f) != c:
                return False
            seen.add(f)
    return True


def orbit_walk_to_msym(p):
    """The earlier collection: NotSymmetric by the orbit walk, else the
    coefficient of each non-increasing exponent vector."""
    if not orbit_walk_is_symmetric(p):
        raise NotSymmetric("polynomial is not symmetric")
    return MSymPoly(p.n, {e: c for e, c in p.terms.items()
                          if list(e) == sorted(e, reverse=True)})


def symmetry_cases(rng, n):
    """Full orbits of random partitions, each with three perturbations:
    one orbit member dropped, one coefficient changed, a stray monomial."""
    E = rand_symmetric(rng, n, 3).to_expanded()
    if rng.random() < 0.3:
        E = E.scale(BETA + rng.randint(-2, 2))
    yield E
    keys = sorted(E.terms)
    if keys:
        drop = rng.choice(keys)
        yield ExpandedPoly(n, {e: c for e, c in E.terms.items() if e != drop})
        bump = rng.choice(keys)
        yield E + ExpandedPoly(n, {bump: rng.choice((-1, 1))})
    stray = tuple(rng.randint(0, 3) for _ in range(n))
    yield E + ExpandedPoly(n, {stray: rng.randint(1, 3)})


def test_symmetry_matches_orbit_walk():
    rng = random.Random(61)
    verdicts = []
    for _ in range(300):
        for p in symmetry_cases(rng, rng.randint(0, 5)):
            want = orbit_walk_is_symmetric(p)
            verdicts.append(want)
            assert p.is_symmetric() == want, p.terms
            if want:
                assert p.to_msym() == orbit_walk_to_msym(p)
            else:
                with pytest.raises(NotSymmetric):
                    p.to_msym()
    assert verdicts.count(True) > 300 and verdicts.count(False) > 300


def test_symmetry_builds_no_orbit(monkeypatch):
    q = MSymPoly(4, {(3, 1): 2, (2, 2): -1, (1, 1, 1, 1): 5, (): 7})
    E = q.to_expanded()

    def refuse(*args):
        raise AssertionError("an S_n-orbit was built")
    monkeypatch.setattr(sympoly, "orbit_exponents", refuse)
    monkeypatch.setattr(sympoly, "distinct_permutations", refuse)
    # 12! members in the orbit of one term with 12 distinct exponents
    p = ExpandedPoly(12, {tuple(range(12)): 1})
    assert not p.is_symmetric()
    with pytest.raises(NotSymmetric):
        p.to_msym()
    assert E.is_symmetric() and E.to_msym() == q


@pytest.mark.parametrize("cls, keys", [
    (MSymPoly, ([2], [1, 1], [2, 0])),
    (MSymPoly, ([1], [1])),
    (ExpandedPoly, ([2, 0], [1, 1], [2, 0])),
])
def test_from_obj_rejects_repeated_key(cls, keys):
    obj = {"n": 2, "basis": cls.BASIS,
           "terms": [{cls.KEY: k, "coeff": {"num": str(i), "den": "1"}}
                     for i, k in enumerate(keys)]}
    with pytest.raises(ValueError, match="repeated %s" % cls.KEY):
        cls.from_obj(obj)


@pytest.mark.parametrize("terms", [
    {(2,): 1, (2, 0): 5},
    {(1, 1): 0, (1, 1, 0): 3},
    {(1,): 2, (1, 0, 0): -2},
])
def test_constructor_rejects_repeated_key(terms):
    # two partitions that normalize alike: neither may silently win
    with pytest.raises(ValueError, match="repeated partition"):
        MSymPoly(3, terms)


def test_multiplication_against_evaluation():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(1, 3)
        a = rand_expanded(rng, n, 3)
        b = rand_expanded(rng, n, 3)
        pt = [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
              for _ in range(n)]
        assert (a * b).evaluate(pt) == a.evaluate(pt) * b.evaluate(pt)
        assert (a + b).evaluate(pt) == a.evaluate(pt) + b.evaluate(pt)


def test_m_times_m_oracle():
    # m_(1) * m_(1) = m_(2) + 2 m_(1,1) in any n >= 2
    a = MSymPoly(3, {(1,): 1}).to_expanded()
    prod = (a * a).to_msym()
    assert prod == MSymPoly(3, {(2,): 1, (1, 1): 2})


def test_partial_and_mul_var():
    p = ExpandedPoly(2, {(3, 1): 2})    # 2 x^3 y
    assert p.partial(1).terms == {(2, 1): 6}
    assert p.partial(2).terms == {(3, 0): 2}
    assert p.mul_var(2).terms == {(3, 2): 2}
    assert p.mul_var(1, 2).terms == {(5, 1): 2}
    assert ExpandedPoly(2, {(0, 0): 1}).partial(1).is_zero()


def test_swap_and_divided_difference():
    p = ExpandedPoly(2, {(3, 1): 1})
    assert p.swap(1, 2).terms == {(1, 3): 1}
    # (x^3 y - x y^3)/(x - y) = x y (x + y)
    dd = p.divided_difference(1, 2)
    assert dd.terms == {(2, 1): 1, (1, 2): 1}
    # antisymmetric input: division is exact with no remainder term
    q = ExpandedPoly(2, {(1, 0): 1}) - ExpandedPoly(2, {(0, 1): 1})
    assert q.divided_difference(1, 2).terms == {(0, 0): 2}


def test_divided_difference_matches_rational_quotient():
    # evaluate (P - KP)/(x_i - x_j) at random points with x_i != x_j
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(2, 4)
        p = rand_expanded(rng, n, 3)
        i, j = rng.sample(range(1, n + 1), 2)
        dd = p.divided_difference(i, j)
        pt = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
              for _ in range(n)]
        if pt[i - 1] == pt[j - 1]:
            continue
        swapped = list(pt)
        swapped[i - 1], swapped[j - 1] = swapped[j - 1], swapped[i - 1]
        want = (p.evaluate(pt) - p.evaluate(swapped)) / (pt[i - 1] - pt[j - 1])
        assert dd.evaluate(pt) == want


def test_substitute_coincident():
    # m_(1,1) in 2 vars under x1 = x2 = t becomes t^2
    m = MSymPoly(2, {(1, 1): 1})
    sub = coincident_classes(m, 2)
    assert sub.n == 1 and sub.terms == {(2,): 1}
    # power sums survive with multiplicity
    p2 = expanded_coincident(power_sum(2, 3).to_expanded(), 2)
    assert p2.terms == {(2, 0): 2, (0, 2): 1}
    assert coincident_classes(power_sum(2, 3), 2).terms == {(2,): 2, (0, 2): 1}
    for c in (0, 3):
        with pytest.raises(ValueError):
            coincident_row((1, 1), 2, c, {})


@st.composite
def msym_and_cluster(draw):
    n = draw(st.integers(1, 6))
    parts = [lam for d in range(7) for lam in partitions_leq(d, n)]
    coeffs = st.one_of(st.integers(-4, 4), st.fractions(
        min_value=-3, max_value=3, max_denominator=4))
    terms = draw(st.dictionaries(st.sampled_from(parts), coeffs, max_size=5))
    return MSymPoly(n, terms), draw(st.integers(1, n))


def collect_classes(E):
    """The ExpandedPoly E, symmetric in every variable but the first, as a
    PartSymPoly: read on the exponent vectors whose tail is non-increasing,
    zero parts dropped."""
    want = {}
    for e, v in E.terms.items():
        tail = e[1:]
        if list(tail) == sorted(tail, reverse=True):
            want[(e[0],) + tuple(x for x in tail if x)] = v
    return PartSymPoly(E.n, want)


def expand_classes(Q):
    """The PartSymPoly Q with t = x_1, as an ExpandedPoly in n variables."""
    out = ExpandedPoly.zero(Q.n)
    for key, c in Q.terms.items():
        for e in orbit_exponents(key[1:], Q.n - 1):
            out = out + ExpandedPoly(Q.n, {(key[0],) + e: c})
    return out


def coincident_classes(P, c, rows=None):
    """coincident_row(., n, c) summed over the terms of the MSymPoly P and
    read back on class keys, as a PartSymPoly in n - c + 1 variables; each
    row holds each position once."""
    rows = {} if rows is None else rows
    pairs = []
    for lam, v in P.terms.items():
        order = class_table(P.n - c + 1, sum(lam), rows)[0]
        row = coincident_row(lam, P.n, c, rows)
        assert len({p for p, _ in row}) == len(row)
        pairs += [(order[p], v * x) for p, x in row]
    return PartSymPoly._collect(P.n - c + 1, pairs)


def position_nabla(Q, a, b, rows=None):
    """nabla_positions(., a, b) on the PartSymPoly Q, one homogeneous
    component at a time, read back on class keys."""
    rows = {} if rows is None else rows
    out = {}
    for e, comp in Q.homogeneous_components().items():
        pos = class_table(Q.n, e, rows)[1]
        below = class_table(Q.n, e - 1, rows)[0]
        entry = [(pos[key], c) for key, c in comp.terms.items()]
        for p, x in nabla_positions(entry, Q.n, e, a, b, rows):
            out[below[p]] = x
    return PartSymPoly(Q.n, out)


@settings(max_examples=80, deadline=None)
@given(msym_and_cluster())
def test_substitute_coincident_matches_expanded(case):
    P, c = case
    got = coincident_classes(P, c)
    assert got.n == P.n - c + 1
    assert got == collect_classes(expanded_coincident(P.to_expanded(), c))


def test_substitute_coincident_matches_expanded_exhaustive():
    # one memo for every (n, c): rows and class tables are keyed apart, and
    # each orbit size, filed per c, is read again at every larger n
    rows = {}
    for n in range(1, 7):
        for d in range(9):
            for lam in partitions_leq(d, n):
                P = MSymPoly(n, {lam: 3})
                E = P.to_expanded()
                for c in range(1, n + 1):
                    want = collect_classes(expanded_coincident(E, c))
                    assert coincident_classes(P, c, rows) == want, (lam, c)
    for c in range(1, 7):
        assert all(size == orbit_size(S, c)
                   for S, size in rows[("orbits", c)].items()), c


@st.composite
def class_polys(draw):
    n = draw(st.integers(2, 5))
    keys = [(a,) + nu for a in range(5) for d in range(5)
            for nu in partitions_leq(d, n - 1)]
    terms = draw(st.dictionaries(st.sampled_from(keys),
                                 st.integers(-4, 4), max_size=5))
    return PartSymPoly(n, terms), draw(st.integers(0, 3))


@settings(max_examples=80, deadline=None)
@given(class_polys())
def test_class_steps_match_expanded(case):
    # each class step against the ExpandedPoly calculus on the expansion
    # of Q with t = x_1, read back on classes
    Q, shift = case
    E = expand_classes(Q)
    n = Q.n
    assert expand_classes(Q) == E and collect_classes(E) == Q
    for c in range(1, n):
        assert Q.cluster(c) == collect_classes(expanded_coincident(E, c + 1))
    assert Q.cluster() == Q.cluster(1)
    assert Q.partial_t() == collect_classes(E.partial(1))
    dd = ExpandedPoly.zero(n)
    for j in range(2, n + 1):
        dd = dd + E.divided_difference(1, j)
    assert position_nabla(Q, 1, 0) == collect_classes(dd)
    sym = ExpandedPoly.zero(n)
    for j in range(1, n + 1):
        sym = sym + E.swap(1, j).mul_var(j, shift)
    assert Q.symmetrize(shift) == sym.to_msym()


def test_class_step_ranges():
    for c in (0, 3):
        with pytest.raises(ValueError):
            PartSymPoly(3, {(2,): 1}).cluster(c)
    with pytest.raises(ValueError):
        PartSymPoly(1, {(2,): 1}).cluster()
    with pytest.raises(ValueError):
        PartSymPoly(2, {(2,): 1}).symmetrize(-1)


def test_partsym_constructor_validates():
    assert PartSymPoly(3, {(2, 1, 1): 5, (0,): 0}).terms == {(2, 1, 1): 5}
    for key in [(-1, 1), (2, 1, 2), (2, 1, 0), (1, -1), (1, 1, 1, 1), ()]:
        with pytest.raises(ValueError):
            PartSymPoly(3, {key: 1})


def test_restrict_last():
    q = MSymPoly(3, {(2, 1): 1, (1, 1, 1): 5, (2, 2, 1): 3})
    low = q.restrict_last()
    assert low.n == 2 and low.terms == {(2, 1): 1}
    # (d/dx_3)^j at x_3 = 0: m_mu keeps j! times m_(mu minus one part j)
    assert q.restrict_last(1).terms == {(2,): 1, (1, 1): 5, (2, 2): 3}
    assert q.restrict_last(2).terms == {(1,): 2, (2, 1): 6}
    assert q.restrict_last(3).is_zero()
    with pytest.raises(ValueError):
        q.restrict_last(-1)
    with pytest.raises(ValueError):
        MSymPoly.zero(0).restrict_last()


def test_homogeneous_components_and_degree():
    q = MSymPoly(2, {(2,): 1, (1,): 3, (): 7})
    comps = q.homogeneous_components()
    assert sorted(comps) == [0, 1, 2]
    assert comps[1] == MSymPoly(2, {(1,): 3})


def test_beta_coefficients_supported():
    # generic-coupling coefficients flow through products unharmed
    q = MSymPoly(2, {(1,): BETA}).to_expanded()
    prod = (q * q).to_msym()
    assert prod == MSymPoly(2, {(2,): BETA * BETA, (1, 1): 2 * BETA * BETA})
    assert MSymPoly(2, {k: c(Fraction(2)) for k, c in prod.terms.items()}) \
        == MSymPoly(2, {(2,): 4, (1, 1): 8})


def test_power_sum():
    assert power_sum(3, 2).to_expanded().terms == {(3, 0): 1, (0, 3): 1}
    with pytest.raises(ValueError):
        power_sum(0, 2)


def test_term_budget_guard():
    old = sympoly.TERM_BUDGET
    sympoly.TERM_BUDGET = 10
    try:
        a = rand_expanded(random.Random(1), 3, 4, nterms=6)
        with pytest.raises(TermBudgetExceeded):
            for _ in range(5):
                a = a * a
    finally:
        sympoly.TERM_BUDGET = old


def test_bases_do_not_mix():
    q = MSymPoly(2, {(1,): 1})
    e = q.to_expanded()
    for op in (lambda a, b: a + b, lambda a, b: a - b):
        with pytest.raises(TypeError):
            op(e, q)
        with pytest.raises(TypeError):
            op(q, e)
    assert (e == q) is False and (q == e) is False and e != q
    # neither basis is a scalar for the other
    for op in (lambda a, b: a * b, lambda a, b: a.scale(b)):
        with pytest.raises(TypeError):
            op(e, q)
        with pytest.raises(TypeError):
            op(q, e)
    assert e * 2 == 2 * e == e.scale(2) and q * 2 == 2 * q


def test_symmetric_forms_have_no_product():
    # the polynomial product is ExpandedPoly's alone
    q = MSymPoly(2, {(1,): 1})
    c = substitute_coincident(q, 1)
    for a in (q, c):
        with pytest.raises(TypeError):
            a * a


@pytest.mark.parametrize("exps", [(1,), (1, 0, 0), (1, -1), (1.5, 0),
                                  ("1", 0)])
def test_bad_exponent_vector_named(exps):
    with pytest.raises(ValueError, match="bad exponent vector"):
        ExpandedPoly(2, {exps: 1})
    with pytest.raises(ValueError, match="bad exponent vector"):
        ExpandedPoly(2, {exps: 0})


COEFFS = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.lists(st.integers(-3, 3), max_size=3).map(BetaPoly))


@st.composite
def msym_operands(draw):
    n = draw(st.integers(1, 4))
    parts = [lam for d in range(5) for lam in partitions_leq(d, n)]
    terms = st.dictionaries(st.sampled_from(parts), COEFFS, max_size=5)
    return (MSymPoly(n, draw(terms)), MSymPoly(n, draw(terms)),
            draw(COEFFS))


@settings(max_examples=60, deadline=None)
@given(msym_operands())
def test_unchecked_results_pass_validation(operands):
    # every result built without key checks equals its copy rebuilt by
    # the validating constructor: valid keys, no zero coefficients
    a, b, c = operands
    n = a.n
    ea, eb = a.to_expanded(), b.to_expanded()
    results = [-a, a + b, a - b, a.scale(c), ea.to_msym(), ea, -ea, ea + eb,
               ea - eb, ea.scale(c), ea * eb, ea.partial(n), ea.mul_var(1, 2),
               ea.swap(1, n), expanded_coincident(ea, n)]
    results += [a.restrict_last(j) for j in range(4)]
    # the m-basis images, where terms of different m_lam meet and cancel
    results += [op(q, m) for q in (a - b, a) for op, m in
                [(apply_p, 1), (apply_p, 2), (apply_l, -1), (apply_l, 0),
                 (apply_l, 1), (apply_l, 2)]]
    results += [apply_w(q, t, m, BETA) for q in (a - b, a)
                for t, m in [(2, -1), (2, 0), (2, 1), (3, 0)]]
    # l_-1 (2 m_11 - m_2) = 0, and m_21 cancels in p_1 (m_2 - m_11)
    cancel = [apply_l(MSymPoly(2, {(1, 1): 2, (2,): -1}), -1),
              apply_p(MSymPoly(2, {(2,): 1, (1, 1): -1}), 1)]
    assert cancel == [MSymPoly(2), MSymPoly(2, {(3,): 1})]
    results += cancel
    # sum_j>1 delta_1j is 0 on a symmetric input
    assert position_nabla(substitute_coincident(a - b, 1), 1, 0).is_zero()
    results += list(a.homogeneous_components().values())
    results += list(ea.homogeneous_components().values())
    if n > 1:
        results.append(ea.divided_difference(1, n))
    for r in results:
        assert type(r)(r.n, r.terms).terms == r.terms


def test_serialization_roundtrip():
    rng = random.Random(41)
    for _ in range(10):
        q = rand_symmetric(rng, 3, 4)
        assert MSymPoly.from_obj(q.to_obj()) == q
        e = q.to_expanded()
        assert ExpandedPoly.from_obj(e.to_obj()) == e
    q = MSymPoly(2, {(1,): BetaRatFunc(BETA, BETA + 1)})
    assert MSymPoly.from_obj(q.to_obj()) == q
    for cls, n in [(MSymPoly, "2"), (ExpandedPoly, "2"), (MSymPoly, -1),
                   (ExpandedPoly, 2.0)]:
        obj = dict(cls.zero(2).to_obj(), n=n)
        with pytest.raises(ValueError, match="bad variable count"):
            cls.from_obj(obj)
