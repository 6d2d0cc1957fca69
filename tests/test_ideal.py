"""Basis construction, membership reduction, transition coefficients, the
wheel kernel, and the structural verification suites."""

import json
import os
import random
import sys
import threading
from fractions import Fraction

import pytest

import jackideal.basis
import jackideal.jack
from emit_oracle import specialized_to_obj
from jackideal.basis import DegreeOverflow
from jackideal.expanded import ExpandedPoly
from jackideal.ideal import (bareiss_rank, build_basis, closure_tags,
                             reduce_membership, verify_closure, verify_phi3,
                             verify_restriction, verify_wheel,
                             wheel_dimension)
from jackideal.identities import (_combine, clearing_zero_order,
                                  lassalle_down, lassalle_up,
                                  pieri_coefficient, verify_lassalle,
                                  verify_pieri, verify_regularity)
from jackideal.jack import JackCache, SpecializedJack, specialize
from jackideal.operators import apply_p
from jackideal.partitions import partitions_leq
from jackideal.ratfunc import BETA, BetaPoly, BetaRatFunc
from jackideal.report import Report
from jackideal.symbolic import jack_symbolic
from jackideal.sympoly import MSymPoly


def certificate_holds(P, basis, cert):
    """Recombine a membership certificate and compare with P exactly."""
    return cert.member and _combine(basis, cert.combination) == P


def test_build_basis_character():
    basis = build_basis(1, 2, 2, 5)
    assert basis.character() == [0, 0, 1, 1, 2, 2]
    assert basis.by_degree(4) == ((4,), (3, 1))
    assert basis.get((3, 1)).poly.terms[(3, 1)] == 1
    assert len(basis) == 6


def test_basis_elements_reduce_to_themselves():
    basis = build_basis(1, 2, 2, 6)
    for sp in basis:
        cert = reduce_membership(sp.poly, basis)
        assert cert.member
        assert cert.combination == {sp.lam: Fraction(1)}


def test_membership_example():
    # p_1 P_(2) at beta(1,2) equals P_(3) exactly
    basis = build_basis(1, 2, 2, 4)
    prod = apply_p(basis.get((2,)).poly, 1)
    cert = reduce_membership(prod, basis)
    assert cert.member and cert.combination == {(3,): Fraction(1)}
    assert certificate_holds(prod, basis, cert)


def test_membership_obstruction():
    basis = build_basis(1, 2, 2, 4)
    q = MSymPoly(2, {(1, 1): 1})
    cert = reduce_membership(q, basis)
    assert not cert.member and cert.obstruction == (1, 1)
    assert basis.obstruction(q) == (1, 1)
    # a mixed sum still pins the dominance-maximal culprit
    q = basis.get((2,)).poly + MSymPoly(2, {(2, 2): 3})
    cert = reduce_membership(q, basis)
    assert not cert.member and cert.obstruction == (2, 2)
    assert basis.obstruction(q) == (2, 2)
    assert basis.obstruction(basis.get((2,)).poly) is None


def test_membership_degree_overflow():
    basis = build_basis(1, 2, 2, 3)
    with pytest.raises(DegreeOverflow):
        reduce_membership(MSymPoly(2, {(4,): 1}), basis)
    with pytest.raises(DegreeOverflow):
        basis.obstruction(MSymPoly(2, {(4,): 1}))
    with pytest.raises(ValueError):
        basis.obstruction(MSymPoly(3, {(2,): 1}))
    with pytest.raises(TypeError):
        reduce_membership(MSymPoly(2, {(2,): BETA}), basis)


def test_basis_to_dir_files(tmp_path):
    # one degree_NN.json per degree 0..dmax, its elements in basis order
    basis = build_basis(1, 2, 2, 4)
    basis.to_dir(str(tmp_path))
    names = ["degree_%02d.json" % d for d in range(5)]
    assert sorted(os.listdir(str(tmp_path))) == names
    for d, name in enumerate(names):
        with open(str(tmp_path / name)) as fh:
            obj = json.load(fh)
        assert obj == {"k": 1, "r": 2, "n": 2, "degree": d,
                       "elements": [specialized_to_obj(basis.get(lam))
                                    for lam in basis.by_degree(d)]}
    assert len(obj["elements"]) == 2


def test_pieri_coefficient_oracles():
    # psi' for (1,1)/(1): 2/(1+beta)
    assert pieri_coefficient((1,), 2) == BetaRatFunc(2, BETA + 1)
    # adding in row 1 is always coefficient 1 (empty products)
    assert pieri_coefficient((3, 1), 1) == 1
    assert pieri_coefficient((), 1) == 1
    # (2,1)/(2): ((0)b + 2)((2)b + 1) / ((1)b + 1)((1)b + 2)
    want = BetaRatFunc(2 * (2 * BETA + 1) * BetaPoly((1,)),
                       (BETA + 1) * (BETA + 2))
    assert pieri_coefficient((2,), 2) == want


def test_symbolic_pieri_identity_small():
    # without a coupling the suite runs its symbolic half alone
    rep = verify_pieri(3, 5)
    assert rep.all_pass()
    assert rep.params["symbolic"] is True
    assert all(c["id"].startswith("symbolic") for c in rep.cases)


def test_lassalle_coefficient_oracles():
    # raising: psi'' = psi' * (-(j-1) beta + mu_j); row 2 of (1) has mu_2 = 0
    assert lassalle_up((1,), 2) == BetaRatFunc(-2 * BETA, BETA + 1)
    assert lassalle_up((2,), 1) == 2
    # lowering: first-row node from (1) in n variables gives n
    for n in (1, 2, 3, 4):
        assert lassalle_down((1,), 1, n) == n
    # (2)/(1) in n = 2 collapses to 2 (2b + 1)/(b + 1)
    assert lassalle_down((2,), 1, 2) == BetaRatFunc(
        2 * (2 * BETA + 1), BETA + 1)


def test_symbolic_lassalle_identity_small():
    rep = verify_lassalle(3, 5)
    assert rep.all_pass()
    assert rep.params["symbolic"] is True
    assert all(c["id"].startswith("symbolic") for c in rep.cases)


@pytest.mark.parametrize("builder, suite, case", [
    ("_pieri_factors", verify_pieri, "symbolic:[2, 1]"),
    ("_lassalle_down_factors", verify_lassalle, "symbolic-down:[2, 1]"),
])
def test_symbolic_check_catches_perturbed_numerator(monkeypatch, builder,
                                                    suite, case):
    # the cross-multiplied check in Z[beta] is not vacuous: one numerator
    # raised by 1 fails exactly the case whose expansion uses it
    import jackideal.identities as identities
    exact = getattr(identities, builder)

    def perturbed(mu, row, *rest):
        num, den = exact(mu, row, *rest)
        return (num + 1 if (mu, row) == ((2, 1), 1) else num), den

    monkeypatch.setattr(identities, builder, perturbed)
    rep = suite(3, 5)
    assert [c["id"] for c in rep.failures()] == [case]


@pytest.mark.parametrize("builder, suite, move, cases", [
    ("_pieri_factors", verify_pieri, ((2,), 2), ["vanish:[2]->[2, 1]"]),
    ("_lassalle_up_factors", verify_lassalle, ((2,), 2),
     ["up-vanish:[2]->[2, 1]"]),
    ("_lassalle_down_factors", verify_lassalle, ((2,), 1, 2),
     ["down-vanish:[2]->[1]"]),
    ("_pieri_factors", verify_pieri, ((2,), 1), ["regular:[2]->[3]"]),
    ("_lassalle_up_factors", verify_lassalle, ((2,), 1),
     ["up-regular:[2]->[3]", "specialized-up:[2]"]),
    ("_lassalle_down_factors", verify_lassalle, ((3,), 1, 2),
     ["down-regular:[3]->[2]", "specialized-down:[3]"]),
])
def test_specialized_check_catches_perturbed_denominator(monkeypatch, builder,
                                                         suite, move, cases):
    # an extra factor 2 beta + 1 in one denominator cancels the zero at
    # beta(1, 2) = -1/2 toward a non-admissible neighbour, or makes a pole
    # toward an admissible one: that neighbour's case fails, Pieri skips
    # the identity and membership of its mu, and Lassalle's identity,
    # which the pole drops out of, fails too
    import jackideal.identities as identities
    exact = getattr(identities, builder)

    def perturbed(*args):
        num, den = exact(*args)
        return num, (den * BetaPoly((1, 2)) if args == move else den)

    monkeypatch.setattr(identities, builder, perturbed)
    rep = suite(2, 6, 1, 2)
    assert [c["id"] for c in rep.failures()] == cases


def test_pieri_and_lassalle_build_no_ratfunc(monkeypatch):
    # both halves of both suites, and JackPoly.at where den vanishes, read
    # integer numerators and denominators: no Q(beta) value and so no gcd
    # is ever formed
    calls = []
    init = BetaRatFunc.__init__

    def counting(self, *args):
        calls.append(args)
        init(self, *args)

    monkeypatch.setattr(BetaRatFunc, "__init__", counting)
    assert verify_pieri(4, 7).all_pass()
    assert verify_lassalle(4, 7).all_pass()
    assert verify_pieri(4, 10, 2, 3).all_pass()
    assert verify_lassalle(4, 10, 2, 3).all_pass()
    jp = jack_symbolic((2, 2), 3)
    assert jp.den(Fraction(-1, 2)) == 0   # at takes its pole branch
    jp.at(Fraction(-1, 2))
    assert calls == []


def test_specialized_pieri_and_lassalle():
    # with a coupling each suite runs its half at beta(k, r) alone
    for (k, r, n) in [(1, 2, 2), (2, 3, 3), (2, 2, 2)]:
        rp = verify_pieri(n, 6, k, r)
        assert rp.all_pass(), rp.failures()[:2]
        assert rp.params["symbolic"] is False
        rl = verify_lassalle(n, 6, k, r)
        assert rl.all_pass(), rl.failures()[:2]
        assert rl.params["symbolic"] is False
        for rep in (rp, rl):
            assert rep.cases
            assert not any(c["id"].startswith("symbolic") for c in rep.cases)


def test_pieri_vanishing_factor_example():
    # mu = (2), k = 1, r = 2: adding in row 2 gives non-admissible (2,1)
    # and psi' carries (k+1) b + r - 1 = 2b + 1
    psi = pieri_coefficient((2,), 2)
    assert psi.pole_order(Fraction(-1, 2)) == -1    # simple zero
    assert psi(Fraction(-1, 2)) == 0


def test_lassalle_down_boundary_mechanism():
    # mu = (2), k = 1, r = 2, n = 2: removing the node violates the window
    # against the padded zero row; the prefactor 2b + 1 carries the zero
    c = lassalle_down((2,), 1, 2)
    assert c(Fraction(-1, 2)) == 0
    assert c.pole_order(Fraction(-1, 2)) == -1


def test_bareiss_rank_matches_fraction_elimination():
    def frac_rank(mat):
        mat = [[Fraction(x) for x in row] for row in mat]
        rank = 0
        for c in range(len(mat[0]) if mat else 0):
            piv = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
            if piv is None:
                continue
            mat[rank], mat[piv] = mat[piv], mat[rank]
            for i in range(rank + 1, len(mat)):
                if mat[i][c]:
                    f = mat[i][c] / mat[rank][c]
                    mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
            rank += 1
        return rank

    rng = random.Random(77)
    for _ in range(60):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        mat = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
        if rng.random() < 0.4 and nr > 1:
            mat[-1] = [2 * x for x in mat[0]]    # force rank deficiency
        rows = [dict(enumerate(row)) for row in mat]
        assert bareiss_rank(rows) == frac_rank(mat)
    assert bareiss_rank([]) == 0
    assert bareiss_rank([dict(enumerate([0, 0]))]) == 0


def test_wheel_dimension_oracles():
    # k = 1, n = 2: dimensions of symmetric polys vanishing at x1 = x2
    assert [wheel_dimension(1, 2, d) for d in range(5)] == [0, 0, 1, 1, 2]
    # vacuous condition: everything survives
    assert wheel_dimension(2, 2, 3) == len(partitions_leq(3, 2))
    # k = 2, n = 3 at degree 3: only the squared Vandermonde-free... the
    # count matches the admissible family with r = 2
    fam_dims = [wheel_dimension(2, 3, d) for d in range(7)]
    basis = build_basis(2, 2, 3, 6)
    assert fam_dims == [len(basis.by_degree(d)) for d in range(7)]


def test_wheel_suite():
    rep = verify_wheel(1, 3, 7)
    assert rep.all_pass()
    rep = verify_wheel(2, 2, 5)      # vacuous branch
    assert rep.all_pass()
    assert any(c["id"] == "vanish:vacuous" for c in rep.cases)


def test_closure_suite_small():
    rep = verify_closure(1, 2, 2, 6, mmax=3, tmax=3)
    assert rep.all_pass()
    # every reachable (tag, element) pair shows up
    ids = {c["id"] for c in rep.cases}
    assert "p(1)@[2]" in ids and "w3(-2)@[2]" in ids
    # without p (mmax < 1) or w (tmax < 2) the suite would pass vacuously
    for mmax, tmax in ((0, 3), (3, 1)):
        with pytest.raises(ValueError):
            verify_closure(1, 2, 2, 6, mmax=mmax, tmax=tmax)


def test_closure_tags_order():
    tags = closure_tags(2, 3)
    names = [str(t) for t in tags]
    assert names == ["p(1)", "p(2)", "l(-1)", "l(0)", "l(1)", "l(2)",
                     "w2(-1)", "w2(0)", "w2(1)", "w2(2)",
                     "w3(-2)", "w3(-1)", "w3(0)", "w3(1)", "w3(2)"]


def expanded_restriction(P, j):
    """(d/dx_n)^j and x_n = 0 on the expansion of P, collected with the
    full orbit check: the m-basis restrict_last must agree with it."""
    Q = P.to_expanded()
    for _ in range(j):
        Q = Q.partial(P.n)
    low = {e[:-1]: c for e, c in Q.terms.items() if e[-1] == 0}
    return ExpandedPoly(P.n - 1, low).to_msym()


def test_restrict_last_matches_expanded_route():
    cases = 0
    for k, r, n, dmax in [(1, 2, 3, 10), (2, 2, 4, 10), (1, 4, 3, 12),
                          (2, 3, 4, 9)]:
        for sp in build_basis(k, r, n, dmax):
            for j in range(4):
                assert sp.poly.restrict_last(j) == \
                    expanded_restriction(sp.poly, j), (k, r, n, sp.lam, j)
                cases += 1
    assert cases == 236


def test_restriction_suite_small():
    rep = verify_restriction(1, 2, 3, 8, jmax=2)
    assert rep.all_pass()
    with pytest.raises(Exception):
        verify_restriction(1, 2, 1, 4)
    with pytest.raises(ValueError):
        verify_restriction(1, 2, 3, 8, jmax=-1)


def restriction_by_reduce(k, r, n, dmax, jmax=2, cache=None):
    """verify_restriction with each verdict read by reduce_membership."""
    rep = Report("restriction", {"k": k, "r": r, "n": n, "dmax": dmax,
                                 "jmax": jmax})
    basis_n = build_basis(k, r, n, dmax, cache)
    basis_m = build_basis(k, r, n - 1, dmax, cache)
    for lam in basis_n.family.all_partitions():
        for j in range(jmax + 1):
            cert = reduce_membership(basis_n.get(lam).num.restrict_last(j),
                                     basis_m)
            rep.add("restrict[j=%d]@%s" % (j, list(lam)), cert.member,
                    **({} if cert.member
                       else {"obstruction": list(cert.obstruction)}))
    return rep


@pytest.mark.parametrize("grid, lam", [((2, 2, 4, 10), (2, 2)),
                                       ((1, 2, 3, 10), (5, 1)),
                                       ((2, 3, 4, 10), (3, 2))])
def test_restriction_with_a_non_member_matches_reduce(monkeypatch, grid,
                                                      lam):
    """With the element lam of the basis at n - 1 swapped for its bare m_lam
    (same leading term), some restriction images leave the span: the
    verdicts and obstructions read off the normal-form table equal
    reduce_membership's, case by case."""
    k, r, n, dmax = grid
    real = jackideal.basis.jack_at_key

    def one_bare_monomial(mu, nn, beta0, cache):
        sp = real(mu, nn, beta0, cache)
        if (sp.lam, nn) != (lam, n - 1):
            return sp
        return SpecializedJack(mu, nn, sp.beta0, 1,
                               MSymPoly(nn, {lam: 1}))
    monkeypatch.setattr(jackideal.basis, "jack_at_key", one_bare_monomial)
    cache = JackCache()
    got = verify_restriction(*grid, cache=cache)
    assert got.to_obj() == restriction_by_reduce(*grid, cache=cache).to_obj()
    assert any(case["status"] == "fail" and "obstruction" in case["detail"]
               for case in got.to_obj()["cases"])


def test_regularity_suite_small():
    rep = verify_regularity(1, 2, 2, 6)
    assert rep.all_pass()
    # the clearing product misses zero-row violations: expected order 0
    assert clearing_zero_order((1,), 1, 2, 2) == 0
    assert clearing_zero_order((2, 1), 1, 2, 2) == 1
    with pytest.raises(ValueError):
        clearing_zero_order((2,), 1, 2, 2)    # admissible


def test_phi3_suite():
    for r in (2, 3, 5, 6):
        rep = verify_phi3(r)
        assert rep.all_pass()
    ids = {c["id"] for c in verify_phi3(5).cases}
    assert ids == {"admissible", "euler", "hamiltonian", "lowering"}


def test_closure_catches_missing_element():
    # shrink a basis by hand: reduction against it must fail for p_1 P_(3)
    basis = build_basis(1, 2, 2, 4)
    del basis.elements[(4,)]
    prod = apply_p(basis.get((3,)).poly, 1)
    cert = reduce_membership(prod, basis)
    assert not cert.member and cert.obstruction == (4,)


def test_normal_forms_read_the_elements():
    # both membership engines see the same shrunken basis: (4,) becomes a
    # column of the degree-4 normal forms, not a row
    cache = JackCache()
    basis = build_basis(1, 2, 2, 4, cache)
    del basis.elements[(4,)]
    cols, pos, rows = basis.normal_forms(4)
    # the positions are those of the table the build solved degree 4 in
    assert pos is cache.table(4, 2)[1]
    assert (4,) in cols and rows[pos[(4,)]] == ((cols.index((4,)), 1),)
    P3, P31 = basis.get((3,)).poly, basis.get((3, 1)).poly
    for P, want in ((apply_p(P3, 1), (4,)), (P31, None), (P31 + P3, None)):
        assert basis.obstruction(P) == want
        assert reduce_membership(P, basis).obstruction == want


def test_specialized_elements_match_direct_specialization():
    basis = build_basis(2, 3, 3, 6)
    for sp in basis:
        direct = specialize(sp.lam, 3, 2, 3)
        assert direct.poly == sp.poly


def test_bases_are_memoized_per_cache():
    """build_basis files its basis in the cache under (k, r, n, dmax): the
    same key on the same cache gives the same object, another dmax or
    another cache a new one, and clear() drops it."""
    cache, other = JackCache(), JackCache()
    basis = build_basis(2, 3, 4, 10, cache)
    assert build_basis(2, 3, 4, 10, cache) is basis
    assert build_basis(2, 3, 4, 11, cache) is not basis
    assert build_basis(2, 3, 4, 10, other) is not basis
    assert build_basis(2, 3, 4, 10) is not basis
    cache.clear()
    fresh = build_basis(2, 3, 4, 10, cache)
    assert fresh is not basis
    assert fresh.elements.keys() == basis.elements.keys()


def test_racing_builds_return_one_basis():
    """Threads that build one key on one cache at once all get the basis
    filed first, and the cache holds that one."""
    cache, got = JackCache(), []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: got.append(
            build_basis(2, 2, 4, 10, cache))) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads) and len(got) == 6
    assert all(b is got[0] for b in got)
    assert build_basis(2, 2, 4, 10, cache) is got[0]


@pytest.mark.parametrize("suite, grid", [(verify_restriction, (2, 2, 5, 12)),
                                         (verify_closure, (1, 2, 3, 12))])
def test_warm_rerun_builds_no_table(monkeypatch, suite, grid):
    """A rerun on a warm cache reads the bases and normal-form tables the
    first run filed: it specializes no Jack and enumerates no degree for a
    normal-form table, and its report is the same."""
    cache = JackCache()
    first = suite(*grid, cache=cache)

    def refuse(*args, **kwargs):
        raise AssertionError("rebuilt on a warm cache")
    monkeypatch.setattr(jackideal.basis, "jack_at_key", refuse)
    monkeypatch.setattr(jackideal.jack, "partitions_leq", refuse)
    assert suite(*grid, cache=cache).to_obj() == first.to_obj()
