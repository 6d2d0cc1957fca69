"""The symbolic Jack solver, its eigen-verification, denominator clearing,
specialization, and the principal (all-ones) evaluation."""

import importlib
import json
import os
import pkgutil
import random
from fractions import Fraction

import pytest

import jackideal
from emit_oracle import specialized_to_obj
from jackideal import jack
from jackideal.jack import (JackCache, SpecializationPole, jack_at,
                            specialize)
from jackideal.identities import (verify_eigensystem, verify_hamiltonian,
                                  verify_sekiguchi)
from jackideal.partitions import beta_value, dominated_by, partitions_leq
from jackideal.ratfunc import BETA, BetaPoly, BetaRatFunc
from jackideal.symbolic import (JackPoly, c_lambda, evaluate_all_ones,
                                jack_symbolic, pole_profile,
                                principal_specialization)
from jackideal.sympoly import MSymPoly


def test_known_coefficients_n2():
    # hand triangular solve: P_(2) = m_(2) + (2b/(1+b)) m_(1,1)
    jp = jack_symbolic((2,), 2)
    assert jp.coefficient((2,)) == 1
    assert jp.coefficient((1, 1)) == BetaRatFunc(2 * BETA, BETA + 1)
    # P_(3) = m_(3) + (3b/(2+b)) m_(2,1)
    jp = jack_symbolic((3,), 2)
    assert jp.coefficient((2, 1)) == BetaRatFunc(3 * BETA, BETA + 2)


def test_known_coefficients_n3():
    # P_(2,1) = m_(2,1) + (6b/(1+2b)) m_(1,1,1)
    jp = jack_symbolic((2, 1), 3)
    assert jp.coefficient((1, 1, 1)) == BetaRatFunc(6 * BETA, 2 * BETA + 1)


def test_unitriangular_support():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(1, 4)
        d = rng.randint(1, 7)
        lam = rng.choice(partitions_leq(d, n))
        jp = jack_symbolic(lam, n)
        assert jp.coefficient(lam) == 1
        assert all(dominated_by(mu, lam) for mu in jp.coeffs)


def test_eigen_equations_sample():
    for lam, n in [((1,), 1), ((3,), 2), ((2, 2), 2), ((2, 1, 1), 3),
                   ((3, 2), 4)]:
        assert verify_hamiltonian(lam, n)
        assert verify_sekiguchi(lam, n)


def test_eigensystem_suite():
    rep = verify_eigensystem(2, 4)
    assert rep.all_pass()
    assert any(c["id"] == "sekiguchi:[2, 2]" for c in rep.cases)


def test_cleared_coefficients_are_polynomials():
    # c_lam clears every denominator at small scale
    for n in (2, 3):
        for d in range(7):
            for lam in partitions_leq(d, n):
                jp = jack_symbolic(lam, n)
                c = c_lambda(lam)
                for u in jp.coeffs.values():
                    assert (c % u.den).is_zero()


def test_cleared_returns_integer_polynomials():
    jp = jack_symbolic((3, 1), 3)
    D, nums = jp.cleared()
    for mu, q in nums.items():
        assert all(isinstance(c, int) for c in q.coeffs)
        assert BetaRatFunc(q, D) == jp.coefficient(mu)


def test_stability_under_restriction():
    # P_lam(x_1..x_{n-1}, 0) = P_lam(x_1..x_{n-1}) when the length allows
    for lam, n in [((2,), 3), ((2, 1), 3), ((3, 1), 4)]:
        big = jack_symbolic(lam, n).msym().restrict_last()
        small = jack_symbolic(lam, n - 1).msym()
        assert big == small


def test_specialize_examples():
    sp = specialize((2,), 2, 1, 2)
    assert sp.beta0 == Fraction(-1, 2)
    assert sp.poly == MSymPoly(2, {(2,): 1, (1, 1): -2})
    sp = specialize((3,), 2, 1, 2)
    assert sp.poly == MSymPoly(2, {(3,): 1, (2, 1): -1})


def test_specialize_pole_raises():
    # eps_(2,2) and eps_(1^4) collide at beta = -1/2 in n = 4 and the
    # coefficient really does blow up there ((2,2) is far from admissible)
    jp = jack_symbolic((2, 2), 4)
    assert jp.coefficient((1, 1, 1, 1)).pole_order(Fraction(-1, 2)) == 1
    with pytest.raises(SpecializationPole) as ei:
        specialize((2, 2), 4, 1, 2)
    assert ei.value.order == 1 and ei.value.mu == (1, 1, 1, 1)


# criterion 6's (k, r), and two pairs where more Jacks fall back
POINT_PAIRS = ((1, 2), (2, 2), (2, 3), (3, 2), (2, 5), (4, 3), (4, 5))


def _at_point_or_pole(solve):
    """("value", den, num's terms in order) of solve().cleared(), or
    ("pole", lam, mu, order) of the pole it raises."""
    try:
        den, num = solve().cleared()
    except SpecializationPole as exc:
        return "pole", exc.lam, exc.mu, exc.order
    return "value", den, list(num.terms.items())


def _route_matches_symbolic(nmax, dmax, points, route):
    """route(lam, n, b0, cache).cleared() equals the symbolic Jack at b0,
    cleared, term order included, or raises the same pole, for every lam
    with |lam| <= dmax, n <= nmax and b0 in points; where a lam with n
    nonzero parts is read off its base, where the point walk solves, where
    it stops on a regular value and where it stops on a pole all occur."""
    cache = JackCache()
    paths = {"shift": 0, "point": 0, "regular": 0, "pole": 0}
    for n in range(1, nmax + 1):
        for d in range(dmax + 1):
            for lam in partitions_leq(d, n):
                for b0 in points:
                    want = _at_point_or_pole(
                        lambda: jack_symbolic(lam, n, cache).at(b0))
                    got = _at_point_or_pole(
                        lambda: route(lam, n, b0, cache))
                    assert got == want, (lam, n, b0)
                    if lam and len(lam) == n:
                        paths["shift"] += 1
                    elif jack._solve_at(lam, n, cache, b0) is not None:
                        paths["point"] += 1
                    else:
                        paths[want[0] if want[0] == "pole" else "regular"] += 1
    assert min(paths.values()) > 0, paths


def test_specialize_at_the_point_matches_symbolic():
    kr = {beta_value(k, r): (k, r) for k, r in POINT_PAIRS}
    _route_matches_symbolic(4, 10, kr, lambda lam, n, b0, cache: specialize(
        lam, n, *kr[b0], cache).poly)


# zero, +-1 and points with poles or vanishing gaps at small n
RATIONAL_POINTS = tuple(map(Fraction, (
    "0", "1", "-1", "1/2", "-1/2", "-2/3", "3/5", "-5/7", "2", "-3")))

# POINT_PAIRS' beta(k, r), plus points where more full-length Jacks stop
SHIFT_POINTS = sorted({beta_value(k, r) for k, r in POINT_PAIRS}
                      | set(map(Fraction, ("-1/3", "-1/2", "-2/5", "3/2"))))


def test_jack_at_matches_symbolic():
    _route_matches_symbolic(5, 8, RATIONAL_POINTS, jack_at)


def test_jack_at_is_the_symbolic_jack_cleared():
    # the integral form (den, num) of every route, walk, shift and
    # fallback, against jack_symbolic(...).at(b0).cleared()
    _route_matches_symbolic(5, 10, SHIFT_POINTS, jack_at)


def test_specialize_is_jack_at_beta_k_r():
    cache = JackCache()
    for k, r in POINT_PAIRS:
        for lam, n in (((3, 1), 3), ((4, 2, 1), 3), ((2, 1), 2)):
            sp = specialize(lam, n, k, r, cache)
            assert sp is jack_at(lam, n, beta_value(k, r), cache)
            assert (sp.k, sp.r, sp.beta0) == (k, r, beta_value(k, r))


@pytest.mark.parametrize("grid, puts", [((1, 2, 3, 18), 102),
                                        ((8, 2, 9, 8), 58)])
def test_cold_build_files_one_jack_per_element(grid, puts):
    from jackideal.ideal import build_basis
    cache = JackCache()
    filed = []
    put = cache.put
    cache.put = lambda jp, *args: filed.append(jp) or put(jp, *args)
    basis = build_basis(*grid, cache)
    assert len(filed) == len(basis) == puts
    build_basis(*grid, cache)
    assert len(filed) == puts


def test_jack_at_checks_the_leading_term(monkeypatch):
    # a point solve that loses lam's own term must raise, not reach the
    # membership sweep, which clears lam by num[lam] = den
    solve_at = jack._solve_at

    def dropped(lam, n, cache, beta0):
        den, num = solve_at(lam, n, cache, beta0)
        del num.terms[lam]
        return den, num
    monkeypatch.setattr(jack, "_solve_at", dropped)
    with pytest.raises(AssertionError, match="num\\[lam\\] != den"):
        jack_at((3, 1), 3, Fraction(3, 2))
    # (2,1,1) is read off its base (1), which the point walk solves
    with pytest.raises(AssertionError):
        jack_at((2, 1, 1), 3, Fraction(-1, 3))


@pytest.mark.parametrize("b0", [Fraction(1, 2), Fraction(0)])
def test_jack_at_rejects_a_partition_longer_than_n(b0):
    # c_(1,1,1) vanishes at 0, so there the fallback meets the long lam
    with pytest.raises(ValueError, match="longer than n=2"):
        jack_at([1, 1, 1], 2, b0)


def test_full_length_jacks_match_their_own_walk_and_symbolic():
    # jack_at reads a lam with n nonzero parts off lam - (lam_n^n); it must
    # equal the walk on lam itself where that solves, and the symbolic
    # Jack at b0 everywhere, term order and pole (lam, mu, order) included
    cache = JackCache()
    seen = {"own c_lam vanishes": 0, "pole through the base": 0}
    for n in range(1, 6):
        for d in range(n, 13):
            for lam in partitions_leq(d, n):
                if len(lam) < n:
                    continue
                base = tuple(x - lam[-1] for x in lam if x > lam[-1])
                for b0 in SHIFT_POINTS:
                    got = _at_point_or_pole(
                        lambda: jack_at(lam, n, b0, cache))
                    want = _at_point_or_pole(
                        lambda: jack_symbolic(lam, n, cache).at(b0))
                    assert got == want, (lam, n, b0)
                    own = jack._solve_at(lam, n, cache, b0)
                    if own is not None:
                        assert ("value", own[0],
                                list(own[1].terms.items())) == got
                    if not c_lambda(lam)(b0) and c_lambda(base)(b0):
                        seen["own c_lam vanishes"] += 1
                    if got[0] == "pole":
                        seen["pole through the base"] += 1
    assert min(seen.values()) > 0, seen


def test_rectangles_and_the_empty_partition():
    # P_(c^n) = e_n^c is the single term m_(c^n) at every beta, and P_()
    # is 1 in any number of variables
    for b0 in SHIFT_POINTS:
        for n in range(7):
            assert jack_at((), n, b0).cleared() == (1, MSymPoly(n, {(): 1}))
            for c in range(1, 5) if n else ():
                got = jack_at((c,) * n, n, b0, JackCache())
                assert got.poly.terms == {(c,) * n: 1}, (c, n, b0)


def test_point_solve_visits_rows_of_vanishing_coefficients():
    # at beta(2, 3) = -2/3, N_(2,1,1,1) of P_(4,1) vanishes and so does the
    # gap of (1^5), which only its row reaches: the point solve must meet
    # that gap and fall back, not drop the m_(1^5) term
    lam, n, k, r = (4, 1), 5, 2, 3
    b0 = beta_value(k, r)
    assert jack_symbolic(lam, n).nums[(2, 1, 1, 1)](b0) == 0
    assert jack._solve_at(lam, n, JackCache(), b0) is None
    got = specialize(lam, n, k, r).poly
    assert got == jack_symbolic(lam, n).at(b0)
    assert got.terms[(1, 1, 1, 1, 1)] == -48


@pytest.mark.parametrize("lam, n, k, r", [
    ((2, 1), 2, 1, 2),     # c_(2,1) vanishes at -1/2
    ((4, 2, 1), 4, 4, 5),  # admissible, and a gap vanishes at -4/5
])
def test_point_solve_falls_back_to_a_regular_value(lam, n, k, r):
    b0 = beta_value(k, r)
    assert jack._solve_at(lam, n, JackCache(), b0) is None
    assert specialize(lam, n, k, r).poly == jack_symbolic(lam, n).at(b0)


def test_point_solve_falls_back_to_the_pole():
    b0 = beta_value(1, 2)
    assert jack._solve_at((2, 2), 4, JackCache(), b0) is None
    with pytest.raises(SpecializationPole) as ei:
        specialize((2, 2), 4, 1, 2)
    with pytest.raises(SpecializationPole) as want:
        jack_symbolic((2, 2), 4).at(b0)
    assert (ei.value.lam, ei.value.mu, ei.value.order) == \
        (want.value.lam, want.value.mu, want.value.order) == \
        ((2, 2), (1, 1, 1, 1), 1)


def test_at_removable_singularity():
    # c_lam vanishes at beta = 0 for every nonempty lam, yet P_lam -> m_lam
    for lam, n in [((2,), 2), ((3, 1), 3), ((2, 2, 1), 4)]:
        jp = jack_symbolic(lam, n)
        assert jp.den(Fraction(0)) == 0
        assert jp.at(Fraction(0)) == MSymPoly(n, {lam: 1})


def test_pole_profile():
    assert pole_profile((2,), 2, Fraction(-1, 2)) == 0
    assert pole_profile((2,), 2, Fraction(-1)) == 1
    assert pole_profile((4, 2), 3, Fraction(-1, 2)) == 0


def test_principal_specialization_matches_all_ones():
    for n in (1, 2, 3):
        for d in range(6):
            for lam in partitions_leq(d, n):
                assert principal_specialization(lam, n) == \
                    evaluate_all_ones(lam, n)
    # frozen value
    assert principal_specialization((2,), 2) == BetaRatFunc(
        BetaPoly((2, 4)), BetaPoly((1, 1)))


def test_principal_specialization_vanishes_at_clustering_point():
    # admissible lam with n = k+1: the numerator carries the zero
    for (k, r, lam) in [(1, 2, (2,)), (1, 2, (3, 1)), (2, 3, (3, 3))]:
        n = k + 1
        from jackideal.partitions import beta_value, is_admissible
        assert is_admissible(lam, k, r, n)
        v = principal_specialization(lam, n)
        po = v.pole_order(beta_value(k, r))
        assert po is not None and po < 0


def test_jackpoly_serialization():
    jp = jack_symbolic((2, 1), 3)
    back = JackPoly.from_obj(jp.to_obj())
    assert back.lam == (2, 1) and back.n == 3
    assert back.coeffs == jp.coeffs
    sp = specialize((2,), 2, 1, 2)
    obj = specialized_to_obj(sp)
    assert (obj["k"], obj["r"], obj["beta"]) == (1, 2, {"num": -1, "den": 2})
    assert MSymPoly.from_obj(obj) == sp.poly


def test_cache_memory_and_disk(tmp_path):
    cache = JackCache(str(tmp_path))
    jp = jack_symbolic((2, 1), 3, cache)
    assert cache.get((2, 1), 3) is not None
    assert os.listdir(str(tmp_path))
    # a fresh cache over the same directory reloads without solving
    cache2 = JackCache(str(tmp_path))
    hit = cache2.get((2, 1), 3)
    assert hit is not None and hit.coeffs == jp.coeffs
    cache2.clear()
    assert cache2.get((2, 1), 3) is None


def test_cache_rewrites_unreadable_and_old_format_files(tmp_path):
    good = json.dumps(jack_symbolic((2, 1), 3).to_obj())
    planted = {
        (2, 1): ("jack_n3_2-1.json", good[:len(good) // 2]),
        # the unversioned m-basis shape earlier releases wrote
        (3,): ("jack_n3_3.json",
               json.dumps(jack_symbolic((3,), 3).msym().to_obj())),
    }
    cache = JackCache(str(tmp_path))
    for lam, (name, text) in planted.items():
        (tmp_path / name).write_text(text)
        assert cache.get(lam, 3) is None
        jack_symbolic(lam, 3, cache)
        assert json.loads((tmp_path / name).read_text())["version"] == 2
    fresh = JackCache(str(tmp_path))
    for lam in planted:
        hit = fresh.get(lam, 3)
        assert hit is not None and hit.coeffs == jack_symbolic(lam, 3).coeffs


def test_package_keeps_no_process_wide_memo():
    # every memo lives in a JackCache that the caller holds
    for info in pkgutil.walk_packages(jackideal.__path__, "jackideal."):
        mod = importlib.import_module(info.name)
        for name, value in vars(mod).items():
            assert not hasattr(value, "cache_info"), (info.name, name)
            assert not isinstance(value, JackCache), (info.name, name)


def test_rows_are_memoized_per_cache(monkeypatch):
    """Each cache fills a row once, by either route of jack._row (built by
    jack.hamiltonian_matrix_row or read off the row of nu - (1^n)), in the
    symbolic walk and in the point walk alike, and clear() forgets the rows
    with the Jacks."""
    from jackideal.ideal import build_basis
    filled, built = [], []
    fill, row = jack._row, jack.hamiltonian_matrix_row

    def counted_fill(cache, table, i, n):
        assert table[2][i] is None
        filled.append((table[0][i], n))
        return fill(cache, table, i, n)

    def counted(mu, n, pos):
        built.append((mu, n))
        return row(mu, n, pos)
    monkeypatch.setattr(jack, "_row", counted_fill)
    monkeypatch.setattr(jack, "hamiltonian_matrix_row", counted)
    lams = partitions_leq(6, 4)
    assert len(lams) == 9

    def solve_all(cache):
        filled.clear()
        built.clear()
        for lam in lams:
            jack_symbolic(lam, 4, cache)
        # no row of degree 2 is filled: every row here is built
        assert sorted(built) == sorted(filled)
        return sorted(filled)

    def build(cache):
        filled.clear()
        built.clear()
        build_basis(2, 3, 4, 12, cache)
        assert set(built) < set(filled)
        return sorted(filled)

    want = sorted((lam, 4) for lam in lams)
    cache = JackCache()
    assert solve_all(cache) == want
    assert solve_all(JackCache()) == want
    cache.clear()
    assert solve_all(cache) == want

    cache = JackCache()
    rows = build(cache)
    assert len(rows) > len(want) and len(set(rows)) == len(rows)
    assert build(JackCache()) == rows
    cache.clear()
    assert build(cache) == rows


def test_rows_read_off_nu_minus_one_n_match_the_built_rows(monkeypatch):
    """In table (d, n) the j-th key with n nonzero parts is key j of table
    (d - n, n) plus (1^n), and, for every key of the tables n <= 6,
    d <= 20 filled by degree, the row _row reads off the row of
    nu - (1^n) equals hamiltonian_matrix_row at nu; only the keys with
    fewer than n parts are built."""
    row_of, built = jack.hamiltonian_matrix_row, []

    def counted(mu, n, pos):
        built.append(mu)
        return row_of(mu, n, pos)
    monkeypatch.setattr(jack, "hamiltonian_matrix_row", counted)
    cache, derived = JackCache(), 0
    for n in range(1, 7):
        for d in range(21):
            order, pos, rows, full = table = cache.table(d, n)
            low = cache.table(d - n, n)[0] if d >= n else ()
            assert [order[i] for i in full] == [
                tuple(x + 1 for x in mu) + (1,) * (n - len(mu)) for mu in low]
            for i, nu in enumerate(order):
                built.clear()
                row = jack._row(cache, table, i, n)
                assert rows[i] is row
                assert row == row_of(nu, n, pos), (nu, n)
                assert built == ([] if len(nu) == n else [nu])
                derived += len(nu) == n
    assert derived == sum(len(cache.table(d, n)[3])
                          for n in range(1, 7) for d in range(21))


def test_rows_read_off_a_core_row_are_checked():
    """A wrong entry in the row of nu - (1^n) makes the check of nu's row
    raise, naming nu: an entry off the dominance cone, and a diagonal off
    the closed-form eigenvalue."""
    n, nu = 3, (3, 2, 1)
    for bad in ("cone", "diagonal"):
        cache = JackCache()
        low = cache.table(3, n)
        j = low[1][(2, 1)]
        euler, diag, off = jack._row(cache, low, j, n)
        if bad == "cone":  # position 0 is (3,), which (2, 1) does not dominate
            low[2][j] = euler, diag, off + ((0, 1),)
        else:
            low[2][j] = euler, diag + 1, off
        table = cache.table(6, n)
        with pytest.raises(AssertionError) as err:
            jack._row(cache, table, table[1][nu], n)
        assert str(err.value) == (
            "H m_(3, 2, 1) at n=3 hit (4, 1, 1) outside the dominance cone"
            if bad == "cone" else "diagonal of H at (3, 2, 1) disagrees "
            "with the closed-form eigenvalue")
        assert table[2][table[1][nu]] is None


def test_specializations_are_memoized_per_cache(monkeypatch):
    """A cold build_basis walks only the lam with fewer than n nonzero
    parts (each other lam is read off its base, filed earlier in the
    family), a second build on a warm cache solves no Jack at the point,
    and clear() forgets the specializations with the Jacks."""
    from jackideal.ideal import build_basis
    calls = []
    solve_at = jack._solve_at

    def counted(lam, n, cache, beta0):
        calls.append(lam)
        return solve_at(lam, n, cache, beta0)
    monkeypatch.setattr(jack, "_solve_at", counted)
    cache = JackCache()
    first = build_basis(2, 3, 4, 12, cache)
    walked = [lam for lam in first.elements if len(lam) < 4]
    assert calls == walked and 0 < len(walked) < len(first)
    calls.clear()
    second = build_basis(2, 3, 4, 12, cache)
    assert calls == []
    assert second.elements == first.elements
    lam = max(first.elements)
    assert specialize(lam, 4, 2, 3, cache) is first.get(lam)
    cache.clear()
    assert not cache._at
    build_basis(2, 3, 4, 12, cache)
    assert calls == walked


def test_full_length_jack_is_read_off_its_filed_low():
    """Where P_(lam - (1^n)) is filed, jack_at_key reads P_lam off it by
    table position and keeps its den: a doubled copy of P_(4, 3, 2, 1)
    gives P_(5, 4, 3, 2) doubled, which is, term by term, the
    P_(5, 4, 3, 2) a fresh cache lifts off its base (3, 2, 1) doubled."""
    n, b0 = 4, Fraction(1, 3)
    cache = JackCache()
    low = jack.jack_at_key((4, 3, 2, 1), n, b0, cache)
    cache.put(jack.SpecializedJack(low.lam, n, b0, 2 * low.den, MSymPoly._raw(
        n, {mu: 2 * x for mu, x in low.num.terms.items()})))
    got = jack.jack_at_key((5, 4, 3, 2), n, b0, cache)
    want = jack_at((5, 4, 3, 2), n, b0)
    assert got.den == 2 * want.den
    assert got.num.terms == {mu: 2 * x for mu, x in want.num.terms.items()}


def test_cache_entry_validation():
    obj = jack_symbolic((2, 1), 3).to_obj()
    assert obj["version"] == 2 and obj["den"] == obj["nums"][0]["coeffs"]
    assert JackPoly.from_obj(obj).nums == jack_symbolic((2, 1), 3).nums

    def mutated(**changes):
        bad = json.loads(json.dumps(obj))
        bad.update(changes)
        return bad

    wrong_lead = [{"partition": [2, 1], "coeffs": [1]}] + obj["nums"][1:]
    outside = obj["nums"] + [{"partition": [3], "coeffs": [1]}]
    non_integer = obj["nums"][:1] + [{"partition": [1, 1, 1],
                                      "coeffs": [0.5]}]
    for bad in (mutated(version=1), mutated(lam=[3]), mutated(n=1),
                mutated(den=[1]), mutated(nums=wrong_lead),
                mutated(nums=outside), mutated(nums=non_integer), [obj]):
        with pytest.raises((ValueError, TypeError)):
            JackPoly.from_obj(bad)


def test_msym_view_consistency():
    jp = jack_symbolic((2, 2), 3)
    q = jp.msym()
    assert q.n == 3
    assert q.terms[(2, 2)] == 1
