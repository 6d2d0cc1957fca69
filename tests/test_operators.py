"""Differential and difference operators: Dunkl, Cherednik, Sekiguchi,
the Hamiltonian, and the graded families p, l, w."""

import random
from fractions import Fraction

import pytest

from jackideal.operators import (OperatorTag, apply_cherednik, apply_dunkl,
                                 apply_dunkl_power, apply_hamiltonian,
                                 apply_l, apply_p, apply_sekiguchi, apply_w,
                                 class_table, _l_expanded, _w_expanded,
                                 expanded_power_sum, verify_commutators)
from jackideal.partitions import partitions_leq
from jackideal.ratfunc import BETA, BetaPoly
from jackideal.symbolic import cs_eigenvalue, sekiguchi_eigenvalue
from jackideal.sympoly import ExpandedPoly, MSymPoly

HALF = Fraction(1, 2)


def rand_expanded(rng, n, deg, nterms=4):
    p = ExpandedPoly.zero(n)
    for _ in range(nterms):
        e = tuple(rng.randint(0, deg) for _ in range(n))
        p = p + ExpandedPoly(n, {e: rng.randint(-5, 5)})
    return p


def test_dunkl_on_monomial():
    # nabla_1 x^2 = 2x + beta (x^2 - y^2)/(x - y) = 2x + beta (x + y)
    p = ExpandedPoly(2, {(2, 0): 1})
    got = apply_dunkl(p, 1, BETA)
    want = {(1, 0): BetaPoly((2, 1)), (0, 1): BETA}
    assert got == ExpandedPoly(2, want)
    # and on a symmetric input at a rational coupling
    q = MSymPoly(2, {(1, 1): 1}).to_expanded()
    got = apply_dunkl(q, 1, HALF)
    assert got.terms == {(0, 1): 1}


def test_dunkl_operators_commute_on_samples():
    rng = random.Random(5)
    for _ in range(15):
        n = 3
        p = rand_expanded(rng, n, 3)
        a = apply_dunkl(apply_dunkl(p, 1, BETA), 2, BETA)
        b = apply_dunkl(apply_dunkl(p, 2, BETA), 1, BETA)
        assert a == b


def test_dunkl_power():
    rng = random.Random(6)
    p = rand_expanded(rng, 2, 3)
    assert apply_dunkl_power(p, 1, 2, HALF) == apply_dunkl(
        apply_dunkl(p, 1, HALF), 1, HALF)
    assert apply_dunkl_power(p, 1, 0, HALF) == p


def test_cherednik_alternative_form():
    # x_i nabla_i + beta sum_{j>i} K_ij equals the sweep the solver uses
    rng = random.Random(8)
    for _ in range(12):
        n = rng.randint(2, 3)
        p = rand_expanded(rng, n, 3)
        i = rng.randint(1, n)
        direct = apply_dunkl(p, i, BETA).mul_var(i)
        for j in range(i + 1, n + 1):
            direct = direct + BETA * p.swap(i, j)
        assert apply_cherednik(p, i, BETA) == direct


def test_hamiltonian_m2_row_oracle():
    # H m_(2) = (4 + 2 beta) m_(2) + 4 beta m_(1,1) at n = 2
    q = MSymPoly(2, {(2,): 1})
    got = apply_hamiltonian(q, BETA)
    assert got == MSymPoly(2, {(2,): BetaPoly((4, 2)),
                               (1, 1): BetaPoly((0, 4))})
    # diagonal entries are the CS eigenvalues
    for n in (2, 3):
        for lam in [(1,), (2,), (2, 1)]:
            row = apply_hamiltonian(MSymPoly(n, {lam: 1}), BETA)
            assert row.terms[lam] == cs_eigenvalue(lam, n)


def test_hamiltonian_rejects_asymmetric():
    p = ExpandedPoly(2, {(2, 1): 1})
    with pytest.raises(TypeError):
        apply_hamiltonian(p, BETA)


@pytest.mark.parametrize("call", [
    lambda E: apply_l(E, 1),
    lambda E: apply_p(E, 1),
    lambda E: apply_w(E, 2, 0, HALF),
    lambda E: OperatorTag("l", 0).apply(E, None),
    lambda E: OperatorTag("w", 0, 3).apply(E, HALF),
    lambda E: apply_hamiltonian(E, BETA),
])
def test_symmetric_operators_take_msym_only(call):
    # an operator that preserves symmetry takes an MSymPoly, even when the
    # expanded input is symmetric
    with pytest.raises(TypeError, match="MSymPoly"):
        call(MSymPoly(2, {(2, 1): 1}).to_expanded())


def test_hamiltonian_triangular_in_dominance():
    from jackideal.partitions import dominated_by
    for lam in partitions_leq(5, 3):
        row = apply_hamiltonian(MSymPoly(3, {lam: 1}), BETA)
        assert all(dominated_by(mu, lam) for mu in row.terms)


def test_sekiguchi_on_constants():
    # S(u) 1 = prod_i (u + (n-i) beta) for the empty partition
    one = ExpandedPoly(3, {(0, 0, 0): 1})
    got = apply_sekiguchi(one, BETA)
    want = sekiguchi_eigenvalue((), 3)
    assert [g.terms.get((0, 0, 0), BetaPoly(())) for g in got] == want


def test_l_operators():
    # l_m = sum x_j^{m+1} d_j ; l_0 is the Euler grading operator
    q = MSymPoly(3, {(2, 1): 5})
    assert apply_l(q, 0) == q.scale(3)
    # l_{-1} on m_(1) gives n
    assert apply_l(MSymPoly(3, {(1,): 1}), -1) == MSymPoly(
        3, {(): 3})
    with pytest.raises(ValueError):
        apply_l(q, -2)


def test_l1_against_hand_expansion():
    # l_1 m_(1,1) = m_(2,1) + ... check by direct expansion at n = 2
    q = MSymPoly(2, {(1, 1): 1})
    got = apply_l(q, 1).to_expanded()
    # sum x_j^2 d_j (xy) = x^2 y + x y^2
    assert got.terms == {(2, 1): 1, (1, 2): 1}


def test_w_family():
    # w^(2)_m = sum x^{m+1} nabla: on symmetric input w2_0 acts like l_0
    q = MSymPoly(2, {(2,): 1})
    got = apply_w(q, 2, 0, HALF).to_expanded()
    # nabla_j then x_j, summed: compare against direct construction
    direct = ExpandedPoly.zero(2)
    for j in (1, 2):
        direct = direct + apply_dunkl(q.to_expanded(), j, HALF).mul_var(j, 1)
    assert got == direct
    with pytest.raises(ValueError):
        apply_w(q, 1, 0, HALF)
    with pytest.raises(ValueError):
        apply_w(q, 3, -3, HALF)


def test_expanded_power_sum():
    assert expanded_power_sum(2, 0).terms == {(0, 0): 2}
    assert expanded_power_sum(2, 3).terms == {(3, 0): 1, (0, 3): 1}


def test_operator_tags():
    t = OperatorTag("w", -2, 3)
    assert str(t) == "w3(-2)" and t.m == -2
    assert str(OperatorTag("p", 2)) == "p(2)"
    assert OperatorTag("l", -1).m == -1
    q = MSymPoly(2, {(2,): 1})
    m1 = MSymPoly(2, {(1,): 1})
    assert OperatorTag("p", 1).apply(q, HALF) == \
        (q.to_expanded() * m1.to_expanded()).to_msym()
    with pytest.raises(ValueError):
        OperatorTag("l", -2)
    with pytest.raises(ValueError):
        OperatorTag("w", -3, 3)
    with pytest.raises(ValueError):
        OperatorTag("q", 1)


@pytest.mark.parametrize("call", [
    lambda q: apply_p(q, 0),
    lambda q: OperatorTag("p", 0),
    lambda q: OperatorTag("p", 1, 2),
    lambda q: apply_l(q, -2),
    lambda q: _l_expanded(q.to_expanded(), -2),
    lambda q: OperatorTag("l", 0, 2),
    lambda q: _w_expanded(q.to_expanded(), 1, 0, HALF),
    lambda q: _w_expanded(q.to_expanded(), 2, -2, HALF),
    lambda q: apply_w(q, 1, 0, HALF),
    lambda q: apply_w(q, 4, -4, HALF),
    lambda q: OperatorTag("w", 0),
])
def test_operator_ranges_checked_everywhere(call):
    # one rule set: p_m (m >= 1), l_m (m >= -1), w^(t)_m (t >= 2, m >= -t+1)
    with pytest.raises(ValueError):
        call(MSymPoly(2, {(2, 1): 1}))


def test_commutator_suite_passes():
    rep = verify_commutators(n=3, degree=4, trials=4, seed=99, tmax=3)
    assert rep.all_pass()
    assert rep.params["seed"] == 99
    ids = {c["id"] for c in rep.cases}
    assert "l-bracket[-1,2]" in ids
    assert "w2-w3-ladder" in ids
    assert "l1-p[4]" in ids
    for trials, tmax in ((0, 3), (4, 1)):
        with pytest.raises(ValueError):
            verify_commutators(n=3, degree=4, trials=trials, seed=99,
                               tmax=tmax)


def test_commutator_suite_catches_wrong_relation():
    # sanity: a deliberately broken check cannot sneak through the harness
    rep = verify_commutators(n=2, degree=3, trials=2, seed=1, tmax=2)
    before = rep.npass
    rep.add("bogus", False, reason="forced")
    assert rep.nfail == 1 and rep.npass == before
    assert not rep.all_pass()


@pytest.mark.parametrize("beta", [Fraction(-1, 2), Fraction(-2, 3), BETA])
def test_w2_equals_l_on_symmetric_input(beta):
    # nabla_j P = d_j P for symmetric P, so w^(2)_m = l_m; apply_l moves
    # parts and shares no code with the Dunkl chain behind apply_w
    for n in range(1, 6):
        for d in range(8):
            for mu in partitions_leq(d, n):
                P = MSymPoly(n, {mu: 1})
                for m in range(-1, 4):
                    assert apply_w(P, 2, m, beta) == apply_l(P, m), (mu, m)


def direct_class_table(n, e):
    """class_table(n, e)'s keys by the direct per-a enumeration."""
    return [(a,) + nu for a in range(e, -1, -1)
            for nu in partitions_leq(e - a, n - 1)]


def test_class_tables_match_the_direct_enumeration():
    """class_table grows degree e from degree e - 1: its keys and positions
    equal the per-a enumeration with a fresh memo, with one memo shared
    across every (n, e), and with first use out of order (e = 10 before
    e = 3); below degree 0 the table is empty.  Degree e begins with the
    keys of every degree e - s, 0 <= s <= e, each with a raised by s, in
    their order: verify_closure's one map per image degree rests on it."""
    shared, unordered = {}, {}
    for n in range(1, 8):
        class_table(n, 10, unordered)
        for e in range(-2, 21):
            want = direct_class_table(n, e)
            for rows in ({}, shared, unordered):
                order, pos = class_table(n, e, rows)
                assert order == want, (n, e)
                assert pos == {key: i for i, key in enumerate(want)}, (n, e)
            for s in range(e + 1):
                lower = class_table(n, e - s, shared)[0]
                assert want[:len(lower)] == [
                    (key[0] + s,) + key[1:] for key in lower], (n, e, s)
