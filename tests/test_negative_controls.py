"""Negative controls: a closure pass must need the paper's hypotheses.

A mutation test plants a defect in the basis.  A control instead breaks one
hypothesis of the claim and keeps the rest, so a check that still passes
cannot be testing that hypothesis.  The hypotheses are that k + 1 and r - 1
are coprime and that the Jacks and the operators sit at beta(k, r).  Each
control patches the point or the coprimality check here, in the test, so
the package and its CLI keep refusing non-coprime (k, r).
"""

from collections import Counter
from fractions import Fraction

import pytest

from jackideal import basis, ideal, partitions
from jackideal.cli import main
from jackideal.ideal import verify_closure
from jackideal.jack import SpecializationPole, jack_at


def verdicts_by_kind(rep):
    """{kind: (cases, failures)} with kind p, l or wt, read off the case
    ids; every failure must carry an obstruction."""
    cases, fails = Counter(), Counter()
    for case in rep.to_obj()["cases"]:
        kind = case["id"].split("(")[0]
        cases[kind] += 1
        if case["status"] != "pass":
            assert "obstruction" in case["detail"], case
            fails[kind] += 1
    return {kind: (cases[kind], fails[kind]) for kind in cases}


def test_operators_at_a_wrong_point(monkeypatch):
    """ideal.beta_value alone patched to -1/3 at (k, r) = (1, 2), so the
    Jacks stay at beta(1, 2) = -1/2 and only the Dunkl chain's (a, b)
    moves.  Unpatched, every case passes.  Patched, p_m, l_m and
    w^(2)_m = l_m, which do not depend on beta, still pass, and every
    w^(3) and w^(4) case fails: the chain's beta enters exactly the t >= 3
    verdicts."""
    kinds = {"p": 38, "l": 84, "w2": 84, "w3": 107, "w4": 130}
    rep = verify_closure(1, 2, 3, 12, 4, 4)
    assert verdicts_by_kind(rep) == {kind: (m, 0) for kind, m in kinds.items()}
    monkeypatch.setattr(ideal, "beta_value", lambda k, r: Fraction(-1, 3))
    rep = verify_closure(1, 2, 3, 12, 4, 4)
    assert verdicts_by_kind(rep) == {
        kind: (m, m if kind in ("w3", "w4") else 0)
        for kind, m in kinds.items()}


def test_non_coprime_point_has_a_pole(capsys):
    """At (k, r) = (3, 3), gcd(4, 2) = 2, the point -(r-1)/(k+1) = -1/2
    puts a simple pole on an admissible Jack: the coefficient of
    m_(3,1,1,1) in P_(3,2,1) at n = 4.  The CLI refuses the pair."""
    with pytest.raises(SpecializationPole) as pole:
        jack_at((3, 2, 1), 4, Fraction(-1, 2))
    assert (pole.value.lam, pole.value.mu, pole.value.order) \
        == ((3, 2, 1), (3, 1, 1, 1), 1)
    assert main(["partitions", "--k", "3", "--r", "3", "--n", "4",
                 "--dmax", "8"]) == 2
    assert "coprime" in capsys.readouterr().err


def test_non_coprime_closure_fails(monkeypatch):
    """With the coprimality check relaxed, (k, r) = (1, 3) takes the point
    -2/2 = -1, where the admissible span at (1, 3, 3, 10) is no ideal: 23
    of the 27 closure cases fail, each with an obstruction."""
    monkeypatch.setattr(partitions, "_check_kr", lambda k, r: None)
    assert partitions.beta_value(1, 3) == -1
    kinds = verdicts_by_kind(verify_closure(1, 3, 3, 10, 4, 4))
    assert sum(m for m, _ in kinds.values()) == 27
    assert sum(f for _, f in kinds.values()) == 23


def test_jacks_and_operators_at_a_wrong_point(monkeypatch):
    """The Jacks (basis.beta_value, the point build_basis solves at) and
    the operators (ideal.beta_value) both at -1/3 at (k, r) = (1, 2):
    every kind fails now, p, l and w^(2) included, which need the Jacks
    at beta(k, r) even though they do not depend on beta themselves."""
    for module in (basis, ideal):
        monkeypatch.setattr(module, "beta_value", lambda k, r: Fraction(-1, 3))
    rep = verify_closure(1, 2, 3, 12, 4, 4)
    assert verdicts_by_kind(rep) == {"p": (38, 34), "l": (84, 50),
                                     "w2": (84, 50), "w3": (107, 98),
                                     "w4": (130, 129)}
