"""Negative controls: a closure pass must need the paper's hypotheses.

A mutation test plants a defect in the basis.  A control instead breaks one
hypothesis of the claim and keeps the rest, so a check that still passes
cannot be testing that hypothesis.  Here the operators run at a wrong point
while the Jacks stay at beta(k, r): only the operators that depend on beta
may fail.
"""

from collections import Counter
from fractions import Fraction

from jackideal import ideal
from jackideal.ideal import verify_closure


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
