"""Acceptance gate: twelve structural criteria, all exact arithmetic.

Each test prints one live "criterion N: PASS|FAIL" line (bypassing pytest
capture) and then asserts, so a verbose run shows one verdict per criterion.
"""

import time

import jackideal as J

CACHE = J.JackCache()

# the (1,3) pair from the regularity grid has gcd(k+1, r-1) = 2 and is
# rejected up front; the remaining five give genuine couplings
REGULARITY_PAIRS = ((1, 2), (2, 2), (1, 3), (2, 3), (3, 2), (2, 5))
VALID_PAIRS = ((1, 2), (2, 2), (2, 3), (3, 2), (2, 5))
COMMUTATOR_SEED = 20260814


def conclude(capsys, num, failures, elapsed=None, budget=None):
    if budget is not None and elapsed is not None and elapsed > budget:
        failures = failures + ["elapsed %.1fs over %ds budget" % (elapsed, budget)]
    ok = not failures
    with capsys.disabled():
        print("criterion %d: %s" % (num, "PASS" if ok else "FAIL"))
    assert ok, "; ".join(str(f) for f in failures[:8])


def collect(failures, label, rep):
    for f in rep.failures():
        failures.append("%s %s" % (label, f["id"]))


def test_criterion_01_eigensystem(capsys):
    t0 = time.perf_counter()
    failures = []
    for n in range(1, 5):
        collect(failures, "n=%d" % n, J.verify_eigensystem(n, 8, CACHE))
    conclude(capsys, 1, failures, time.perf_counter() - t0, 120)


def test_criterion_02_known_coefficient(capsys):
    P = J.jack_symbolic((2,), 2, CACHE)
    failures = []
    if set(P.coeffs) != {(2,), (1, 1)}:
        failures.append("support %r" % sorted(P.coeffs))
    if P.coefficient((2,)) != 1:
        failures.append("leading coefficient %s" % P.coefficient((2,)))
    if P.coefficient((1, 1)) != J.BetaRatFunc(2 * J.BETA, 1 + J.BETA):
        failures.append("subleading coefficient %s" % P.coefficient((1, 1)))
    conclude(capsys, 2, failures)


def test_criterion_03_denominator_clearing(capsys):
    failures = []
    for n in range(1, 5):
        for d in range(9):
            for lam in J.partitions_leq(d, n):
                D, _ = J.jack_symbolic(lam, n, CACHE).cleared()
                _, rem = divmod(J.c_lambda(lam), D)
                if rem != 0:
                    failures.append("n=%d lam=%r" % (n, lam))
    conclude(capsys, 3, failures)


def test_criterion_04_regularity(capsys):
    t0 = time.perf_counter()
    failures = []
    for k, r in REGULARITY_PAIRS:
        if (k, r) == (1, 3):
            try:
                J.beta_value(k, r)
                failures.append("(1,3) accepted as a coupling")
            except J.InvalidParameters:
                pass
            continue
        for n in range(1, 5):
            collect(failures, "(%d,%d) n=%d" % (k, r, n),
                    J.verify_regularity(k, r, n, 10, CACHE))
    conclude(capsys, 4, failures, time.perf_counter() - t0, 300)


def test_criterion_05_symbolic_pieri_lassalle(capsys):
    failures = []
    for n in range(1, 5):
        collect(failures, "pieri n=%d" % n,
                J.verify_pieri(n, 7, cache=CACHE))
        collect(failures, "lassalle n=%d" % n,
                J.verify_lassalle(n, 7, cache=CACHE))
    conclude(capsys, 5, failures)


def test_criterion_06_specialized_pieri(capsys):
    failures = []
    for k, r in VALID_PAIRS:
        for n in range(1, 5):
            collect(failures, "(%d,%d) n=%d" % (k, r, n),
                    J.verify_pieri(n, 9, k, r, cache=CACHE))
    conclude(capsys, 6, failures)


def test_criterion_07_closure(capsys):
    t0 = time.perf_counter()
    failures = []
    for k, r in ((1, 2), (2, 3), (1, 4)):
        for n in range(1, 5):
            collect(failures, "(%d,%d) n=%d" % (k, r, n),
                    J.verify_closure(k, r, n, 10, mmax=4, tmax=4, cache=CACHE))
    conclude(capsys, 7, failures, time.perf_counter() - t0, 900)


def test_criterion_08_commutators(capsys):
    rep = J.verify_commutators(3, 5, 25, COMMUTATOR_SEED, tmax=3)
    failures = []
    collect(failures, "seed=%d" % COMMUTATOR_SEED, rep)
    if rep.to_obj()["params"]["seed"] != COMMUTATOR_SEED:
        failures.append("seed not recorded")
    conclude(capsys, 8, failures)


def test_criterion_09_wheel(capsys):
    t0 = time.perf_counter()
    failures = []
    for k, n in ((1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)):
        collect(failures, "(k=%d,n=%d)" % (k, n),
                J.verify_wheel(k, n, 10, CACHE))
    conclude(capsys, 9, failures, time.perf_counter() - t0, 600)


def test_criterion_10_principal_specialization(capsys):
    failures = []
    for n in range(1, 5):
        for d in range(9):
            for lam in J.partitions_leq(d, n):
                if J.principal_specialization(lam, n) != J.evaluate_all_ones(lam, n, CACHE):
                    failures.append("n=%d lam=%r" % (n, lam))
    for k, r in VALID_PAIRS:
        n = k + 1
        b0 = J.beta_value(k, r)
        for lam in J.enumerate_admissible(k, r, n, 8).all_partitions():
            po = J.principal_specialization(lam, n).pole_order(b0)
            if po is None or po >= 0:
                failures.append("(%d,%d) lam=%r not a zero" % (k, r, lam))
    conclude(capsys, 10, failures)


def test_criterion_11_phi3(capsys):
    failures = []
    for r in (2, 3, 5, 6):
        collect(failures, "r=%d" % r, J.verify_phi3(r, CACHE))
    conclude(capsys, 11, failures)


def test_criterion_12_nonvanishing(capsys):
    failures = []
    for k, r in VALID_PAIRS:
        for n in range(1, 5):
            for lam in J.enumerate_admissible(k, r, n, 10).all_partitions():
                if not J.check_nonvanishing(lam, k, r, n):
                    failures.append("(%d,%d) n=%d lam=%r" % (k, r, n, lam))
    conclude(capsys, 12, failures)
