"""Workload grids, seeded query generation and the exact output oracle.

The basis grids are fixed (the paper's objects are fixed); only the
membership queries of the `verify` workload are drawn from the seed.  Every
output is checked exactly: bases against per-element reference digests,
suite verdicts against the stored ordered verdict lists, CLI stdout against
a stored sha256, and membership certificates against the combination the
query was built from.
"""

import hashlib
import json
import os
import random
from fractions import Fraction

from jackideal.partitions import enumerate_admissible, partitions_leq
from jackideal.sympoly import MSymPoly

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

# deep: few variables, high degree, so the triangular solve dominates.
# wide: nine variables, so Hamiltonian rows (orbit expansions) dominate.
# closure/wheel/queries: the verify workload, on a basis built in setup.
# cli_runs: CLI invocations per repetition of cli-reload (on the deep grid).
SCALES = {
    "full": {"deep": (1, 2, 3, 18), "wide": (8, 2, 9, 8),
             "closure": (1, 2, 3, 14, 4, 4), "wheel": (2, 6, 12),
             "queries": 48, "cli_runs": 5},
    "smoke": {"deep": (1, 2, 3, 8), "wide": (3, 2, 5, 5),
              "closure": (1, 2, 3, 8, 2, 2), "wheel": (2, 4, 6),
              "queries": 8, "cli_runs": 2},
}


def key_of(parts):
    """Reference key of a grid or a partition ("" for the empty partition)."""
    return ",".join(map(str, parts))


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def cli_args(grid, cache_dir):
    k, r, n, dmax = grid
    return ["ideal", "basis", "--k", str(k), "--r", str(r), "--n", str(n),
            "--dmax", str(dmax), "--cache-dir", cache_dir]


def element_digest(sp):
    """Digest of one specialized Jack, independent of serialization order."""
    terms = sorted([list(mu), str(Fraction(c))] for mu, c in sp.poly.terms.items())
    payload = [list(sp.lam), sp.n, sp.k, sp.r, terms]
    text = json.dumps(payload, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def basis_digests(basis):
    return {key_of(lam): element_digest(sp) for lam, sp in basis.elements.items()}


def check_basis(basis, grid, digests):
    """(attempted, failed) for a built basis against its reference digests.

    Each partition in the admissible family, the basis or the reference is
    one check: it fails unless all three have it, its digest matches and its
    leading coefficient is 1.  The character is one more check.
    """
    fam = enumerate_admissible(*grid)
    family = {key_of(lam) for lam in fam.all_partitions()}
    got = {key_of(lam): (sp.poly.terms.get(lam) == 1, element_digest(sp))
           for lam, sp in basis.elements.items()}
    keys = family | set(got) | set(digests)
    failed = sum(1 for key in keys
                 if key not in family or key not in got or not got[key][0]
                 or got[key][1] != digests.get(key))
    failed += basis.character() != fam.character()
    return len(keys) + 1, failed


def verdicts(rep):
    return [[c["id"], c["status"]] for c in rep.cases]


def check_verdicts(rep, want):
    """(attempted, failed): position-by-position against the reference list;
    a missing, extra or different verdict is one failure."""
    got = verdicts(rep)
    attempted = max(len(got), len(want))
    failed = sum(1 for i in range(attempted)
                 if i >= len(got) or i >= len(want) or got[i] != want[i])
    return attempted, failed


def _rand_q(rng):
    return Fraction(rng.choice([x for x in range(-9, 10) if x]),
                    rng.randint(1, 5))


def make_queries(basis, seed, count):
    """Membership queries with known answers, alternating members and
    non-members.

    A member is a random Q-combination of one to four basis elements; its
    certificate must return exactly that combination.  A non-member adds
    c * m_mu for a non-admissible mu; by triangularity the reduction must
    stop at exactly mu.  Returns a list of (poly, combination, mu) with one of
    combination and mu set to None.
    """
    rng = random.Random(seed)
    n = basis.n
    lams = sorted(basis.elements)
    outside = [p for d in range(basis.dmax + 1) for p in partitions_leq(d, n)
               if p not in basis.elements]
    queries = []
    for i in range(count):
        comb = {lam: _rand_q(rng)
                for lam in rng.sample(lams, min(len(lams), rng.randint(1, 4)))}
        P = MSymPoly(n)
        for lam, c in comb.items():
            P = P + basis.get(lam).poly.scale(c)
        if i % 2:
            mu = rng.choice(outside)
            queries.append((P + MSymPoly(n, {mu: _rand_q(rng)}), None, mu))
        else:
            queries.append((P, comb, None))
    return queries


def certificate_ok(cert, combination, mu):
    if combination is not None:
        return cert.member and cert.combination == combination
    return (not cert.member) and tuple(cert.obstruction) == mu
