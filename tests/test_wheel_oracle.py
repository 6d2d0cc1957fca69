"""Differential oracles for the wheel kernel: a dense Bareiss rank and the
coincidence map on full S_n orbits, one column per exponent vector, against
which `bareiss_rank` (sparse, fraction-free) and `wheel_dimension` (on the
class positions of t^a m_nu, by coincident_row) are checked."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

import jackideal.basis
from jackideal import ideal
from jackideal.ideal import bareiss_rank, verify_wheel, wheel_dimension
from jackideal.jack import JackCache, SpecializedJack
from jackideal.partitions import partitions_leq
from jackideal.sympoly import MSymPoly

from class_oracle import expanded_coincident


def dense_bareiss_rank(mat):
    """Rank of a dense integer matrix by Bareiss elimination."""
    mat = [list(row) for row in mat]
    nr = len(mat)
    nc = len(mat[0]) if nr else 0
    rank = 0
    prev = 1
    for c in range(nc):
        piv = next((i for i in range(rank, nr) if mat[i][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pr = mat[rank]
        for i in range(rank + 1, nr):
            ri = mat[i]
            a = ri[c]
            for j in range(c + 1, nc):
                # exact by Sylvester's determinant identity
                ri[j] = (pr[c] * ri[j] - a * pr[j]) // prev
            ri[c] = 0
        prev = pr[c]
        rank += 1
        if rank == nr:
            break
    return rank


def fraction_rank(mat):
    """Rank by Gaussian elimination over Q."""
    mat = [[Fraction(x) for x in row] for row in mat]
    rank = 0
    for c in range(len(mat[0]) if mat else 0):
        piv = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for i in range(rank + 1, len(mat)):
            f = mat[i][c] / mat[rank][c]
            mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def expanded_wheel_dimension(k, n, d):
    """The kernel dimension from the full S_n orbit of every m_lam, one
    dense column per exponent vector of the coincidence image."""
    lams = partitions_leq(d, n)
    if n < k + 1:
        return len(lams)
    cols = {}
    rows = []
    for lam in lams:
        img = MSymPoly(n, {lam: 1}).to_expanded()
        row = {}
        for e, c in expanded_coincident(img, k + 1).terms.items():
            row[cols.setdefault(e, len(cols))] = c
        rows.append(row)
    mat = [[row.get(j, 0) for j in range(len(cols))] for row in rows]
    return len(lams) - dense_bareiss_rank(mat)


def test_wheel_dimension_matches_expanded_oracle():
    cases = [(k, n, d) for k in range(1, 5) for n in range(1, 7)
             for d in range(11)]
    assert len(cases) == 264
    for k, n, d in cases:
        assert wheel_dimension(k, n, d) == expanded_wheel_dimension(k, n, d), \
            (k, n, d)


def test_vanishing_matches_expanded_with_a_stray_term(monkeypatch):
    """With den m_mu added to the element P_lam (integral form), its image
    under the coincidence no longer vanishes, though most of P_lam's class
    positions still cancel: each vanish case of verify_wheel equals the
    coincidence on the element's S_n orbits, and only lam's fails."""
    k, n, dmax, lam, mu = 2, 4, 8, (4, 2, 1), (2, 2, 2, 1)
    real = jackideal.basis.jack_at_key

    def with_stray_term(nu, nn, beta0, cache):
        sp = real(nu, nn, beta0, cache)
        if sp.lam != lam:
            return sp
        stray = MSymPoly(nn, {mu: sp.den})
        return SpecializedJack(nu, nn, sp.beta0, sp.den, sp.num + stray)
    monkeypatch.setattr(jackideal.basis, "jack_at_key", with_stray_term)
    cache = JackCache()
    basis = ideal.build_basis(k, 2, n, dmax, cache)
    cases = {case["id"]: case["status"] for case
             in verify_wheel(k, n, dmax, cache).to_obj()["cases"]}
    for nu in basis.family.all_partitions():
        E = expanded_coincident(basis.get(nu).num.to_expanded(), k + 1)
        want = "pass" if E.is_zero() else "fail"
        assert cases["vanish@%s" % (list(nu),)] == want, nu
        assert (want == "fail") == (nu == lam), nu


@st.composite
def sparse_deficient_matrices(draw):
    """Sparse integer matrices with at least one row an integer combination
    of the others, rows shuffled: the rank is below the row count."""
    nc = draw(st.integers(1, 8))
    entry = st.one_of(st.just(0), st.just(0), st.integers(-6, 6))
    base = draw(st.lists(st.lists(entry, min_size=nc, max_size=nc),
                         min_size=1, max_size=5))
    combos = draw(st.lists(st.lists(st.integers(-3, 3), min_size=len(base),
                                    max_size=len(base)),
                          min_size=1, max_size=4))
    mat = base + [[sum(w * row[j] for w, row in zip(ws, base))
                   for j in range(nc)] for ws in combos]
    return draw(st.permutations(mat))


@settings(max_examples=150, deadline=None)
@given(sparse_deficient_matrices())
def test_sparse_rank_matches_dense_and_fraction(mat):
    rows = [{j: v for j, v in enumerate(row) if v} for row in mat]
    rank = bareiss_rank(rows)
    assert rank == fraction_rank(mat) == dense_bareiss_rank(mat) < len(mat)
    assert rows == [{j: v for j, v in enumerate(row) if v} for row in mat]
