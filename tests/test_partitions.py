"""Partition combinatorics, the admissibility window, and the exact
eigenvalue/clearing-product formulas attached to a partition."""

import random
from fractions import Fraction
from math import gcd

import pytest

from jackideal.partitions import (DegreeMismatch, InvalidNode,
                                  InvalidParameters, _in_window, add_node,
                                  addable_rows, as_partition, beta_value,
                                  check_nonvanishing, conjugate,
                                  dominance_compare, dominated_by,
                                  enumerate_admissible, is_admissible,
                                  node_moves, padded, partitions_leq,
                                  partitions_of, removable_rows, remove_node)
from jackideal.ratfunc import BetaPoly
from jackideal.symbolic import c_lambda, cs_eigenvalue, sekiguchi_eigenvalue


def test_as_partition_validates():
    assert as_partition([3, 1, 0, 0]) == (3, 1)
    assert as_partition(()) == ()
    with pytest.raises(ValueError):
        as_partition((1, 2))
    with pytest.raises(ValueError):
        as_partition((2, -1))
    for part in (1.5, 2.0, "2"):
        with pytest.raises(TypeError):
            as_partition((part,))


def test_conjugate_involution():
    rng = random.Random(4)
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
    for _ in range(50):
        lam = as_partition(sorted((rng.randint(0, 6) for _ in range(4)),
                                  reverse=True))
        assert conjugate(conjugate(lam)) == lam
        assert sum(conjugate(lam)) == sum(lam)


def test_conjugate_matches_the_column_count():
    # column j of lam holds the rows with lam_i >= j, counted one by one
    for d in range(21):
        for lam in partitions_of(d):
            want = tuple(sum(1 for p in lam if p >= j)
                         for j in range(1, lam[0] + 1)) if lam else ()
            assert conjugate(lam) == want, lam


def test_dominance():
    assert dominance_compare((3, 1), (2, 2)) == "greater"
    assert dominance_compare((2, 2), (3, 1)) == "less"
    assert dominance_compare((2, 1), (2, 1)) == "equal"
    # classic incomparable pair at degree 6
    assert dominance_compare((3, 1, 1, 1), (2, 2, 2)) == "incomparable"
    with pytest.raises(DegreeMismatch):
        dominance_compare((2,), (1,))
    assert dominated_by((2, 2), (4,))
    assert not dominated_by((4,), (2, 2))


def test_dominance_respects_partial_sums():
    rng = random.Random(11)
    for _ in range(80):
        d = rng.randint(1, 9)
        mus = partitions_leq(d, 4)
        mu, lam = rng.choice(mus), rng.choice(mus)
        got = dominated_by(mu, lam)
        mp, lp = padded(mu, d), padded(lam, d)
        want = all(sum(mp[:i]) <= sum(lp[:i]) for i in range(1, d + 1))
        assert got == want


def test_partitions_of_bounds_and_order():
    ps = list(partitions_of(5, max_len=3))
    assert ps == sorted(ps, reverse=True)
    assert all(len(p) <= 3 and sum(p) == 5 for p in ps)
    assert (2, 2, 1) in ps and (1, 1, 1, 1, 1) not in ps
    assert list(partitions_of(0)) == [()]
    assert len(partitions_leq(10, 4)) == 23


def recursive_partitions_of(d, max_len=None):
    """The nested recursive generator that partitions_of replaced, kept as
    its differential oracle: the largest part first, then the partitions
    of the rest with parts at most that large and one slot fewer."""
    if max_len is None:
        max_len = d

    def rec(rest, cap, slots):
        if rest == 0:
            yield ()
            return
        if slots == 0:
            return
        top = min(cap, rest)
        # need rest <= top * slots to finish
        for p in range(top, 0, -1):
            if p * slots < rest:
                break
            for tail in rec(rest - p, p, slots - 1):
                yield (p,) + tail

    if d == 0:
        yield ()
        return
    yield from rec(d, d, max_len)


def test_partitions_of_matches_the_recursive_generator():
    for d in range(-3, 31):
        for max_len in [None] + list(range(-1, d + 2)):
            assert list(partitions_of(d, max_len)) == \
                list(recursive_partitions_of(d, max_len)), (d, max_len)


def test_beta_value_and_parameter_validation():
    assert beta_value(1, 2) == Fraction(-1, 2)
    assert beta_value(2, 3) == Fraction(-2, 3)
    assert beta_value(3, 2) == Fraction(-1, 4)
    for k, r in [(1, 3), (2, 4), (0, 2), (1, 1)]:
        with pytest.raises(InvalidParameters):
            beta_value(k, r)


def test_admissibility_window_pads_with_zeros():
    # the window lambda_i - lambda_{i+k} >= r runs over the n-padded tuple
    assert is_admissible((2,), 1, 2, 2)
    assert not is_admissible((1,), 1, 2, 2)
    assert not is_admissible((2,), 1, 2, 3)       # (2,0,0): rows 2,3 fail
    assert is_admissible((4, 2), 1, 2, 3)
    assert not is_admissible((4, 1), 1, 2, 3)
    assert is_admissible((3, 3), 2, 3, 3)         # only lam_1 - lam_3 >= 3
    # empty partition: admissible exactly when n <= k
    assert is_admissible((), 2, 2, 2)
    assert not is_admissible((), 1, 2, 2)
    with pytest.raises(ValueError):
        is_admissible((2, 1, 1), 1, 2, 2)         # longer than n


def filtered_family(k, r, n, dmax):
    """The admissible family as enumerate_admissible built it before its
    pruned descent, the reference for it: every partition of each degree
    with at most n parts, in decreasing lex order, filtered through the
    window."""
    return {d: tuple(lam for lam in partitions_leq(d, n)
                     if _in_window(lam, k, r, n))
            for d in range(dmax + 1)}


def test_enumerate_admissible_matches_the_filter_on_every_small_grid():
    # every coprime (k, r) with k <= 5 and r <= 5, n <= 7 and dmax <= 12:
    # the same partitions in the same order, degree by degree
    grids = [(k, r, n, dmax) for k in range(1, 6) for r in range(2, 6)
             if gcd(k + 1, r - 1) == 1
             for n in range(1, 8) for dmax in range(13)]
    assert len(grids) == 1092
    for grid in grids:
        assert enumerate_admissible(*grid).by_degree \
            == filtered_family(*grid), grid


@pytest.mark.parametrize("grid", [(1, 2, 20, 40), (1, 2, 10, 60)])
def test_enumerate_admissible_on_empty_families(grid):
    # at k = 1, r = 2 the least admissible lam is (2(n-1), ..., 2, 0), of
    # degree n(n-1) > dmax: every degree is present and empty, as the
    # filter finds after visiting every partition up to dmax
    fam = enumerate_admissible(*grid)
    assert fam.by_degree == {d: () for d in range(grid[3] + 1)}
    assert fam.by_degree == filtered_family(*grid)


def test_enumerate_admissible_matches_filter():
    # the window is stated here, not read from is_admissible: lam padded
    # to n has lam_i - lam_(i+k) >= r for every i <= n - k
    for k, r, n, dmax in [(1, 2, 2, 8), (1, 2, 3, 8), (2, 3, 3, 7),
                          (3, 2, 4, 6), (2, 2, 2, 6), (1, 4, 3, 12),
                          (2, 5, 4, 12)]:
        fam = enumerate_admissible(k, r, n, dmax)
        for d in range(dmax + 1):
            brute = []
            for lam in partitions_of(d, max_len=n):
                lp = list(lam) + [0] * (n - len(lam))
                if all(lp[i] - lp[i + k] >= r for i in range(n - k)):
                    brute.append(lam)
            assert list(fam.by_degree[d]) == brute


def test_enumerate_admissible_matches_the_public_filter():
    # enumerate_admissible checks (k, r, n, dmax) once and tests the window
    # per partition; over every coprime (k, r) with k <= 4, 2 <= r <= 6 and
    # n <= 7 its family must equal the filter through the public
    # is_admissible, which checks (k, r, n) and the length every time, and
    # the window as stated here on lam padded to n.  dmax = 16 holds every
    # smaller dmax as a prefix of its degrees.
    pairs = [(k, r) for k in range(1, 5) for r in range(2, 7)
             if gcd(k + 1, r - 1) == 1]
    assert len(pairs) == 14
    for k, r in pairs:
        for n in range(1, 8):
            fam = enumerate_admissible(k, r, n, 16)
            assert sorted(fam.by_degree) == list(range(17))
            for d in range(17):
                lams = partitions_leq(d, n)
                public = tuple(lam for lam in lams
                               if is_admissible(lam, k, r, n))
                stated = tuple(lam for lam in lams
                               if all(padded(lam, n)[i] - padded(lam, n)[i + k]
                                      >= r for i in range(n - k)))
                assert fam.by_degree[d] == public == stated, (k, r, n, d)


def fermionic_character(k, n, dmax):
    """Feigin-Stoyanovsky character at r = 2, coefficients of q^0..q^dmax:
    the sum over n_1..n_k >= 0 with sum_i i n_i = n of
    q^(sum_(i,j<=k) min(i,j) n_i n_j - sum_i i n_i) / prod_i (q)_(n_i).
    Plain power series in ints; nothing from jackideal."""
    out = [0] * (dmax + 1)

    def split(i, rest):
        # (n_i, ..., n_k) with sum_j j n_j = rest
        if i > k:
            if rest == 0:
                yield ()
            return
        for ni in range(rest // i + 1):
            for tail in split(i + 1, rest - i * ni):
                yield (ni,) + tail

    for ns in split(1, n):
        shift = sum(min(i, j) * ns[i - 1] * ns[j - 1]
                    for i in range(1, k + 1) for j in range(1, k + 1)) - n
        if shift > dmax:
            continue
        series = [0] * (dmax + 1)
        series[shift] = 1
        for m in ns:
            for s in range(1, m + 1):  # times 1/(1 - q^s)
                for d in range(s, dmax + 1):
                    series[d] += series[d - s]
        out = [a + b for a, b in zip(out, series)]
    return out


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_admissible_character_matches_fermionic_formula(k, n):
    assert enumerate_admissible(k, 2, n, 16).character() \
        == fermionic_character(k, n, 16)


def test_admissible_character_oracle():
    fam = enumerate_admissible(1, 2, 2, 4)
    assert fam.character() == [0, 0, 1, 1, 2]
    assert fam.by_degree[4] == ((4,), (3, 1))
    assert (3, 1) in fam.by_degree[4] and (2, 2) not in fam.by_degree[4]
    # with n <= k everything of length <= n is admissible
    fam = enumerate_admissible(2, 2, 2, 5)
    assert fam.character() == [len(partitions_leq(d, 2)) for d in range(6)]


def test_admissible_family_to_obj():
    fam = enumerate_admissible(2, 3, 3, 6)
    obj = fam.to_obj()
    assert (obj["k"], obj["r"], obj["n"]) == (2, 3, 3)
    assert obj["character"] == fam.character()
    assert obj["partitions"] == {str(d): [list(p) for p in fam.by_degree[d]]
                                 for d in range(7)}


def test_node_moves():
    assert add_node((2, 1), 2) == (2, 2)
    assert add_node((2, 1), 3) == (2, 1, 1)
    assert remove_node((2, 1), 1) == (1, 1)
    with pytest.raises(InvalidNode):
        add_node((2, 1), 5)
    with pytest.raises(InvalidNode):
        remove_node((2, 2), 1)    # would break monotonicity
    assert addable_rows((2, 2), 2) == [1]     # length capped at n
    assert removable_rows((2, 2)) == [2]
    got = set(node_moves((2, 1), 3))
    assert got == {(3, 1), (2, 2), (2, 1, 1), (1, 1), (2,)}
    assert set(node_moves((), 2)) == {(1,)}


def test_c_lambda_oracles():
    b = BetaPoly((0, 1))
    assert c_lambda(()) == BetaPoly((1,))
    assert c_lambda((2,)) == b * (b + 1)
    assert c_lambda((2, 1)) == b * b * (2 * b + 1)
    assert c_lambda((1,)) == b
    # zero orders at beta(1,2) = -1/2
    assert c_lambda((2, 1)).root_multiplicity(Fraction(-1, 2)) == 1
    assert c_lambda((2,)).root_multiplicity(Fraction(-1, 2)) == 0
    assert c_lambda((2,))(Fraction(-1, 3)) == Fraction(-2, 9)


def hook_product(lam):
    """c_lambda as the product of one BetaPoly hook factor per node."""
    conj = conjugate(lam)
    out = BetaPoly((1,))
    for i, li in enumerate(lam, start=1):
        for j in range(1, li + 1):
            out = out * BetaPoly((li - j, conj[j - 1] - i + 1))
    return out


def test_c_lambda_matches_hook_product():
    """The int-list c_lambda equals the BetaPoly product, coefficient type
    and all, on every partition of weight <= 12."""
    for d in range(13):
        for lam in partitions_of(d):
            got = c_lambda(lam)
            assert got.coeffs == hook_product(lam).coeffs, lam
            assert all(type(c) is int for c in got.coeffs), lam
            assert got.coeffs[-1], lam


def test_cs_eigenvalue_oracles():
    # sum lam_i^2 + beta sum (n+1-2i) lam_i
    assert cs_eigenvalue((2,), 2) == BetaPoly((4, 2))
    assert cs_eigenvalue((1, 1), 2) == BetaPoly((2, 0))
    assert cs_eigenvalue((3, 1), 3) == BetaPoly((10, 6))
    assert cs_eigenvalue((), 3) == BetaPoly(())


def test_cs_eigenvalue_matches_the_formula_by_rows():
    # cs_eigenvalue, which the Hamiltonian row check reads, against the
    # formula as stated here, row by row, padded to (c0, c1):
    # sum_i lam_i^2 + beta sum_i (n + 1 - 2i) lam_i
    for n in range(1, 10):
        for d in range(13):
            for mu in partitions_leq(d, n):
                eig = cs_eigenvalue(mu, n).coeffs
                assert eig + (0,) * (2 - len(eig)) == (
                    sum(li * li for li in mu),
                    sum((n + 1 - 2 * i) * li
                        for i, li in enumerate(mu, start=1))), (mu, n)


def test_sekiguchi_eigenvalue_is_product():
    # prod_i (u + lam_i + (n-i) beta), coefficients in u low-first
    got = sekiguchi_eigenvalue((2, 0), 2)
    # (u + 2 + b)(u + 0) = u^2 + (2+b) u + 0
    assert got == [BetaPoly(()), BetaPoly((2, 1)), BetaPoly((1,))]
    assert sekiguchi_eigenvalue((), 1) == [BetaPoly(()), BetaPoly((1,))]
    got = sekiguchi_eigenvalue((1, 1), 2)
    # (u + 1 + b)(u + 1) = u^2 + (2 + b) u + (1 + b)
    assert got == [BetaPoly((1, 1)), BetaPoly((2, 1)), BetaPoly((1,))]


def test_eigenvalues_separate_dominance_strictly():
    # strict dominance forces distinct CS eigenvalues as polynomials
    rng = random.Random(21)
    for _ in range(100):
        n = rng.randint(2, 4)
        d = rng.randint(2, 8)
        mus = partitions_leq(d, n)
        mu, lam = rng.choice(mus), rng.choice(mus)
        if mu != lam and dominated_by(mu, lam):
            assert cs_eigenvalue(mu, n) != cs_eigenvalue(lam, n)


def test_check_nonvanishing():
    assert check_nonvanishing((2,), 1, 2, 2)
    assert check_nonvanishing((4, 2), 1, 2, 3)
    assert check_nonvanishing((3, 3), 2, 3, 3)
    with pytest.raises(InvalidParameters):
        check_nonvanishing((1,), 1, 2, 2)    # not admissible
