"""Differential oracles for the m-basis closure battery.

The expanded operators stay as the independent references: _w_expanded
applies nabla_j^(t-1) for every j to the S_n-orbit expansion and sums the
shifted copies, _l_expanded acts monomial by monomial, and p_m is an
expanded product.  The m-basis paths (apply_p and apply_l in closed form,
apply_w read on class positions x_1^a m_nu(x_2, ..., x_n)) share none of
that, so agreement here checks the symmetry reduction and the class
coefficients from outside.

expanded_dunkl_chain is the integer Dunkl chain on the S_n-orbit expansion,
built from the ExpandedPoly calculus, and w_from_chain reads w^(t)_m off
it slot by slot; together they were the m-basis w path before the chain
ran on classes.  fraction_dunkl_chain is plain nabla_1 steps over the
coefficients of P.  The class chain must equal the expanded one read on
classes, the expanded one must be c_s times the fraction one, and
closure_fraction (the closure loop on the fraction chain, with the
batch-of-maxima reduction) must give the same verdicts as verify_closure.

closure_per_tag keeps the per-tag closure loop that verify_closure ran
before it read every image off one Dunkl chain per basis element, with
reduce_membership as its verdict.  closure_images keeps the loop that built
each distinct image chain[s][1].symmetrize(shift) as an MSymPoly and read
its verdict with IdealBasis.obstruction.  closure_dict_rows keeps the route
that fed the uncollected symmetrize terms of the chain entry, collected in
a dict keyed by partition, to a normal-form table with dict rows keyed by
partition (dict_normal_forms); verify_closure now sums the coefficients by
position in the table and scatters rows keyed by position.

moves_cluster and moves_dunkl_sum are the class steps as they were before
their rows were memoized: each visit rebuilds its moves.  coincident_row
and the memoized chain steps must equal them on every basis element and
every closure chain entry, with a fresh memo and with one memo shared
across elements.

nabla_step is the chain's class step as it was before dunkl_chain ran on
per-degree class position tables: one dict row per class key, summed into
a dict keyed by class tuple.  dict_chain runs the chain on it, and the
image and dict-row closure routes read their verdicts off that chain, so
they share no step with verify_closure.  on_classes reads the position
chain back on class keys for comparison.  The dict class form they run on
(PartSymPoly, with cluster, partial_t and symmetrize) is class_oracle's.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import factorial, gcd

import pytest

import jackideal.basis
import jackideal.ideal
from jackideal.ideal import (build_basis, closure_tags, reduce_membership,
                             verify_closure)
from jackideal.jack import JackCache, SpecializedJack
from jackideal.operators import (OperatorTag, _check_operator, _l_expanded,
                                 _w_expanded, apply_dunkl, apply_dunkl_power,
                                 apply_l, apply_p, apply_w, class_table,
                                 dunkl_chain, nabla_positions)
from jackideal.partitions import beta_value, padded, partitions_leq
from jackideal.ratfunc import BETA, BetaPoly
from jackideal.report import Report
from jackideal.sympoly import ExpandedPoly, MSymPoly, _replace_part, power_sum

from class_oracle import PartSymPoly, substitute_coincident
from test_sympoly import coincident_classes, collect_classes, position_nabla

from test_membership_oracle import batch_reduce

CACHE = JackCache()
GRID = [(n, mu) for n in range(1, 7) for d in range(9)
        for mu in partitions_leq(d, n)]
SPECIAL = (Fraction(-1, 2), Fraction(-3, 2))
CHAIN_BETAS = (Fraction(-1, 2), Fraction(-3, 2), Fraction(-2, 3))
W_TAGS = [(t, m) for t in range(2, 5) for m in range(-t + 1, 5)]


def at(P, beta0):
    """P with its BetaPoly coefficients evaluated at beta0."""
    return type(P)(P.n, {k: c(beta0) if isinstance(c, BetaPoly) else c
                         for k, c in P.terms.items()})


def fraction_dunkl_chain(P, smax, beta):
    """[nabla_1^s P for s = 0..smax] on the expansion of the MSymPoly P,
    over the coefficients of P (Fractions at a rational beta)."""
    Q = P.to_expanded()
    chain = [Q]
    for _ in range(smax):
        Q = apply_dunkl(Q, 1, beta)
        chain.append(Q)
    return chain


def expanded_dunkl_chain(P, smax, beta):
    """[(c_s, Q_s) for s = 0..smax]: Q_s = c_s nabla_1^s P on the expansion
    of the MSymPoly P, in Z at a rational beta = a/b (Q_0 = D P,
    Q_(s+1) = b d_1 Q_s + a sum_j (Q_s - K_1j Q_s)/(x_1 - x_j), c_s = D b^s);
    a symbolic beta runs it with (a, b, D) = (beta, 1, 1)."""
    rational = isinstance(beta, (int, Fraction))
    a, b = (beta.numerator, beta.denominator) if rational else (beta, 1)
    D, P = P.cleared() if rational else (1, P)
    chain = [(D, P.to_expanded())]
    for _ in range(smax):
        c, Q = chain[-1]
        step = Q.partial(1).scale(b)
        for j in range(2, Q.n + 1):
            step = step + Q.divided_difference(1, j).scale(a)
        chain.append((c * b, step))
    return chain


def w_from_chain(Q, t, m):
    """w^(t)_m P on the m-basis from Q = nabla_1^(t-1) P expanded, for
    symmetric P: sum_j x_j^(m+t-1) K_1j Q is symmetric, so its m_nu
    coefficient is its x^nu coefficient.  Swap slots 1 and j of each
    exponent of Q, add m+t-1 to slot j and keep the non-increasing results,
    trailing zeros stripped."""
    _check_operator("w", m, t)
    out = {}
    for e, c in Q.terms.items():
        for j in range(Q.n):
            f = list(e)
            f[0], f[j] = f[j], f[0] + m + t - 1
            if f == sorted(f, reverse=True):
                key = tuple(f[:len(f) - f.count(0)])
                out[key] = out.get(key, 0) + c
    return MSymPoly(Q.n, out)


def moves_cluster(Q, c):
    """x_2 = ... = x_(c+1) = t on the classes Q, multiset by multiset: each
    multiset S of c entries of nu padded to n - 1 slots sends t^a m_nu to
    t^(a+|S|) m_(nu minus S), c!/prod mult_S(v)! times."""
    def moves():
        for key, coeff in Q.terms.items():
            for S in set(combinations(padded(key[1:], Q.n - 1), c)):
                nu = list(key[1:])
                for v in S:
                    if v:
                        nu.remove(v)
                count = factorial(c)
                for v in set(S):
                    count //= factorial(S.count(v))
                yield (key[0] + sum(S),) + tuple(nu), coeff * count
    return PartSymPoly._collect(Q.n - c, moves())


def moves_coincident(P, c):
    """x_1 = ... = x_c = t on the MSymPoly P, by moves_cluster."""
    return moves_cluster(PartSymPoly._raw(P.n + 1, {(0,) + lam: v for lam, v
                                                    in P.terms.items()}), c)


def moves_dunkl_sum(Q):
    """sum_{j > 1} (1 - K_1j)/(t - x_j) on the classes Q, telescoped move
    by move: on t^a m_nu each distinct part b != a of nu padded to n - 1
    slots gives t^i and a part a+b-1-i, b <= i < a (negated when a < b),
    once per slot holding it."""
    slots = Q.n - 1

    def moves():
        for key, c in Q.terms.items():
            a, nu = key[0], key[1:]
            for b in set(padded(nu, slots)) - {a}:
                lo, hi, s = (b, a, c) if a > b else (a, b, -c)
                for i in range(lo, hi):
                    q, mult = _replace_part(nu, slots, b, lo + hi - 1 - i)
                    yield (i,) + q, s * mult
    return PartSymPoly._collect(Q.n, moves())


def moves_chain(P, smax, beta):
    """dunkl_chain with Q_0 from moves_coincident and each step
    b d_t Q + a moves_dunkl_sum(Q)."""
    a, b = beta.numerator, beta.denominator
    D, P = P.cleared()
    chain = [(D, moves_coincident(P, 1))]
    for _ in range(smax):
        c, Q = chain[-1]
        chain.append((c * b, Q.partial_t().scale(b)
                      + moves_dunkl_sum(Q).scale(a)))
    return chain


def nabla_step(Q, a, b, rows=None):
    """b d_t + a sum_{j > 1} (1 - K_1j)/(t - x_j) on the classes Q, one
    dict row per class key, memoized in rows[("nabla", n, a, b)]: the
    class step dunkl_chain ran before its entries were position lists.
    On t^e m_nu each distinct part v != e of nu padded to n - 1 slots
    gives t^i and a part e+v-1-i, v <= i < e (negated when e < v), once per
    slot holding it."""
    def row_of(key):
        e, nu, slots = key[0], key[1:], Q.n - 1
        row = [((e - 1,) + nu, b * e)] if b and e else []
        for v in set(padded(nu, slots)) - {e}:
            lo, hi, s = (v, e, a) if e > v else (e, v, -a)
            for i in range(lo, hi):
                q, mult = _replace_part(nu, slots, v, lo + hi - 1 - i)
                row.append(((i,) + q, s * mult))
        return row
    return Q._by_rows(PartSymPoly, Q.n, rows, ("nabla", Q.n, a, b), row_of)


def dict_chain(P, smax, beta, rows=None):
    """dunkl_chain on PartSymPoly entries: Q_0 = D P read on classes by
    substitute_coincident(1) and each step nabla_step."""
    rational = isinstance(beta, Fraction)
    a, b = (beta.numerator, beta.denominator) if rational else (beta, 1)
    D, P = P.cleared() if rational else (1, P)
    chain = [(D, substitute_coincident(P, 1, rows))]
    for _ in range(smax):
        c, Q = chain[-1]
        chain.append((c * b, nabla_step(Q, a, b, rows)))
    return chain


def on_classes(P, chain):
    """The dunkl_chain of P with each entry's positions read back on the
    class keys of its degree, as a PartSymPoly; every entry holds each
    position once, with a nonzero coefficient."""
    degree = max(map(sum, P.terms), default=-1)
    out = []
    for s, (c, Q) in enumerate(chain):
        order = class_table(P.n, degree - s, {})[0]
        assert len({p for p, _ in Q}) == len(Q) and all(x for _, x in Q)
        out.append((c, PartSymPoly(P.n, {order[p]: x for p, x in Q})))
    return out


def random_symmetric(rng, n, degree, nterms):
    """Sum of m_mu with random nonzero coefficients, mu of weight <= degree."""
    parts = [mu for d in range(degree + 1) for mu in partitions_leq(d, n)]
    return MSymPoly(n, {mu: Fraction(rng.choice([-5, -2, -1, 1, 3, 4]),
                                     rng.randint(1, 3))
                        for mu in rng.sample(parts, min(nterms, len(parts)))})


def expanded_w_images(E, t, beta):
    """{m: _w_expanded(E, t, m, beta)} for every m in W_TAGS at once: the
    same sum over j, with each nabla_j^(t-1) E built once for all m."""
    powers = [apply_dunkl_power(E, j, t - 1, beta) for j in range(1, E.n + 1)]
    out = {}
    for tt, m in W_TAGS:
        if tt == t:
            acc = ExpandedPoly.zero(E.n)
            for j, D in enumerate(powers, 1):
                acc = acc + D.mul_var(j, m + t - 1)
            out[m] = acc.to_msym()
    return out


@pytest.mark.parametrize("n", range(1, 7))
def test_w_matches_expanded(n):
    """Every mu with |mu| <= 8 and every (t, m), t <= 4, m <= 4, read off
    one class Dunkl chain per (mu, beta) as apply_w and verify_closure do.

    The oracle runs at the symbolic beta; its value at -1/2 and -3/2 is
    that image evaluated there, which is exact because the input has
    integer coefficients and w is polynomial in beta.
    """
    for nn, mu in GRID:
        if nn != n:
            continue
        P = MSymPoly(n, {mu: 1})
        chains = {b0: on_classes(P, dunkl_chain(P, 3, b0))
                  for b0 in (BETA,) + SPECIAL}
        for t in range(2, 5):
            for m, want in expanded_w_images(P.to_expanded(), t, BETA).items():
                for b0, chain in chains.items():
                    c, Q = chain[t - 1]
                    got = Q.symmetrize(m + t - 1)
                    want_b0 = want if b0 is BETA else at(want, b0)
                    assert got == want_b0.scale(c), (mu, t, m, b0)


def runs_in_z(chain):
    """Every scale c_s and every coefficient of the chain (position lists
    or polynomials) is an int, not merely equal to one."""
    return all(type(c) is int and all(
        type(x) is int for _, x in (Q if isinstance(Q, list)
                                    else Q.terms.items()))
        for c, Q in chain)


@pytest.mark.parametrize("n", range(1, 7))
def test_integer_chain_matches_fraction_chain(n):
    """Entry s of the expanded integer chain is c_s = D b^s times
    nabla_1^s P, with D the common denominator of P and beta = a/b, and
    the class chain is that entry read on classes, as are the dict-row
    chain and the move-by-move chain, each with a fresh memo and with one
    shared across the grid; both run in Z (every c_s and coefficient an
    int).  At a symbolic beta every c_s is 1 and the chains coincide, and
    apply_w reads w^(t)_m off the class chain."""
    rng = random.Random(n)
    shared = {}
    for nn, mu in GRID:
        if nn != n:
            continue
        P = MSymPoly(n, {mu: Fraction(rng.choice([-3, 1, 2]),
                                      rng.choice([1, 2, 6]))})
        for b0 in CHAIN_BETAS:
            want = fraction_dunkl_chain(P, 3, b0)
            got = expanded_dunkl_chain(P, 3, b0)
            D = P.terms[mu].denominator
            for s, ((c, Q), F) in enumerate(zip(got, want)):
                assert c == D * b0.denominator ** s, (mu, b0, s)
                assert Q == F.scale(c), (mu, b0, s)
            classes = [(c, collect_classes(Q)) for c, Q in got]
            assert moves_chain(P, 3, b0) == classes, (mu, b0)
            assert runs_in_z(got), (mu, b0)
            for rows in (None, shared):
                chain = dunkl_chain(P, 3, b0, rows)
                assert on_classes(P, chain) == classes, (mu, b0)
                assert runs_in_z(chain), (mu, b0)
                assert dict_chain(P, 3, b0, rows) == classes, (mu, b0)
    P = MSymPoly(n, {(2, 1)[:n]: BETA + 1})
    want = fraction_dunkl_chain(P, 2, BETA)
    assert expanded_dunkl_chain(P, 2, BETA) == [(1, Q) for Q in want]
    for rows in (None, shared):
        classes = [(1, collect_classes(Q)) for Q in want]
        assert on_classes(P, dunkl_chain(P, 2, BETA, rows)) == classes
        assert dict_chain(P, 2, BETA, rows) == classes
    for t in (2, 3):
        for m in range(-t + 1, 3):
            assert apply_w(P, t, m, BETA) == w_from_chain(want[t - 1], t, m)


@pytest.mark.parametrize("grid", [(k, r, n, 10, 4) for k, r in
                                  ((1, 2), (2, 3), (1, 4))
                                  for n in range(1, 5)]
                         + [(2, 2, 5, 14, 3), (2, 3, 6, 20, 3)])
def test_class_chain_matches_expanded_chain(grid):
    """verify_closure's chains on every basis element, read back on class
    keys, equal the expanded chain, the dict-row chain and the move-by-move
    chain, with a fresh memo and with one shared across the elements:
    criterion 7's grid, (2,2,5,14) and (2,3,6,20), the last two at
    tmax = 3."""
    k, r, n, dmax, tmax = grid
    b0 = beta_value(k, r)
    basis = build_basis(k, r, n, dmax, JackCache())
    shared = {}
    for lam in basis.family.all_partitions():
        P = basis.elements[lam].num
        want = [(c, collect_classes(Q))
                for c, Q in expanded_dunkl_chain(P, tmax - 1, b0)]
        assert moves_chain(P, tmax - 1, b0) == want, lam
        for rows in (None, shared):
            chain = dunkl_chain(P, tmax - 1, b0, rows)
            assert on_classes(P, chain) == want and runs_in_z(chain), lam
            assert dict_chain(P, tmax - 1, b0, rows) == want, lam


def test_chain_steps_match_apply():
    """Each closure tag read off the class chain at (s, shift) is c_s times
    its apply image."""
    tags = closure_tags(4, 4)
    for n, mu in GRID:
        P = MSymPoly(n, {mu: Fraction(3, 2)})
        for b0 in SPECIAL:
            chain = on_classes(P, dunkl_chain(P, 3, b0))
            for tag in tags:
                s, shift = tag.chain_step()
                c, Q = chain[s]
                assert Q.symmetrize(shift) == tag.apply(P, b0).scale(c), \
                    (mu, tag, b0)


def test_l_and_p_match_expanded():
    for n, mu in GRID:
        P = MSymPoly(n, {mu: BETA + 2})
        E = P.to_expanded()
        for m in range(-1, 5):
            assert apply_l(P, m) == _l_expanded(E, m).to_msym(), (mu, m)
            assert OperatorTag("l", m).apply(P, BETA) == apply_l(P, m)
        for m in range(1, 5):
            want = (E * power_sum(m, n).to_expanded()).to_msym()
            assert apply_p(P, m) == want, (mu, m)
            assert OperatorTag("p", m).apply(P, BETA) == want


@pytest.mark.parametrize("beta", [BETA] + list(SPECIAL))
def test_sums_match_expanded(beta):
    """Several m_mu at once, so images of different mu meet and cancel."""
    rng = random.Random(11)
    for _ in range(8):
        n = rng.randint(1, 4)
        P = random_symmetric(rng, n, 6, 5)
        E = P.to_expanded()
        for m in range(-1, 5):
            assert apply_l(P, m) == _l_expanded(E, m).to_msym()
        for m in range(1, 5):
            assert apply_p(P, m) == \
                (E * power_sum(m, n).to_expanded()).to_msym()
        for t, m in W_TAGS:
            want = _w_expanded(E, t, m, beta)
            assert apply_w(P, t, m, beta) == want.to_msym()
        for t in range(2, 5):
            for m, got in expanded_w_images(E, t, beta).items():
                assert got == _w_expanded(E, t, m, beta).to_msym()


def test_argument_checks():
    P = MSymPoly(2, {(1,): 1})
    for bad in (lambda: apply_l(P, -2), lambda: apply_p(P, 0),
                lambda: apply_w(P, 1, 0, BETA),
                lambda: apply_w(P, 3, -3, BETA)):
        with pytest.raises(ValueError):
            bad()


def closure_per_tag(k, r, n, dmax, mmax=4, tmax=4, cache=None):
    """verify_closure with every tag applied on its own (no Dunkl chain)."""
    b0 = beta_value(k, r)
    rep = Report("closure", {"k": k, "r": r, "n": n, "dmax": dmax,
                             "mmax": mmax, "tmax": tmax})
    basis = build_basis(k, r, n, dmax, cache)
    tags = closure_tags(mmax, tmax)
    for lam in basis.family.all_partitions():
        P = basis.get(lam).poly
        d = sum(lam)
        for tag in tags:
            if not 0 <= d + tag.m <= dmax:
                continue
            img = tag.apply(P, b0)
            cert = reduce_membership(img, basis)
            detail = {}
            if not cert.member:
                detail["obstruction"] = list(cert.obstruction)
            rep.add("%s@%s" % (tag, list(lam)), cert.member, **detail)
    return rep


def closure_images(k, r, n, dmax, mmax=4, tmax=4, cache=None):
    """verify_closure with each distinct chain step built as its image, the
    MSymPoly chain[s][1].symmetrize(shift) of the dict-row chain, and its
    verdict read by IdealBasis.obstruction on the image's homogeneous
    components."""
    b0 = beta_value(k, r)
    rep = Report("closure", {"k": k, "r": r, "n": n, "dmax": dmax,
                             "mmax": mmax, "tmax": tmax})
    basis = build_basis(k, r, n, dmax, cache)
    tags = closure_tags(mmax, tmax)
    for lam in basis.family.all_partitions():
        chain = dict_chain(basis.elements[lam].num, tmax - 1, b0)
        found = {}
        for tag in tags:
            if 0 <= sum(lam) + tag.m <= dmax:
                s, shift = step = tag.chain_step()
                if step not in found:
                    found[step] = basis.obstruction(
                        chain[s][1].symmetrize(shift))
                obs = found[step]
                rep.add("%s@%s" % (tag, list(lam)), obs is None,
                        **({} if obs is None else {"obstruction": list(obs)}))
    return rep


CLOSURE_GRIDS = [(k, r, n, 10, 4, 4) for k, r in ((1, 2), (2, 3), (1, 4))
                 for n in range(1, 5)] + [
    (1, 2, 3, 14, 4, 4), (2, 2, 5, 14, 3, 3), (2, 3, 6, 20, 3, 3),
    (3, 2, 6, 14, 3, 3), (2, 2, 6, 16, 3, 3)]


@pytest.mark.parametrize("grid", CLOSURE_GRIDS)
def test_closure_verdicts_match_images(grid):
    """The verdicts read off the chain entries by position equal
    obstruction() on the built images: criterion 7's grid and five grids
    up to n = 6."""
    cache = JackCache()
    want = closure_images(*grid, cache=cache)
    got = verify_closure(*grid, cache=cache)
    assert got.to_obj() == want.to_obj()


def test_closure_verdicts_match_per_tag_loop():
    cache = JackCache()
    for k, r in ((1, 2), (2, 3), (1, 4)):
        for n in range(1, 5):
            want = closure_per_tag(k, r, n, 10, cache=cache)
            got = verify_closure(k, r, n, 10, cache=cache)
            assert got.to_obj() == want.to_obj(), (k, r, n)


def closure_fraction(k, r, n, dmax, mmax=4, tmax=4, cache=None):
    """verify_closure on the Fraction Dunkl chain of the specialized P, with
    the batch-of-maxima reduction."""
    b0 = beta_value(k, r)
    rep = Report("closure", {"k": k, "r": r, "n": n, "dmax": dmax,
                             "mmax": mmax, "tmax": tmax})
    basis = build_basis(k, r, n, dmax, cache)
    tags = closure_tags(mmax, tmax)
    for lam in basis.family.all_partitions():
        P = basis.get(lam).poly
        chain = fraction_dunkl_chain(P, tmax - 1, b0)
        d = sum(lam)
        for tag in tags:
            if not 0 <= d + tag.m <= dmax:
                continue
            if tag.kind == "w":
                img = w_from_chain(chain[tag.t - 1], tag.t, tag.m)
            else:
                img = tag.apply(P, b0)
            cert = batch_reduce(img, basis)
            detail = {}
            if not cert.member:
                detail["obstruction"] = list(cert.obstruction)
            rep.add("%s@%s" % (tag, list(lam)), cert.member, **detail)
    return rep


@pytest.mark.parametrize("grid", [(2, 2, 4, 12, 4, 4), (2, 3, 3, 14, 4, 4),
                                  (2, 2, 5, 10, 3, 3)])
def test_closure_verdicts_match_fraction_chain(grid):
    k, r, n, dmax, mmax, tmax = grid
    cache = JackCache()
    want = closure_fraction(k, r, n, dmax, mmax, tmax, cache=cache)
    got = verify_closure(k, r, n, dmax, mmax, tmax, cache=cache)
    assert got.to_obj() == want.to_obj()
    assert got.all_pass()


def test_closure_verdicts_match_fraction_chain_criterion_7():
    cache = JackCache()
    for k, r in ((1, 2), (2, 3), (1, 4)):
        for n in range(1, 5):
            want = closure_fraction(k, r, n, 10, cache=cache)
            got = verify_closure(k, r, n, 10, cache=cache)
            assert got.to_obj() == want.to_obj(), (k, r, n)


ROW_GRIDS = [(k, r, n, 10, 4, 4) for k, r in ((1, 2), (2, 3), (1, 4))
             for n in range(1, 5)] + [(3, 2, 6, 14, 4, 4)]


@pytest.mark.parametrize("grid", ROW_GRIDS)
def test_memoized_class_steps_match_moves(grid):
    """Every chain entry verify_closure builds and every coincidence
    x_1 = ... = x_c = t of an element by coincident_row, c <= n, read back
    on class keys, equal the move-by-move steps and the dict-row chain:
    with a fresh memo per call and with one memo shared across the
    elements of the grid, as verify_closure and verify_wheel share it.
    The bare Dunkl sum, (a, b) = (1, 0), of every entry by position equals
    the dict-row step's and the moves'.  Both chains run in Z.  Entry 0 is
    symmetric in x_1, so its bare Dunkl sum vanishes and entry 1, the step
    b d_t alone, equals the full step nabla_positions at (a, b)."""
    k, r, n, dmax, mmax, tmax = grid
    b0 = beta_value(k, r)
    basis = build_basis(k, r, n, dmax, CACHE)
    shared = {}
    for lam in basis.family.all_partitions():
        P = basis.elements[lam].num
        want = moves_chain(P, tmax - 1, b0)
        for rows in (None, shared):
            chain = dunkl_chain(P, tmax - 1, b0, rows)
            assert on_classes(P, chain) == want and runs_in_z(chain), lam
            assert dict_chain(P, tmax - 1, b0, rows) == want, lam
        assert moves_dunkl_sum(want[0][1]).is_zero(), lam
        assert chain[1][1] == nabla_positions(
            chain[0][1], n, sum(lam), b0.numerator, b0.denominator, {}), lam
        for c, Q in want:
            for rows in (None, shared):
                assert position_nabla(Q, 1, 0, rows) == moves_dunkl_sum(Q), \
                    lam
                assert nabla_step(Q, 1, 0, rows) == moves_dunkl_sum(Q), lam
        for cc in range(1, n + 1):
            for rows in (None, shared):
                assert coincident_classes(P, cc, rows) == \
                    moves_coincident(P, cc), (lam, cc)


def test_closure_fills_each_class_position_once(monkeypatch):
    """verify_closure's class -> normal-form map is one list per image
    degree d, shared by every shift: on (1,2,3,14) with a fresh cache each
    (degree, position), that is each class key, is filled at most once,
    which bounds the fills by the 372 class keys of degree <= 14; a list
    per (degree, shift) made 1,241."""
    real, fills = jackideal.ideal._replace_part, []

    def counted(nu, n, v, w):
        fills.append((nu, w))
        return real(nu, n, v, w)
    monkeypatch.setattr(jackideal.ideal, "_replace_part", counted)
    assert verify_closure(1, 2, 3, 14, 4, 4, cache=JackCache()).all_pass()
    keys = sum(len(class_table(3, d, {})[0]) for d in range(15))
    assert keys == 372
    assert len(set(fills)) == len(fills) <= keys


def dict_normal_forms(basis, e):
    """(cols, rows): normal_forms(e) with its rows as dicts keyed by
    partition, rows[mu] = {j: x}, built the same way over the same
    elements."""
    cols, lams = [], []
    for mu in partitions_leq(e, basis.n):
        (lams if mu in basis.elements else cols).append(mu)
    rows = {mu: {j: 1} for j, mu in enumerate(cols)}
    for lam in reversed(lams):
        D, N = basis.elements[lam].cleared()
        acc = {}
        for mu, x in N.terms.items():
            for j, y in rows.get(mu, {}).items():
                acc[j] = acc.get(j, 0) - x * y
        g = gcd(D, *acc.values())
        if g != D:
            for row in rows.values():
                for j in row:
                    row[j] *= D // g
        rows[lam] = {j: y // g for j, y in acc.items() if y}
    return cols, rows


def symmetrize_terms(Q, shift):
    """The terms (mu, c x) of Q.symmetrize(shift), one per class key of Q
    and not yet collected per mu."""
    for key, c in Q.terms.items():
        mu, x = _replace_part(key[1:], Q.n, 0, key[0] + shift)
        yield mu, c * x


def dict_obstruction(table, terms):
    """The obstruction of sum c m_mu over the (mu, c) of terms: collected
    per mu in a dict, the lex-largest column of the dict-row table where
    sum_mu c_mu E NF(m_mu) is nonzero, None when it vanishes."""
    cols, rows = table
    coeffs = {}
    for mu, c in terms:
        coeffs[mu] = coeffs.get(mu, 0) + c
    acc = [0] * len(cols)
    for mu, c in coeffs.items():
        if c:
            for j, y in rows[mu].items():
                acc[j] += c * y
    for j, y in enumerate(acc):
        if y:
            return cols[j]
    return None


def closure_dict_rows(k, r, n, dmax, mmax=4, tmax=4, cache=None):
    """verify_closure with each verdict read by dict_obstruction off the
    symmetrize terms of the dict-row chain entry and the dict-row table."""
    b0 = beta_value(k, r)
    rep = Report("closure", {"k": k, "r": r, "n": n, "dmax": dmax,
                             "mmax": mmax, "tmax": tmax})
    basis = build_basis(k, r, n, dmax, cache)
    tags = closure_tags(mmax, tmax)
    tables, rows = {}, {}
    for lam in basis.family.all_partitions():
        chain = dict_chain(basis.elements[lam].num, tmax - 1, b0, rows)
        found = {}
        for tag in tags:
            d = sum(lam) + tag.m
            if 0 <= d <= dmax:
                s, shift = step = tag.chain_step()
                if step not in found:
                    if d not in tables:
                        tables[d] = dict_normal_forms(basis, d)
                    found[step] = dict_obstruction(
                        tables[d], symmetrize_terms(chain[s][1], shift))
                obs = found[step]
                rep.add("%s@%s" % (tag, list(lam)), obs is None,
                        **({} if obs is None else {"obstruction": list(obs)}))
    return rep


@pytest.mark.parametrize("grid", CLOSURE_GRIDS)
def test_closure_verdicts_match_dict_rows(grid):
    """The verdicts summed by position and scattered over rows keyed by
    position equal the dict-row route's, and each degree's position table
    holds the dict table's rows: the grids of
    test_closure_verdicts_match_images."""
    cache = JackCache()
    want = closure_dict_rows(*grid, cache=cache)
    got = verify_closure(*grid, cache=cache)
    assert got.to_obj() == want.to_obj()
    basis = build_basis(*grid[:4], cache=cache)
    for d in range(grid[3] + 1):
        cols, pos, rows = basis.normal_forms(d)
        want_cols, want_rows = dict_normal_forms(basis, d)
        assert cols == want_cols, d
        assert {mu: dict(rows[i]) for mu, i in pos.items()} == want_rows, d


def one_bare_monomial(lam):
    """A jack_at_key, build_basis's route to each element, that gives the
    admissible lam its bare m_lam, which has P_lam's leading term, and
    every other partition its Jack."""
    real = jackideal.basis.jack_at_key

    def jack_at_key(mu, n, beta0, cache):
        sp = real(mu, n, beta0, cache)
        if sp.lam != lam:
            return sp
        return SpecializedJack(mu, n, sp.beta0, 1,
                               MSymPoly(n, {lam: 1}))
    return jack_at_key


@pytest.mark.parametrize("grid, lam", [((1, 2, 3, 10), (4, 2)),
                                       ((2, 3, 4, 10), (4, 3, 1)),
                                       ((2, 2, 4, 12), (4, 2, 2))])
def test_closure_with_non_members_matches_per_tag_loop(monkeypatch, grid,
                                                       lam):
    """With one Jack replaced by its bare m_lam the span is no longer an
    ideal: some images fail, and the table's verdicts and obstructions,
    read off the chain entries by position, off the built images or by the
    dict-row route, equal reduce_membership's on the per-tag loop, case by
    case."""
    monkeypatch.setattr(jackideal.basis, "jack_at_key", one_bare_monomial(lam))
    cache = JackCache()
    want = closure_per_tag(*grid, cache=cache)
    got = verify_closure(*grid, cache=cache)
    assert got.to_obj() == want.to_obj()
    assert closure_images(*grid, cache=cache).to_obj() == want.to_obj()
    assert closure_dict_rows(*grid, cache=cache).to_obj() == want.to_obj()
    assert not got.all_pass()
    assert any("obstruction" in case["detail"]
               for case in got.to_obj()["cases"])


def test_closure_with_non_members_at_n_5(monkeypatch):
    """The bare-monomial mutation at n = 5 with mmax = tmax = 4: the
    position-indexed verdicts and obstructions equal those of the built
    images and of the dict-row route, and some case fails with an
    obstruction."""
    grid = (3, 2, 5, 12, 4, 4)
    monkeypatch.setattr(jackideal.basis, "jack_at_key",
                        one_bare_monomial((3, 3, 1)))
    cache = JackCache()
    want = closure_images(*grid, cache=cache)
    got = verify_closure(*grid, cache=cache)
    assert got.to_obj() == want.to_obj()
    assert closure_dict_rows(*grid, cache=cache).to_obj() == want.to_obj()
    assert any(case["status"] == "fail" and "obstruction" in case["detail"]
               for case in got.to_obj()["cases"])
