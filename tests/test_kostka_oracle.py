"""Oracle for jack_symbolic that shares no code with the Hamiltonian.

At beta = 1 the Jack polynomial P_lam is the Schur polynomial s_lam, whose
m-coefficients are the Kostka numbers K_{lam,mu}: the number of semistandard
tableaux of shape lam and content mu.  kostka counts them by peeling off the
entries equal to the largest letter, which form a horizontal strip.
"""

from functools import lru_cache

from hypothesis import given, settings, strategies as st

from jackideal.jack import JackCache
from jackideal.partitions import partitions_leq
from jackideal.symbolic import jack_symbolic

CACHE = JackCache()


def _strip_removals(lam, size):
    """Partitions nu with lam/nu a horizontal strip of `size` boxes, i.e.
    lam_(i+1) <= nu_i <= lam_i for every row i."""
    def rows(i, left):
        if i == len(lam):
            if not left:
                yield ()
            return
        low = lam[i + 1] if i + 1 < len(lam) else 0
        for part in range(max(low, lam[i] - left), lam[i] + 1):
            for rest in rows(i + 1, left - (lam[i] - part)):
                yield (part,) + rest
    for nu in rows(0, size):
        yield tuple(p for p in nu if p)


@lru_cache(maxsize=None)
def kostka(lam, mu):
    """Semistandard tableaux of shape lam with content mu."""
    if not mu:
        return int(not lam)
    return sum(kostka(nu, mu[:-1]) for nu in _strip_removals(lam, mu[-1]))


def test_kostka_small_values():
    assert kostka((3, 1), (1, 1, 1, 1)) == 3
    assert kostka((3, 2, 1), (2, 2, 1, 1)) == 4
    assert kostka((2, 2), (3, 1)) == 0
    assert kostka((4,), (2, 1, 1)) == 1


@st.composite
def partitions_and_n(draw):
    n = draw(st.integers(1, 5))
    d = draw(st.integers(0, 9))
    return draw(st.sampled_from(partitions_leq(d, n))), n


@settings(max_examples=60, deadline=None)
@given(partitions_and_n())
def test_schur_at_beta_one(case):
    lam, n = case
    got = jack_symbolic(lam, n, CACHE).at(1).terms
    want = {mu: kostka(lam, mu) for mu in partitions_leq(sum(lam), n)}
    assert got == {mu: k for mu, k in want.items() if k}, (lam, n)
