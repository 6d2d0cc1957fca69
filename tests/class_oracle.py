"""The dict class form t^a m_nu, kept as the reference for the class
positions in `operators` (class_table, coincident_row, nabla_positions).

PartSymPoly maps (a,) + nu to the coefficient of t^a m_nu(x_2, ..., x_n):
the image of x_1 = ... = x_c = t or, with t = x_1, a Dunkl chain entry
nabla_1^s P of a symmetric P on class keys.  Its class steps (cluster and
symmetrize) are sparse linear maps whose row for a key depends on the key
and n alone; each row is built once into a memo dict the caller holds
(`rows`).  substitute_coincident(P, c, rows) is x_1 = ... = x_c = t on an
MSymPoly P, one cluster(c); expanded_coincident(E, c) is the same
coincidence on the monomials of an ExpandedPoly E."""

from itertools import combinations

from jackideal.expanded import ExpandedPoly
from jackideal.partitions import as_partition, padded
from jackideal.sympoly import MSymPoly, _SparsePoly, _replace_part, orbit_size


class PartSymPoly(_SparsePoly):
    """Polynomial in (t, x_2, ..., x_n) symmetric in the x's, as a dict
    {(a,) + nu: coefficient} for t^a m_nu(x_2, ..., x_n), nu a partition
    with at most n - 1 parts.  Treat as frozen."""

    __slots__ = ()
    BASIS, KEY = "partsym", "class"

    @staticmethod
    def _key(key, n):
        key = tuple(key)
        if (not key or type(key[0]) is not int or key[0] < 0 or len(key) > n
                or as_partition(key[1:]) != key[1:]):
            raise ValueError("bad class key %r for n=%r" % (key, n))
        return key

    def cluster(self, c=1, rows=None):
        """Set x_2 = ... = x_(c+1) = t as well: each multiset S of c entries
        of nu padded to n - 1 slots sends t^a m_nu to t^(a+|S|) m_(nu minus S),
        once per arrangement of S in the c slots, c!/prod mult_S(v)! times.
        `rows` is the caller's class-step memo, as in symmetrize."""
        if not 1 <= c < self.n:
            raise ValueError("need 1 <= c < n")

        def row_of(key):
            row = []
            for S in set(combinations(padded(key[1:], self.n - 1), c)):
                nu = list(key[1:])
                for v in S:
                    if v:
                        nu.remove(v)
                row.append(((key[0] + sum(S),) + tuple(nu),
                            orbit_size(S, c)))
            return row
        return self._by_rows(PartSymPoly, self.n - c, rows,
                             ("cluster", self.n, c), row_of)

    def partial_t(self):
        return self._raw(self.n, {(k[0] - 1,) + k[1:]: c * k[0]
                                  for k, c in self.terms.items() if k[0]})

    def _by_rows(self, cls, n, rows, name, row_of):
        """sum_key c_key row_of(key) as a cls in n variables, each row
        ((key', x), ...) built once into rows[name], the caller's memo
        (made here when none is given)."""
        memo = {} if rows is None else rows.setdefault(name, {})
        out = {}
        for key, c in self.terms.items():
            row = memo.get(key)
            if row is None:
                row = memo[key] = row_of(key)
            for q, x in row:
                out[q] = out.get(q, 0) + c * x
        return cls._raw(n, {q: c for q, c in out.items() if c})

    def symmetrize(self, shift, rows=None):
        """sum_j x_j^shift K_1j as an MSymPoly (shift >= 0): t^e m_nu gives
        m_(nu + (e + shift)) once per slot of it padded to n holding e + shift."""
        if shift < 0:
            raise ValueError("symmetrize needs shift >= 0")
        return self._by_rows(
            MSymPoly, self.n, rows, ("symmetrize", self.n, shift),
            lambda key: (_replace_part(key[1:], self.n, 0, key[0] + shift),))

    def sorted_terms(self):
        return sorted(self.terms.items(), reverse=True)


def substitute_coincident(P, c, rows=None):
    """Set x_1 = ... = x_c = t in the MSymPoly P, as a PartSymPoly in
    (t, x_{c+1}, ..., x_n): cluster(c, rows) of P read in (t, x_1, ..., x_n),
    free of t."""
    if not 1 <= c <= P.n:
        raise ValueError("need 1 <= c <= n")
    lifted = {(0,) + lam: v for lam, v in P.terms.items()}
    return PartSymPoly._raw(P.n + 1, lifted).cluster(c, rows)


def expanded_coincident(E, c):
    """Set x_1 = ... = x_c = t in the ExpandedPoly E; the result lives in
    variables (t, x_{c+1}, ..., x_n)."""
    if not 1 <= c <= E.n:
        raise ValueError("need 1 <= c <= n")
    return ExpandedPoly._collect(E.n - c + 1, (((sum(e[:c]),) + e[c:], v)
                                               for e, v in E.terms.items()))
