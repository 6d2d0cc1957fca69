"""The JSON objects and text lines that `ideal basis`, its `--out` files
and `jack --k --r` printed when each element was built as a dict and the
whole output dumped at once, kept as the reference for the per-element
writers SpecializedJack.to_json and to_text."""

from math import gcd

from jackideal.sympoly import MSymPoly


def specialized_to_obj(sp):
    """The JSON form of sp.poly with k, r and beta: each x/den reduced by
    one gcd."""
    terms = []
    for mu, x in sp.num.sorted_terms():
        g = gcd(x, sp.den)
        terms.append({MSymPoly.KEY: list(mu), "coeff": {
            "num": str(x // g), "den": str(sp.den // g)}})
    return {"n": sp.n, "basis": MSymPoly.BASIS, "terms": terms,
            "k": sp.k, "r": sp.r, "beta": {
                "num": sp.beta0.numerator,
                "den": sp.beta0.denominator}}


def basis_obj(basis):
    """The `ideal basis` JSON object."""
    return {"k": basis.k, "r": basis.r, "n": basis.n, "dmax": basis.dmax,
            "character": basis.character(),
            "elements": [specialized_to_obj(e) for e in basis]}


def basis_lines(basis):
    """The `ideal basis --format text` lines."""
    return ["%s: %s" % (list(e.lam), e.poly) for e in basis]


def degree_obj(basis, d):
    """The object of the `--out` file degree_NN.json of degree d."""
    return {"k": basis.k, "r": basis.r, "n": basis.n, "degree": d,
            "elements": [specialized_to_obj(basis.get(lam))
                         for lam in basis.by_degree(d)]}
