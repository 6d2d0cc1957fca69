"""Spans and counters for the traced benchmark run, recorded from outside
the jackideal package.

`install()` wraps public functions and methods of the package.  A function
is replaced under every name in the package's modules that refers to it,
because modules bind their own copies (ideal.py imports jack_symbolic,
specialize and dominated_by; jack.py imports dominated_by), so patching
only the defining module would miss those calls.  Spans (name, start, end,
parent index) are kept in memory while the tracer is active and written out
by `dump`; `layer_metrics` turns a dump into the per-layer metrics, with a
layer's self time taken as its spans' durations minus their child spans.
Arithmetic methods of BetaPoly and BetaRatFunc only count calls.
cli_child.py runs the CLI under the tracer.
"""

import functools
import json
import os
import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

class Tracer:
    """Records spans and counts while `active` is true."""

    def __init__(self):
        self.active = False
        self.spans = []          # [name, start, end, parent index or -1]
        self._stack = []
        self.counts = defaultdict(int)
        self.disk_load_s = 0.0
        self._jacks = {}         # (lam, n) -> JackPoly returned while active
        self._cached = set()     # (id(cache), lam, n) known to be in memory
        self._disk_dirs = set()

    def span(self, name, fn, after=None):
        """Wrap fn in a span; `after(out, args, record)` runs once it ends."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(out, args, rec)
            return out
        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def add(self, name, value):
        self.counts[name] += value

    # -- hooks -------------------------------------------------------------

    def _cache_put(self, fn):
        @functools.wraps(fn)
        def wrapper(cache, jp, *args, **kwargs):
            # recorded while inactive too: setup fills the caches
            self._cached.add((id(cache), jp.lam, jp.n))
            return fn(cache, jp, *args, **kwargs)
        return wrapper

    def _cache_get(self, fn):
        # a hit on a key this process never held in memory came from disk
        inner = self.span("jack.cache.get", fn)

        @functools.wraps(fn)
        def wrapper(cache, lam, n, *args, **kwargs):
            if not self.active:
                return fn(cache, lam, n, *args, **kwargs)
            held = (id(cache), lam, n) in self._cached
            idx = len(self.spans)
            out = inner(cache, lam, n, *args, **kwargs)
            if out is None:
                self.counts["jack.cache.misses"] += 1
            elif held or not cache.directory:
                self.counts["jack.cache.mem_hits"] += 1
            else:
                self.counts["jack.cache.disk_hits"] += 1
                rec = self.spans[idx]
                self.disk_load_s += rec[2] - rec[1]
                self._disk_dirs.add(cache.directory)
                self._cached.add((id(cache), lam, n))
            return out
        return wrapper

    def _tag_apply(self, fn):
        p_span = self.span("operators.p", fn)

        @functools.wraps(fn)
        def wrapper(tag, P, beta):
            out = (p_span if tag.kind == "p" else fn)(tag, P, beta)
            if self.active:
                self.counts["operators.image_terms"] += len(out.terms)
            return out
        return wrapper

    def _record_jack(self, jp, args, rec):
        self._jacks[(jp.lam, jp.n)] = jp

    # -- output ------------------------------------------------------------

    def coefficient_growth(self):
        """(max beta degree, max bit length) over the coefficients of every
        Jack returned while active."""
        deg = bits = 0
        for jp in self._jacks.values():
            for u in jp.msym().terms.values():
                for p in (u.num, u.den):
                    deg = max(deg, p.degree)
                    for c in p.coeffs:
                        q = Fraction(c)
                        bits = max(bits, q.numerator.bit_length(),
                                   q.denominator.bit_length())
        return deg, bits

    def disk_bytes(self):
        """Size of the on-disk caches this process read from."""
        total = 0
        for d in self._disk_dirs:
            for name in os.listdir(d):
                path = os.path.join(d, name)
                if os.path.isfile(path):
                    total += os.path.getsize(path)
        return total

    def dump(self, path):
        deg, bits = self.coefficient_growth()
        obj = {"spans": self.spans, "counts": self.counts,
               "disk_load_s": self.disk_load_s,
               "disk_bytes": self.disk_bytes(),
               "max_beta_degree": deg, "max_bits": bits}
        with open(path, "w") as fh:
            json.dump(obj, fh)


def _replace(namespaces, orig, new):
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            if value is orig:
                setattr(ns, attr, new)


def install():
    """Wrap the package's public functions; returns the (inactive) tracer."""
    from jackideal import cli, ideal, jack, operators, partitions, ratfunc, sympoly

    t = Tracer()
    modules = [m for name, m in list(sys.modules.items())
               if name == "jackideal" or name.startswith("jackideal.")]

    def fn(module, attr, make):
        orig = getattr(module, attr, None)
        if orig is not None:
            _replace(modules, orig, make(orig))

    def method(cls, attr, make):
        orig = cls.__dict__.get(attr)
        if orig is not None:
            _replace([cls], orig, make(orig))

    def span(name, after=None):
        return lambda f: t.span(name, f, after)

    def count(name):
        return lambda f: t.counter(name, f)

    def add_len(name):
        return lambda out, args, rec: t.add(name, len(out.terms))

    fn(jack, "jack_symbolic", span("jack.solve", t._record_jack))
    fn(jack, "hamiltonian_matrix_row", span("jack.hrow"))
    fn(jack, "specialize", span("jack.specialize"))
    method(jack.JackCache, "get", t._cache_get)
    method(jack.JackCache, "put", t._cache_put)
    fn(operators, "apply_hamiltonian", span("operators.hamiltonian"))
    fn(operators, "apply_w", span("operators.w"))
    fn(operators, "apply_l", span("operators.l"))
    method(operators.OperatorTag, "apply", t._tag_apply)
    method(sympoly.MSymPoly, "to_expanded",
           span("sympoly.to_expanded", add_len("sympoly.to_expanded.terms_out")))
    method(sympoly.ExpandedPoly, "to_msym", span("sympoly.to_msym"))
    method(sympoly.MSymPoly, "multiply", span("sympoly.multiply"))
    fn(ideal, "reduce_membership",
       span("ideal.reduce",
            lambda out, args, rec: t.add("ideal.reduce.nonmembers",
                                         not out.member)))
    fn(ideal, "bareiss_rank", span("ideal.bareiss"))
    fn(ideal, "build_basis", span("ideal.build_basis"))
    fn(cli, "emit", span("cli.emit"))
    method(ratfunc.BetaPoly, "__mul__", count("ratfunc.poly_mul.calls"))
    method(ratfunc.BetaPoly, "__divmod__", count("ratfunc.poly_divmod.calls"))
    method(ratfunc.BetaRatFunc, "__init__", count("ratfunc.ratfunc_new.calls"))
    fn(partitions, "dominated_by", count("partitions.dominated_by.calls"))
    return t


def layer_metrics(dump):
    """Per-layer metrics (name -> value) of one traced timed phase."""
    incl = defaultdict(float)
    in_children = defaultdict(float)
    calls = defaultdict(int)
    spans = dump["spans"]
    for name, start, end, parent in spans:
        incl[name] += end - start
        calls[name] += 1
        if parent >= 0:
            in_children[spans[parent][0]] += end - start

    def self_time(name):
        return incl[name] - in_children[name]

    c = defaultdict(int, dump["counts"])
    return {
        "jack.solve.self_s": self_time("jack.solve"),
        "jack.solve.calls": calls["jack.solve"],
        "jack.hrow.s": incl["jack.hrow"],
        "jack.hrow.calls": calls["jack.hrow"],
        "operators.hamiltonian.s": incl["operators.hamiltonian"],
        "jack.specialize.s": self_time("jack.specialize"),
        "jack.specialize.calls": calls["jack.specialize"],
        "jack.cache.mem_hits": c["jack.cache.mem_hits"],
        "jack.cache.disk_hits": c["jack.cache.disk_hits"],
        "jack.cache.misses": c["jack.cache.misses"],
        "jack.cache.disk_load_s": dump["disk_load_s"],
        "jack.cache.disk_bytes": dump["disk_bytes"],
        "ratfunc.poly_mul.calls": c["ratfunc.poly_mul.calls"],
        "ratfunc.poly_divmod.calls": c["ratfunc.poly_divmod.calls"],
        "ratfunc.ratfunc_new.calls": c["ratfunc.ratfunc_new.calls"],
        "ratfunc.coeff.max_beta_degree": dump["max_beta_degree"],
        "ratfunc.coeff.max_bits": dump["max_bits"],
        "sympoly.to_expanded.s": incl["sympoly.to_expanded"],
        "sympoly.to_expanded.terms_out": c["sympoly.to_expanded.terms_out"],
        "sympoly.to_msym.s": incl["sympoly.to_msym"],
        "sympoly.multiply.s": incl["sympoly.multiply"],
        "operators.w.s": incl["operators.w"],
        "operators.w.calls": calls["operators.w"],
        "operators.l.s": incl["operators.l"],
        "operators.p.s": incl["operators.p"],
        "operators.image_terms": c["operators.image_terms"],
        "ideal.reduce.s": incl["ideal.reduce"],
        "ideal.reduce.calls": calls["ideal.reduce"],
        "ideal.reduce.nonmembers": c["ideal.reduce.nonmembers"],
        "ideal.bareiss.s": incl["ideal.bareiss"],
        "ideal.build_basis.s": incl["ideal.build_basis"],
        "partitions.dominated_by.calls": c["partitions.dominated_by.calls"],
        "cli.emit.s": incl["cli.emit"],
    }

