"""Command-line front end.

Exit codes: 0 success / all suite cases pass; 1 verification failure or
mathematical obstruction (pole, non-member); 2 usage error, or an operation
that would exceed sympoly.TERM_BUDGET terms.

Only the integer core (partitions, sympoly, jack, basis) is imported here;
the Q(beta) layer (ratfunc, symbolic), the monomial layer (expanded) and
each suite's module (VERIFY_SUITES) on use.  The suites in ideal (closure,
restriction, wheel, phi3) run on the core alone; those in identities, and
commutators in expanded, bring in the Q(beta) layer.
"""

import argparse
import json
import sys
from fractions import Fraction
from importlib import import_module
from itertools import takewhile

from .partitions import (InvalidParameters, as_partition,
                         enumerate_admissible, is_admissible)
from .sympoly import MSymPoly, TermBudgetExceeded, rat_to_obj
from .jack import JackCache, SpecializationPole, jack_at, specialize
from .basis import build_basis, reduce_membership


class UsageError(Exception):
    pass


def parse_partition(text, n=None):
    """The --lambda partition; with n, also checks it fits in n variables."""
    if text in ("", "0", "[]"):
        return ()
    try:
        lam = as_partition(int(p) for p in text.split(","))
    except ValueError as exc:
        raise UsageError("bad partition %r: %s" % (text, exc))
    if n is not None and len(lam) > n:
        raise UsageError("partition %r has more than n=%d parts" % (lam, n))
    return lam


def parse_beta(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError("bad beta %r: %s" % (text, exc))


def emit(obj, fmt, text_lines=None, elements=None):
    """Print obj as one line of JSON or, for text, each of text_lines (by
    default that JSON line).  elements, JSON texts, are printed as the
    dict obj's last key "elements", each as soon as it is made, so the
    bytes are those of the whole object's json.dumps but it is never
    built; text_lines is consumed as it comes too."""
    if fmt == "text":
        for line in (text_lines if text_lines is not None else
                     [json.dumps(obj)]):
            print(line)
    elif elements is None:
        print(json.dumps(obj))
    else:
        write = sys.stdout.write
        write(json.dumps(obj)[:-1] + ', "elements": [')
        sep = ""
        for text in elements:
            write(sep + text)
            sep = ", "
        write("]}\n")


# add_common's names: a trailing "?" makes the option optional
COMMON_OPTIONS = {
    "k": ("--k", {"type": int}), "r": ("--r", {"type": int}),
    "n": ("--n", {"type": int}), "dmax": ("--dmax", {"type": int}),
    "lambda": ("--lambda", {"dest": "lam",
                            "help": "partition as comma-separated parts"}),
    "cache": ("--cache-dir", {"dest": "cache_dir"}),
}


def add_common(sub, *names):
    for name in names:
        flag, kw = COMMON_OPTIONS[name.rstrip("?")]
        sub.add_argument(flag, required=not name.endswith("?"), **kw)
    sub.add_argument("--format", choices=("json", "text"), default="json")


def build_parser(argv=None):
    """The parser with every command and its help text; subcommands only
    under the command argv's first word names (all where it names none),
    options only on the parsers argv's words before its first option name,
    one per level: --help and usage errors read only parsers built whole."""
    lead = list(takewhile(lambda word: not word.startswith("-"), argv or ()))

    def add(parsers, *path, **kw):  # its parser, or one that drops options
        parser = parsers.add_parser(path[-1], **kw)
        if all(i >= len(lead) or lead[i] == w for i, w in enumerate(path)):
            return parser
        return argparse.Namespace(add_argument=lambda *args, **kwargs: None)

    ap = argparse.ArgumentParser(
        prog="jackideal",
        description="Exact Jack polynomials and their admissible-partition "
                    "span at beta = -(r-1)/(k+1)")
    sp = ap.add_subparsers(dest="command", required=True)

    s = add(sp, "partitions", help="enumerate admissible partitions "
                                   "or test one")
    add_common(s, "k", "r", "n", "lambda?")
    s.add_argument("--dmax", type=int)

    s = add(sp, "character", help="admissible count per degree")
    add_common(s, "k", "r", "n", "dmax")

    s = add(sp, "jack", help="compute one Jack polynomial")
    add_common(s, "lambda", "n", "k?", "r?", "cache?")
    s.add_argument("--symbolic", action="store_true")
    s.add_argument("--beta", help="rational evaluation point p/q "
                                  "(write --beta=-1/2 for negatives)")

    s = add(sp, "specialize-principal",
            help="product formula for the all-ones value")
    add_common(s, "lambda", "n")
    s.add_argument("--beta", help="rational evaluation point p/q "
                                  "(write --beta=-1/2 for negatives)")

    s = sp.add_parser("ideal", help="basis construction and membership")
    if lead[:1] in ([], ["ideal"]):
        isp = s.add_subparsers(dest="ideal_command", required=True)
        b = add(isp, "ideal", "basis")
        add_common(b, "k", "r", "n", "dmax", "cache?")
        b.add_argument("--out", help="directory for per-degree JSON files")
        m = add(isp, "ideal", "member")
        add_common(m, "k", "r", "n", "dmax", "cache?")
        m.add_argument("--input", default="-",
                       help="polynomial JSON file, '-' for stdin")

    s = sp.add_parser("verify", help="run a verification suite")
    if lead[:1] not in ([], ["verify"]):
        return ap
    vsp = s.add_subparsers(dest="suite", required=True)

    v = add(vsp, "verify", "commutators")
    v.add_argument("--n", type=int, default=3)
    v.add_argument("--dmax", type=int, default=5)
    v.add_argument("--trials", type=int, default=25)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--tmax", type=int, default=3)
    v.add_argument("--format", choices=("json", "text"), default="json")

    for name in ("pieri", "lassalle"):
        v = add(vsp, "verify", name)
        add_common(v, "n", "dmax", "k?", "r?", "cache?")

    v = add(vsp, "verify", "closure")
    add_common(v, "k", "r", "n", "dmax", "cache?")
    v.add_argument("--mmax", type=int, default=4)
    v.add_argument("--tmax", type=int, default=4)

    v = add(vsp, "verify", "restriction")
    add_common(v, "k", "r", "n", "dmax", "cache?")
    v.add_argument("--jmax", type=int, default=2)

    v = add(vsp, "verify", "regularity")
    add_common(v, "k", "r", "n", "dmax", "cache?")

    v = add(vsp, "verify", "wheel")
    add_common(v, "k", "n", "dmax", "cache?")

    v = add(vsp, "verify", "phi3")
    add_common(v, "r", "cache?")

    v = add(vsp, "verify", "sekiguchi")
    add_common(v, "n", "dmax", "cache?")
    return ap


def read_poly(path, n, dmax):
    """The membership input over Q, in n variables and of degree <= dmax."""
    if path == "-":
        obj = json.load(sys.stdin)
    else:
        with open(path) as fh:
            obj = json.load(fh)
    try:
        if obj.get("basis") == "expanded":
            from .expanded import ExpandedPoly
            P = ExpandedPoly.from_obj(obj).to_msym()
        else:
            P = MSymPoly.from_obj(obj)
    except (AttributeError, KeyError, TypeError, ValueError,
            ZeroDivisionError) as exc:
        raise UsageError("bad polynomial input: %s" % exc)
    if P.n != n:
        raise UsageError("input polynomial has n=%d, not %d" % (P.n, n))
    if not all(isinstance(c, (int, Fraction)) for c in P.terms.values()):
        raise UsageError("input polynomial needs rational coefficients")
    degree = max(map(sum, P.terms), default=0)
    if degree > dmax:
        raise UsageError("input polynomial has degree %d, above --dmax %d"
                         % (degree, dmax))
    return P


def run_report(suite, rep, fmt):
    # a report with no cases would pass vacuously
    if not rep.cases:
        raise UsageError("verify %s has no cases for these parameters"
                         % suite)
    emit(rep.to_obj(), fmt, rep.text_lines() if fmt == "text" else None)
    return 0 if rep.all_pass() else 1


# suite -> (module, function, its arguments: option names and the cache);
# those in ideal run on the integer core alone, the rest add Q(beta) code
VERIFY_SUITES = {
    "commutators": ("expanded", "verify_commutators",
                    "n dmax trials seed tmax"),
    "pieri": ("identities", "verify_pieri", "n dmax k r cache"),
    "lassalle": ("identities", "verify_lassalle", "n dmax k r cache"),
    "closure": ("ideal", "verify_closure", "k r n dmax mmax tmax cache"),
    "restriction": ("ideal", "verify_restriction", "k r n dmax jmax cache"),
    "regularity": ("identities", "verify_regularity", "k r n dmax cache"),
    "wheel": ("ideal", "verify_wheel", "k n dmax cache"),
    "phi3": ("ideal", "verify_phi3", "r cache"),
    "sekiguchi": ("identities", "verify_eigensystem", "n dmax cache"),
}


# below these the suites would drop whole case families and pass vacuously
KNOB_MINIMUMS = {"trials": 1, "jmax": 0, "mmax": 1, "tmax": 2}


def run(args):
    fmt = getattr(args, "format", "json")
    opts = vars(args)
    if opts.get("n", 0) < 0:
        raise UsageError("need --n >= 0")
    for name, low in KNOB_MINIMUMS.items():
        if opts.get(name) is not None and opts[name] < low:
            raise UsageError("need --%s >= %d" % (name, low))
    if "k" in opts and "r" in opts and (args.k is None) != (args.r is None):
        raise UsageError("--k and --r go together")
    cache = JackCache(getattr(args, "cache_dir", None))

    if args.command == "partitions":
        if args.lam is not None and args.dmax is not None:
            raise UsageError("partitions takes one of --lambda and --dmax")
        if args.lam is not None:
            lam = parse_partition(args.lam)
            ok = is_admissible(lam, args.k, args.r, args.n)
            emit({"partition": list(lam), "k": args.k, "r": args.r,
                  "n": args.n, "admissible": ok}, fmt,
                 ["%s: %s" % (list(lam),
                              "admissible" if ok else "not admissible")])
            return 0
        if args.dmax is None:
            raise UsageError("need --dmax (or --lambda for a single test)")
        fam = enumerate_admissible(args.k, args.r, args.n, args.dmax)
        lines = ["degree %d: %s" % (d, [list(p) for p in fam.by_degree[d]])
                 for d in sorted(fam.by_degree)]
        emit(fam.to_obj(), fmt, lines)
        return 0

    if args.command == "character":
        fam = enumerate_admissible(args.k, args.r, args.n, args.dmax)
        emit(fam.character(), fmt)
        return 0

    if args.command == "jack":
        if args.symbolic + (args.beta is not None) + (args.k is not None) > 1:
            raise UsageError("jack takes one of --symbolic, --beta and "
                             "--k/--r")
        lam = parse_partition(args.lam, args.n)
        if args.k is not None:
            sp = specialize(lam, args.n, args.k, args.r, cache)
            print(sp.to_json({}) if fmt == "json" else sp.to_text({}))
            return 0
        if args.beta is not None:
            b0 = parse_beta(args.beta)
            P = jack_at(lam, args.n, b0, cache).poly
            obj = P.to_obj()
            obj["beta"] = {"num": str(b0.numerator),
                           "den": str(b0.denominator)}
            emit(obj, fmt, [str(P)])
            return 0
        from .symbolic import jack_symbolic
        P = jack_symbolic(lam, args.n, cache).msym()
        emit(P.to_obj(), fmt, [str(P)])
        return 0

    if args.command == "specialize-principal":
        from .ratfunc import PoleError
        from .symbolic import principal_specialization
        lam = parse_partition(args.lam, args.n)
        val = principal_specialization(lam, args.n)
        if args.beta is not None:
            try:
                v = val(parse_beta(args.beta))
            except PoleError as exc:
                print("pole at the requested evaluation point: %s" % exc,
                      file=sys.stderr)
                return 1
            emit({"partition": list(lam), "n": args.n,
                  "value": rat_to_obj(v)}, fmt, [str(v)])
        else:
            emit({"partition": list(lam), "n": args.n,
                  "value": val.to_obj()}, fmt, [str(val)])
        return 0

    if args.command == "ideal":
        if args.ideal_command == "basis":
            basis = build_basis(args.k, args.r, args.n, args.dmax, cache)
            head = {"k": args.k, "r": args.r, "n": args.n,
                    "dmax": args.dmax, "character": basis.character()}
            if args.out:
                basis.to_dir(args.out)
                emit(dict(head, written=args.out), fmt)
            else:
                names, keys = {}, {}  # partition -> its text, per format
                emit(head, fmt, ("%s: %s" % (list(e.lam), e.to_text(names))
                                 for e in basis),
                     (e.to_json(keys) for e in basis))
            return 0
        P = read_poly(args.input, args.n, args.dmax)
        basis = build_basis(args.k, args.r, args.n, args.dmax, cache)
        cert = reduce_membership(P, basis)
        emit(cert.to_obj(), fmt,
             ["member" if cert.member
              else "non-member, obstruction %s" % (list(cert.obstruction),)])
        return 0 if cert.member else 1

    if args.command == "verify":
        if args.suite == "commutators" and (args.n < 1 or args.dmax < 0):
            raise UsageError("commutators need --n >= 1 and --dmax >= 0")
        module, name, params = VERIFY_SUITES[args.suite]
        suite = getattr(import_module("." + module, __package__), name)
        return run_report(args.suite, suite(*(
            cache if p == "cache" else opts[p] for p in params.split())), fmt)

    raise UsageError("unknown command %r" % args.command)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        return run(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except InvalidParameters as exc:
        print("invalid parameters: %s" % exc, file=sys.stderr)
        return 2
    except SpecializationPole as exc:
        print("pole at the requested specialization: %s" % exc,
              file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except TermBudgetExceeded as exc:
        print("term budget exceeded: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
