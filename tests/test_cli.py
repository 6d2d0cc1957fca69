"""Command-line behavior: outputs, exit codes, determinism, caching."""

import hashlib
import inspect
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from importlib import import_module

import pytest

import jackideal

from jackideal.cli import VERIFY_SUITES, main, parse_partition
from jackideal.jack import JackCache
from jackideal.symbolic import jack_symbolic


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_character(capsys):
    code, out, _ = run_cli(capsys, "character", "--k", "1", "--r", "2",
                           "--n", "2", "--dmax", "4")
    assert code == 0
    assert json.loads(out) == [0, 0, 1, 1, 2]


def test_partitions_enumerate_and_single(capsys):
    code, out, _ = run_cli(capsys, "partitions", "--k", "1", "--r", "2",
                           "--n", "2", "--dmax", "4")
    assert code == 0
    obj = json.loads(out)
    assert obj["partitions"]["4"] == [[4], [3, 1]]
    code, out, _ = run_cli(capsys, "partitions", "--k", "1", "--r", "2",
                           "--n", "2", "--lambda", "3,1")
    assert code == 0 and json.loads(out)["admissible"] is True
    code, out, _ = run_cli(capsys, "partitions", "--k", "1", "--r", "2",
                           "--n", "2", "--lambda", "2,2")
    assert json.loads(out)["admissible"] is False


def test_partitions_lambda_and_dmax_exit(capsys):
    # one --lambda test or one --dmax enumeration, never a silent choice
    code, out, err = run_cli(capsys, "partitions", "--k", "1", "--r", "2",
                             "--n", "2", "--lambda", "3,1", "--dmax", "4")
    assert code == 2 and out == ""
    assert err == "error: partitions takes one of --lambda and --dmax\n"


def test_jack_symbolic_output(capsys):
    code, out, _ = run_cli(capsys, "jack", "--lambda", "2", "--n", "2",
                           "--symbolic")
    assert code == 0
    obj = json.loads(out)
    assert obj["basis"] == "msym"
    by_part = {tuple(t["partition"]): t["coeff"] for t in obj["terms"]}
    # 2 beta / (1 + beta) appears as a num/den coefficient pair
    assert by_part[(1, 1)]["num"][1]["num"] == "2"
    assert by_part[(2,)] == {"num": [{"num": "1", "den": "1"}],
                             "den": [{"num": "1", "den": "1"}]}


def test_jack_specialized_and_evaluated(capsys):
    code, out, _ = run_cli(capsys, "jack", "--lambda", "2", "--n", "2",
                           "--k", "1", "--r", "2", "--format", "text")
    assert code == 0 and out.strip() == "(1)*m[2] + (-2)*m[1,1]"
    code, out, _ = run_cli(capsys, "jack", "--lambda", "2", "--n", "2",
                           "--beta=-1/2", "--format", "text")
    assert code == 0 and out.strip() == "(1)*m[2] + (-2)*m[1,1]"


def test_term_budget_exit(capsys, monkeypatch):
    # an expansion beyond TERM_BUDGET is a clean exit 2, not a traceback
    monkeypatch.setattr(jackideal.sympoly, "TERM_BUDGET", 10)
    code, out, err = run_cli(capsys, "verify", "sekiguchi", "--n", "3",
                             "--dmax", "4")
    assert code == 2 and out == ""
    assert err.startswith("term budget exceeded: operation needs ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("partitions", "--k", "1", "--r", "2", "--n", "3", "--dmax", "3"),
    ("character", "--k", "1", "--r", "2", "--n", "3", "--dmax", "3"),
    ("specialize-principal", "--lambda", "2", "--n", "2"),
    ("verify", "commutators"),
])
def test_no_cache_dir_where_no_jack_is_solved(capsys, tmp_path, argv):
    # these subcommands solve no Jack, so they take no --cache-dir and
    # create no directory
    cache = tmp_path / "cache"
    with pytest.raises(SystemExit) as exc:
        main(list(argv) + ["--cache-dir", str(cache)])
    assert exc.value.code == 2 and not cache.exists()
    assert "unrecognized arguments: --cache-dir" in capsys.readouterr().err


def test_jack_pole_exit(capsys):
    code, _, err = run_cli(capsys, "jack", "--lambda", "2", "--n", "2",
                           "--beta=-1")
    assert code == 1 and "pole" in err
    # the point walk stops on c_(2,1)(-1/2) = 0 and the symbolic fallback
    # names the pole, as the symbolic-then-evaluate route did
    code, out, err = run_cli(capsys, "jack", "--lambda", "2,1", "--n", "3",
                             "--beta=-1/2")
    assert code == 1 and out == ""
    assert err == ("pole at the requested specialization: coefficient of "
                   "m_(1, 1, 1) in P_(2, 1) has a pole of order 1 at "
                   "beta=-1/2\n")
    # P_(3,2,1) is read off its base (2,1): the base's pole at m_(1,1,1)
    # is named as the pole at m_(2,2,2), as the symbolic route named it
    code, out, err = run_cli(capsys, "jack", "--lambda", "3,2,1", "--n", "3",
                             "--beta=-1/2")
    assert code == 1 and out == ""
    assert err == ("pole at the requested specialization: coefficient of "
                   "m_(2, 2, 2) in P_(3, 2, 1) has a pole of order 1 at "
                   "beta=-1/2\n")
    # P_(5,4,3,2) is read off its base (3,2,1) = lam - (2^4), whose pole
    # at m_(3,1,1,1) is named at m_(5,3,3,3) = mu + (2^4)
    code, out, err = run_cli(capsys, "jack", "--lambda", "5,4,3,2", "--n",
                             "4", "--beta=-1/2")
    assert code == 1 and out == ""
    assert err == ("pole at the requested specialization: coefficient of "
                   "m_(5, 3, 3, 3) in P_(5, 4, 3, 2) has a pole of order 1 "
                   "at beta=-1/2\n")


def test_principal_specialization_pole_exit(capsys):
    # P_(2)(1, 1) = (4 beta + 2)/(beta + 1) in lowest terms has a simple
    # pole at beta = -1, which reaches the user as a PoleError: exit 1,
    # with nothing on stdout
    code, out, err = run_cli(capsys, "specialize-principal", "--lambda", "2",
                             "--n", "2", "--beta=-1")
    assert code == 1 and out == ""
    assert err == ("pole at the requested evaluation point: pole of order 1 "
                   "at beta=-1\n")


@pytest.mark.parametrize("lam, n, beta, walk_solves, solved, exit_code, "
                         "out_sha", [
    ("3,1", 3, "3/2", True, [], 0, "6b9436e0075ebf84"),
    # a gap vanishes at -4/5
    ("4,2,1", 4, "-4/5", False, [(4, 2, 1)], 0, "bb9443808244881c"),
    # c_(2,1) vanishes, and a pole
    ("2,1", 3, "-1/2", False, [(2, 1)], 1, "e3b0c44298fc1c14"),
    # c_(2,1,1) vanishes at -1/3, but the base (1) walks
    ("2,1,1", 3, "-1/3", False, [], 0, "57df107907cc3239"),
    # the pole of P_(3,2,1) is found on its base (2,1)
    ("3,2,1", 3, "-1/2", False, [(2, 1)], 1, "e3b0c44298fc1c14"),
], ids=["3,1-3-3/2-True-0", "4,2,1-4--4/5-False-0", "2,1-3--1/2-False-1",
        "2,1,1-3--1/3-False-0", "3,2,1-3--1/2-False-1"])
def test_jack_beta_solves_symbolically_only_where_the_walk_stops(
        capsys, monkeypatch, lam, n, beta, walk_solves, solved, exit_code,
        out_sha):
    # walk_solves: whether the point walk on lam itself solves; solved:
    # the Jacks the route solves symbolically, a lam with n nonzero parts
    # being read off its base; out_sha: stdout's digest, as it was when
    # every lam was walked
    point = (parse_partition(lam), n, JackCache(), Fraction(beta))
    assert (jackideal.jack._solve_at(*point) is not None) == walk_solves
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return jack_symbolic(*args, **kwargs)
    monkeypatch.setattr(jackideal.symbolic, "jack_symbolic", counted)
    code, out, _ = run_cli(capsys, "jack", "--lambda", lam, "--n", str(n),
                           "--beta=" + beta)
    assert code == exit_code
    assert calls == solved
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == out_sha


@pytest.mark.parametrize("modes", [
    ("--k", "1", "--r", "2", "--beta=-1/3"),
    ("--symbolic", "--beta=-1/2"),
    ("--symbolic", "--k", "1", "--r", "2"),
])
def test_jack_conflicting_modes_exit(capsys, modes):
    code, out, err = run_cli(capsys, "jack", "--lambda", "2", "--n", "2",
                             *modes)
    assert code == 2 and out == ""
    assert err == "error: jack takes one of --symbolic, --beta and --k/--r\n"


@pytest.mark.parametrize("suite", ["pieri", "lassalle"])
@pytest.mark.parametrize("coupling", [(), ("--k", "1", "--r", "2")])
def test_pieri_and_lassalle_take_no_symbolic_flag(capsys, suite, coupling):
    # the coupling picks the half: the symbolic check runs without --k/--r
    # and the check at beta(k, r) with them, so there is no switch
    with pytest.raises(SystemExit) as ei:
        main(["verify", suite, "--n", "2", "--dmax", "4", *coupling,
              "--symbolic"])
    captured = capsys.readouterr()
    assert ei.value.code == 2 and captured.out == ""
    assert "unrecognized arguments: --symbolic" in captured.err


def test_invalid_parameters_exit(capsys):
    code, _, err = run_cli(capsys, "jack", "--lambda", "2", "--n", "2",
                           "--k", "1", "--r", "3")
    assert code == 2 and "coprime" in err
    code, _, err = run_cli(capsys, "verify", "phi3", "--r", "4")
    assert code == 2 and "coprime" in err


def test_usage_errors(capsys):
    code, _, err = run_cli(capsys, "jack", "--lambda", "1,2", "--n", "2")
    assert code == 2 and "partition" in err
    code, _, err = run_cli(capsys, "jack", "--lambda", "2", "--n", "2",
                           "--k", "1")
    assert code == 2 and "together" in err
    with pytest.raises(SystemExit) as ei:
        main(["no-such-command"])
    assert ei.value.code == 2


TOP_USAGE = ("usage: jackideal [-h]\n"
             "                 {partitions,character,jack,"
             "specialize-principal,ideal,verify}\n"
             "                 ...\n")


@pytest.mark.parametrize("argv, err", [
    ("ideal basis --k 1",
     "usage: jackideal ideal basis [-h] --k K --r R --n N --dmax DMAX\n"
     "                             [--cache-dir CACHE_DIR] "
     "[--format {json,text}]\n"
     "                             [--out OUT]\n"
     "jackideal ideal basis: error: the following arguments are required: "
     "--r, --n, --dmax\n"),
    ("no-such-command",
     TOP_USAGE + "jackideal: error: argument command: invalid choice: "
     "'no-such-command' (choose from 'partitions', 'character', 'jack', "
     "'specialize-principal', 'ideal', 'verify')\n"),
    ("verify no-such-suite",
     "usage: jackideal verify [-h]\n"
     "                        {commutators,pieri,lassalle,closure,"
     "restriction,regularity,wheel,phi3,sekiguchi}\n"
     "                        ...\n"
     "jackideal verify: error: argument suite: invalid choice: "
     "'no-such-suite' (choose from 'commutators', 'pieri', 'lassalle', "
     "'closure', 'restriction', 'regularity', 'wheel', 'phi3', "
     "'sekiguchi')\n"),
    ("ideal basis --k 1 --r 2 --n 3 --dmax 8 --bogus",
     TOP_USAGE + "jackideal: error: unrecognized arguments: --bogus\n"),
])
def test_parser_errors_keep_their_text(capsys, monkeypatch, argv, err):
    # build_parser gives options only to the parsers argv names; each
    # message, at 80 columns, is the one the parser with every option gave
    # (the same on Python 3.10 to 3.12)
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as ei:
        main(argv.split())
    assert ei.value.code == 2
    assert capsys.readouterr() == ("", err)


def test_member_rejects_rational_function_coefficients(capsys, tmp_path):
    # 1/beta on m_(2) is a Q(beta) coefficient: membership is decided over Q
    poly = tmp_path / "beta.json"
    poly.write_text(json.dumps({
        "n": 2, "basis": "msym",
        "terms": [{"partition": [2], "coeff": {
            "num": [{"num": "1", "den": "1"}],
            "den": [{"num": "0", "den": "1"}, {"num": "1", "den": "1"}]}}]}))
    code, out, err = run_cli(capsys, "ideal", "member", "--k", "1", "--r",
                             "2", "--n", "2", "--dmax", "4", "--input",
                             str(poly))
    assert code == 2 and out == ""
    assert err == "error: input polynomial needs rational coefficients\n"


def test_member_above_dmax_exit(capsys, tmp_path):
    poly = tmp_path / "high.json"
    poly.write_text(json.dumps({
        "n": 2, "basis": "msym",
        "terms": [{"partition": [5], "coeff": {"num": "1", "den": "1"}}]}))
    code, out, err = run_cli(capsys, "ideal", "member", "--k", "1", "--r",
                             "2", "--n", "2", "--dmax", "4", "--input",
                             str(poly))
    assert code == 2 and out == ""
    assert "degree 5" in err and "Traceback" not in err


def test_member_missing_input_exit(capsys, tmp_path):
    # an unreadable --input is an OSError, reported as an input error
    code, out, err = run_cli(capsys, "ideal", "member", "--k", "1", "--r",
                             "2", "--n", "2", "--dmax", "4", "--input",
                             str(tmp_path / "missing.json"))
    assert code == 2 and out == ""
    assert err.startswith("input error:") and "Traceback" not in err


@pytest.mark.parametrize("term", [
    {"partition": [1], "coeff": {"num": "1", "den": "0"}},
    {"partition": [1], "coeff": {"num": [{"num": "1", "den": "1"}],
                                 "den": []}},
    {"partition": [1.5], "coeff": {"num": "1", "den": "1"}},
    {"partition": ["2"], "coeff": {"num": "1", "den": "1"}},
    {"exponents": [1], "coeff": {"num": "1", "den": "1"}},
    {"exponents": [1, 0, 0], "coeff": {"num": "1", "den": "1"}},
    {"exponents": [2, -1], "coeff": {"num": "1", "den": "1"}},
    {"exponents": [1.5, 0], "coeff": {"num": "1", "den": "1"}},
    {"exponents": ["1", 0], "coeff": {"num": "1", "den": "1"}},
])
def test_member_rejects_malformed_terms(capsys, tmp_path, term):
    basis = "expanded" if "exponents" in term else "msym"
    poly = tmp_path / "bad.json"
    poly.write_text(json.dumps({"n": 2, "basis": basis, "terms": [term]}))
    code, out, err = run_cli(capsys, "ideal", "member", "--k", "1", "--r",
                             "2", "--n", "2", "--dmax", "4", "--input",
                             str(poly))
    assert code == 2 and out == ""
    assert "bad polynomial input" in err and "Traceback" not in err
    if basis == "expanded":
        assert "bad exponent vector %r" % (tuple(term["exponents"]),) in err


@pytest.mark.parametrize("argv", [
    ("jack", "--lambda", "0"),
    ("specialize-principal", "--lambda", "0"),
    ("verify", "sekiguchi", "--dmax", "2"),
    ("verify", "pieri", "--dmax", "2"),
    ("verify", "lassalle", "--dmax", "2"),
])
def test_negative_n_exit(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--n", "-1")
    assert code == 2 and out == ""
    assert "--n >= 0" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, flag", [
    (("commutators", "--n", "2", "--dmax", "2", "--trials", "0"), "--trials"),
    (("commutators", "--n", "2", "--dmax", "2", "--tmax", "1"), "--tmax"),
    (("restriction", "--k", "1", "--r", "2", "--n", "2", "--dmax", "2",
      "--jmax", "-1"), "--jmax"),
    (("closure", "--k", "1", "--r", "2", "--n", "2", "--dmax", "2",
      "--mmax", "-3"), "--mmax"),
    (("closure", "--k", "1", "--r", "2", "--n", "2", "--dmax", "2",
      "--tmax", "1"), "--tmax"),
])
def test_vacuous_suite_knobs_exit(capsys, argv, flag):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert "need %s >= " % flag in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("pieri", "--n", "2", "--dmax", "0"),
    ("lassalle", "--n", "2", "--dmax", "0"),
    ("sekiguchi", "--n", "2", "--dmax", "-1"),
    ("closure", "--k", "1", "--r", "2", "--n", "2", "--dmax", "0"),
    ("restriction", "--k", "1", "--r", "2", "--n", "2", "--dmax", "0"),
    ("regularity", "--k", "1", "--r", "2", "--n", "2", "--dmax", "0"),
])
def test_empty_report_exit(capsys, argv):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert err == "error: verify %s has no cases for these parameters\n" \
        % argv[0]


# sha256 of stdout, recorded before evaluation at rational beta moved from
# Fraction Horner sums to integer ones; stdout must stay byte-identical
GOLDEN_STDOUT = [
    (("ideal", "basis", "--k", "1", "--r", "2", "--n", "3", "--dmax", "10"),
     "63d83c007627b5ae1b68f9d4c1cdcb2207e30bf442ac80afab2dbb3972819ea8"),
    (("jack", "--lambda", "3,1", "--n", "3", "--beta=-1/2"),
     "664557bb87922268d7fdb1df8b59d273b369f205cb63c4688c5bd9734a8659f8"),
    (("specialize-principal", "--lambda", "2,1", "--n", "3", "--beta=-2/3"),
     "c7855bcb2ea8dad2f6d90be4b20c57176cd4b03f15bc239a391b0b800ede28ab"),
    (("verify", "regularity", "--k", "1", "--r", "2", "--n", "3", "--dmax",
      "6"),
     "c25e627c7668780dfe9662e8ebab091d344bed15de871401b246685ab46d9893"),
    # the other two jack modes, and no mode flag (symbolic)
    (("jack", "--lambda", "4,2", "--n", "3", "--k", "1", "--r", "2"),
     "36658f56cf304a212ad2af7dd3c0eb65585ace275aed650cfa2ada96b4e0c22b"),
    (("jack", "--lambda", "3,1", "--n", "3", "--symbolic"),
     "b71cfdb52249607cc65d7152e22aaba5ae207f8d6fd7d3c75f07d50c19373887"),
    (("jack", "--lambda", "3,1", "--n", "3"),
     "b71cfdb52249607cc65d7152e22aaba5ae207f8d6fd7d3c75f07d50c19373887"),
    # the specialized Pieri and Lassalle halves: regular, vanish,
    # hook-factor and prefactor cases with their details
    (("verify", "pieri", "--k", "1", "--r", "2", "--n", "3", "--dmax", "10"),
     "0f45977f11e8d1abaa4d256863afb02dca0ae528058740c3db445b8463d32a03"),
    (("verify", "pieri", "--k", "2", "--r", "3", "--n", "4", "--dmax", "10"),
     "51ed02b9bc9872d74c41883236b093bbc6c48bb216ead3abf51d376a5030573a"),
    (("verify", "lassalle", "--k", "1", "--r", "2", "--n", "3", "--dmax",
      "10"),
     "43575b433050504cf14b6048d5b7d5344e6209a2dfba63fa339ffba1a47848e5"),
    (("verify", "lassalle", "--k", "2", "--r", "3", "--n", "4", "--dmax",
      "10"),
     "a73f1405718134e4ca1b58b6774c41f3cdcad0ad61b0eca96ba33d4f3be6d9e2"),
    # the closure battery: the benchmark's grid, and n = 6 at tmax = 4
    (("verify", "closure", "--k", "1", "--r", "2", "--n", "3", "--dmax",
      "14", "--mmax", "4", "--tmax", "4"),
     "e9d10cafc4b3d15d04a35197c5caabf03f8930cff72cf917b4669c8516e35f3f"),
    (("verify", "closure", "--k", "3", "--r", "2", "--n", "6", "--dmax",
      "14", "--mmax", "4", "--tmax", "4"),
     "0e874095aa8b78f86f53241fb22d4c4e0b87861bcf4b39a0272b502ff1540cff"),
    # the span at n = 5 restricted into the span at n = 4, j <= 2
    (("verify", "restriction", "--k", "2", "--r", "2", "--n", "5", "--dmax",
      "12"),
     "5c9a2bf06b93e9d9c50fc9f892dda38a68348483604c34521b95f926afa3d7af"),
    # the commutator suite, the one user of the monomial l and w, at n = 4
    (("verify", "commutators", "--n", "4", "--dmax", "4", "--trials", "5"),
     "fb00df024f3fde6de0e51cbdaee8ff055f3c5bf4dc5eea4837e13ceac44a8fc8"),
    # nine variables, the benchmark's wide grid
    (("ideal", "basis", "--k", "8", "--r", "2", "--n", "9", "--dmax", "8"),
     "30f63d28e0a5a36dec3a662a6167362bc5c87118790cd1fe14fcf6ac5797f400"),
    # a Jack at an explicit beta, recorded on the symbolic-then-evaluate
    # route: the point walk stops on a gap (a regular value), and solves
    (("jack", "--lambda", "4,2,1", "--n", "4", "--beta=-4/5"),
     "bb9443808244881cfd16205d4b51d7b4ef1f739ce7230b487a0014781772e3bc"),
    (("jack", "--lambda", "3,1", "--n", "3", "--beta=3/2"),
     "6b9436e0075ebf8445d84cbe4d2bf0fceaca07630616ee6e3a76ae286ed01ab9"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN_STDOUT)
def test_golden_stdout(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_jack_partition_longer_than_n_exit(capsys):
    code, out, err = run_cli(capsys, "jack", "--lambda", "1,1,1", "--n", "2")
    assert code == 2 and out == ""
    assert "n=2" in err and "Traceback" not in err


def test_commutators_without_variables_exit(capsys):
    code, out, err = run_cli(capsys, "verify", "commutators", "--n", "0")
    assert code == 2 and out == ""
    assert "--n >= 1" in err and "Traceback" not in err


def test_specialize_principal(capsys):
    code, out, _ = run_cli(capsys, "specialize-principal", "--lambda", "2",
                           "--n", "2", "--format", "text")
    assert code == 0 and out.strip() == "(2 + 4*beta)/(1 + beta)"
    code, out, _ = run_cli(capsys, "specialize-principal", "--lambda", "2",
                           "--n", "2", "--beta=-1/3", "--format", "text")
    assert code == 0 and out.strip() == "1"


def test_ideal_basis_and_member(capsys, tmp_path):
    out_dir = tmp_path / "basis"
    code, out, _ = run_cli(capsys, "ideal", "basis", "--k", "1", "--r", "2",
                           "--n", "2", "--dmax", "4", "--out", str(out_dir))
    assert code == 0
    assert json.loads(out)["character"] == [0, 0, 1, 1, 2]
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "degree_%02d.json" % d for d in range(5)]

    poly = tmp_path / "input.json"
    poly.write_text(json.dumps({
        "n": 2, "basis": "msym",
        "terms": [{"partition": [3], "coeff": {"num": "1", "den": "1"}},
                  {"partition": [2, 1], "coeff": {"num": "-1", "den": "1"}}]}))
    code, out, _ = run_cli(capsys, "ideal", "member", "--k", "1", "--r", "2",
                           "--n", "2", "--dmax", "4", "--input", str(poly))
    assert code == 0
    obj = json.loads(out)
    assert obj["member"] and obj["combination"] == [
        {"partition": [3], "coeff": {"num": "1", "den": "1"}}]

    poly.write_text(json.dumps({
        "n": 2, "basis": "msym",
        "terms": [{"partition": [1, 1], "coeff": {"num": "1", "den": "1"}}]}))
    code, out, _ = run_cli(capsys, "ideal", "member", "--k", "1", "--r", "2",
                           "--n", "2", "--dmax", "4", "--input", str(poly))
    assert code == 1 and json.loads(out)["obstruction"] == [1, 1]


def test_python_m_runs_the_cli():
    """`python -m jackideal` is cli.main.  The query is m_(7,5) + m_(5,5,2)
    at (k, r, n) = (1, 2, 3): clearing (7,5) leaves a normal form whose
    lex-leading partition is (7,3,2), the obstruction."""
    src = os.path.dirname(os.path.dirname(jackideal.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    poly = {"n": 3, "basis": "msym", "terms": [
        {"partition": lam, "coeff": {"num": "1", "den": "1"}}
        for lam in ([7, 5], [5, 5, 2])]}
    proc = subprocess.run(
        [sys.executable, "-m", "jackideal", "ideal", "member", "--k", "1",
         "--r", "2", "--n", "3", "--dmax", "12"], input=json.dumps(poly),
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout) == {"member": False,
                                       "obstruction": [7, 3, 2]}


def test_cli_import_leaves_process_pool_out():
    """Nothing in the package runs a process pool; a fresh interpreter
    importing the CLI must not load concurrent.futures."""
    src = os.path.dirname(os.path.dirname(jackideal.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, jackideal.cli; "
         "print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


BETA_MODULES = ["jackideal.ratfunc", "jackideal.symbolic"]
SUITE_MODULES = ["jackideal.ideal", "jackideal.operators", "jackideal.report"]
BETA_SUITE_MODULES = sorted(BETA_MODULES + [
    "jackideal.identities", "jackideal.operators", "jackideal.report"])
EXPANDED_MODULES = ["jackideal.expanded", "jackideal.operators",
                    "jackideal.report"]


@pytest.mark.parametrize("argv, loaded", [
    ("ideal basis --k 1 --r 2 --n 3 --dmax 8", []),
    ("ideal member --k 1 --r 2 --n 2 --dmax 4 --input {poly}", []),
    ("jack --lambda 2,1 --n 3 --symbolic", BETA_MODULES),
    ("jack --lambda 2,1 --n 3 --beta=-2/5", []),
    ("jack --lambda 4,2 --n 3 --k 1 --r 2", []),
    ("partitions --k 1 --r 2 --n 3 --dmax 8", []),
    ("partitions --k 1 --r 2 --n 3 --lambda 3,1", []),
    ("character --k 1 --r 2 --n 3 --dmax 8", []),
    ("specialize-principal --lambda 2,1 --n 3", BETA_MODULES),
    ("specialize-principal --lambda 2,1 --n 3 --beta=-2/5", BETA_MODULES),
    ("verify phi3 --r 3", SUITE_MODULES),
    ("verify closure --k 1 --r 2 --n 3 --dmax 6", SUITE_MODULES),
    ("verify restriction --k 1 --r 2 --n 3 --dmax 6", SUITE_MODULES),
    ("verify wheel --k 1 --n 3 --dmax 6", SUITE_MODULES),
    ("verify pieri --n 3 --dmax 3", BETA_SUITE_MODULES),
    ("verify lassalle --n 3 --dmax 3", BETA_SUITE_MODULES),
    ("verify regularity --k 1 --r 2 --n 3 --dmax 6", BETA_SUITE_MODULES),
    ("verify sekiguchi --n 2 --dmax 3",
     sorted(BETA_SUITE_MODULES + ["jackideal.expanded"])),
    ("verify commutators --n 2 --dmax 2 --trials 1",
     sorted(EXPANDED_MODULES + ["jackideal.ratfunc"])),
    ("ideal member --k 1 --r 2 --n 2 --dmax 4 --input {expanded}",
     EXPANDED_MODULES),
])
def test_a_command_loads_only_the_layer_it_runs(tmp_path, argv, loaded):
    """The integer core (partitions, sympoly, jack, basis) answers every
    command but jack --symbolic, specialize-principal and verify, so a
    fresh interpreter running one of them leaves the Q(beta) layer
    (ratfunc, symbolic), the suites, the monomial layer (expanded) and the
    reports unloaded; jack --symbolic and specialize-principal load the
    Q(beta) layer alone, and ideal member on expanded input the monomial
    layer.  The suites in ideal, which run in Z at beta(k, r), load ideal,
    operators and report on the core alone; those in identities load the
    Q(beta) layer too, sekiguchi also the monomial layer, and commutators
    the monomial layer and ratfunc."""
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({"n": 2, "basis": "msym", "terms": [  # P_(2)
        {"partition": [2], "coeff": {"num": "1", "den": "1"}},
        {"partition": [1, 1], "coeff": {"num": "-2", "den": "1"}}]}))
    expanded = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "data", "member_expanded.json")  # P_(2) too
    src = os.path.dirname(os.path.dirname(jackideal.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", "import contextlib, io, json, sys\n"
         "from jackideal.cli import main\n"
         "with contextlib.redirect_stdout(io.StringIO()):\n"
         "    code = main(sys.argv[1:])\n"
         "print(json.dumps([code, sorted(m for m in sys.modules\n"
         "                               if m in %r)]))"
         % (BETA_MODULES + SUITE_MODULES + BETA_SUITE_MODULES
            + EXPANDED_MODULES)]
        + shlex.split(argv.format(poly=poly, expanded=expanded)),
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, loaded]


def test_each_verify_suite_names_a_function_taking_its_arguments():
    """Each VERIFY_SUITES entry names a function of its module that takes
    the entry's arguments, by position and in order (commutators calls
    dmax its degree): a stale entry would end `verify` in an
    AttributeError or TypeError traceback, not a documented exit code."""
    for suite, (module, name, params) in VERIFY_SUITES.items():
        fn = getattr(import_module("jackideal." + module), name, None)
        assert callable(fn), suite
        names = params.split()
        signature = inspect.signature(fn)
        signature.bind(*names)
        taken = list(signature.parameters)[:len(names)]
        assert [{"degree": "dmax"}.get(p, p) for p in taken] == names, suite


def test_processes_share_one_cache_dir(tmp_path):
    """Two cold runs at once on one --cache-dir, then a warm one: each
    prints what a run without a cache prints.  ideal basis solves its Jacks
    at beta(k, r) and writes no file, so two verify regularity runs, which
    solve symbolically, check that files are written and that no temporary
    file is left behind."""
    src = os.path.dirname(os.path.dirname(jackideal.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))

    def concurrent_runs(argv, cache_dir):
        cached = argv + ["--cache-dir", str(cache_dir)]
        procs = [subprocess.Popen(cached, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True, env=env)
                 for _ in range(2)]
        outs = [proc.communicate(timeout=120) + (proc.returncode,)
                for proc in procs]
        for cmd in (cached, argv):
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  env=env, timeout=120)
            outs.append((proc.stdout, proc.stderr, proc.returncode))
        for out, err, code in outs:
            assert code == 0 and err == ""
            assert out == outs[-1][0]

    jackideal_cli = [sys.executable, "-m", "jackideal"]
    concurrent_runs(jackideal_cli + ["ideal", "basis", "--k", "2", "--r",
                                     "2", "--n", "5", "--dmax", "14"],
                    tmp_path / "basis")
    concurrent_runs(jackideal_cli + ["verify", "regularity", "--k", "2",
                                     "--r", "2", "--n", "5", "--dmax", "12"],
                    tmp_path / "symbolic")
    names = os.listdir(tmp_path / "symbolic")
    assert names and not [name for name in names if ".tmp." in name]


def test_member_rejects_asymmetric_expanded(capsys, tmp_path):
    poly = tmp_path / "bad.json"
    poly.write_text(json.dumps({
        "n": 2, "basis": "expanded",
        "terms": [{"exponents": [2, 1], "coeff": {"num": "1", "den": "1"}}]}))
    code, _, err = run_cli(capsys, "ideal", "member", "--k", "1", "--r", "2",
                           "--n", "2", "--dmax", "4", "--input", str(poly))
    assert code == 2 and "input" in err.lower()


def test_member_rejects_asymmetric_without_orbit(capsys, tmp_path):
    # one term with 12 distinct exponents: its orbit has 12! members, and
    # symmetry is read off orbit sizes without building any of them
    poly = tmp_path / "bad.json"
    poly.write_text(json.dumps({
        "n": 12, "basis": "expanded",
        "terms": [{"exponents": list(range(12)),
                   "coeff": {"num": "1", "den": "1"}}]}))
    code, out, err = run_cli(capsys, "ideal", "member", "--k", "1", "--r",
                             "2", "--n", "12", "--dmax", "66", "--input",
                             str(poly))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "not symmetric" in err


@pytest.mark.parametrize("basis, terms, repeat", [
    # [2, 0] is m_(2) again once its trailing zero is stripped
    ("msym", [([2], 1), ([1, 1], -2), ([2, 0], 5)], "partition [2]"),
    ("expanded", [([2, 0], 1), ([0, 2], 1), ([1, 1], -2), ([1, 1], 3)],
     "exponents [1, 1]"),
], ids=["msym", "expanded"])
def test_member_rejects_repeated_key(capsys, tmp_path, basis, terms, repeat):
    key = "partition" if basis == "msym" else "exponents"
    poly = tmp_path / "dup.json"
    poly.write_text(json.dumps({
        "n": 2, "basis": basis,
        "terms": [{key: k, "coeff": {"num": str(c), "den": "1"}}
                  for k, c in terms]}))
    code, out, err = run_cli(capsys, "ideal", "member", "--k", "1", "--r",
                             "2", "--n", "2", "--dmax", "4", "--input",
                             str(poly))
    assert code == 2 and out == ""
    assert err == "error: bad polynomial input: repeated %s\n" % repeat


def test_verify_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "wheel", "--k", "2", "--n", "2",
                           "--dmax", "6")
    assert code == 0
    obj = json.loads(out)
    assert obj["suite"] == "wheel" and obj["summary"]["fail"] == 0
    code, out, _ = run_cli(capsys, "verify", "phi3", "--r", "3",
                           "--format", "text")
    assert code == 0 and "PASS" in out and "FAIL" not in out


def test_verify_commutators_seeded(capsys):
    code, out, _ = run_cli(capsys, "verify", "commutators", "--n", "2",
                           "--dmax", "3", "--trials", "2", "--seed", "11",
                           "--tmax", "2")
    assert code == 0
    assert json.loads(out)["params"]["seed"] == 11


def test_deterministic_output(capsys):
    args = ("verify", "regularity", "--k", "1", "--r", "2", "--n", "2",
            "--dmax", "5")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_cache_dir_persists(capsys, tmp_path):
    cache = tmp_path / "cache"
    args = ("jack", "--lambda", "3,1", "--n", "3", "--symbolic",
            "--cache-dir", str(cache))
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    files = sorted(p.name for p in cache.iterdir())
    assert any(f.startswith("jack_n3") for f in files)
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_fallback_through_the_base_caches_the_base(capsys, tmp_path):
    # P_(3,2,1) is read off its base (2,1), whose walk stops at -1/2: the
    # symbolic solve that follows files (2,1), and no file names (3,2,1)
    code, _, _ = run_cli(capsys, "jack", "--lambda", "3,2,1", "--n", "3",
                         "--beta=-1/2", "--cache-dir", str(tmp_path))
    assert code == 1
    assert os.listdir(tmp_path) == ["jack_n3_2-1.json"]


def test_cache_entry_with_repeated_partition_is_a_miss(capsys, tmp_path):
    # a second numerator for m_(1,1,1) makes the file inconsistent: it is a
    # miss, solved again and rewritten, so stdout matches a run without cache
    args = ("jack", "--lambda", "2,1", "--n", "3")
    _, want, _ = run_cli(capsys, *args)
    cached = args + ("--cache-dir", str(tmp_path))
    run_cli(capsys, *cached)
    path = tmp_path / "jack_n3_2-1.json"
    good = json.loads(path.read_text())
    bad = dict(good, nums=good["nums"] + [{"partition": [1, 1, 1],
                                           "coeffs": [7]}])
    path.write_text(json.dumps(bad))
    code, out, _ = run_cli(capsys, *cached)
    assert code == 0 and out == want
    assert json.loads(path.read_text()) == good


def readme_command_lines():
    """The `jackideal ...` lines of the README's Command line block, with
    trailing comments dropped."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("jackideal ")]


def test_readme_command_lines_exit_zero(capsys, tmp_path, monkeypatch):
    # every example runs as printed; poly.json holds P_(2) at beta(1, 2),
    # a member of the ideal
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "jack", "--lambda", "2", "--n", "2",
                           "--k", "1", "--r", "2")
    assert code == 0
    (tmp_path / "poly.json").write_text(out)
    lines = readme_command_lines()
    assert len(lines) == 18
    failed = []
    for argv in lines:
        code, _, err = run_cli(capsys, *argv)
        if code:
            failed.append((" ".join(argv), code, err))
    assert failed == []
