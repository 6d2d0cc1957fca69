"""The per-element writers against the dict-and-dump oracle: `ideal basis`
stdout (JSON and text), each `--out` file and `jack --k --r` output must
equal, byte for byte, json.dumps (or str) of emit_oracle's objects."""

import json
from math import gcd

import pytest

from emit_oracle import (basis_lines, basis_obj, degree_obj,
                         specialized_to_obj)
from jackideal.basis import build_basis
from jackideal.cli import main

# both grids hold reduced denominators above 1, negative coefficients and
# keys with fewer than n parts; at (3,2,3,8) n <= k, so the empty partition
# is admissible and P_() = m_() is an element
GRIDS = [(2, 3, 4, 12), (3, 2, 3, 8)]


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    assert code == 0, argv
    return out


def test_grids_cover_each_shape():
    # the cases a writer could get wrong, each present on some grid
    terms = [(b.n, e, mu, x) for b in (build_basis(*g) for g in GRIDS)
             for e in b for mu, x in e.num.terms.items()]
    assert any(e.den // gcd(x, e.den) > 1 for _, e, _, x in terms)
    assert any(x < 0 for *_, x in terms)
    assert any(e.lam == () for _, e, _, _ in terms)
    assert any(len(mu) < n for n, _, mu, _ in terms)


@pytest.mark.parametrize("grid", GRIDS)
def test_writers_match_oracle(grid):
    basis = build_basis(*grid)
    keys, names = {}, {}  # shared across elements, as in one output
    for e in basis:
        assert e.to_json(keys) == json.dumps(specialized_to_obj(e))
        assert e.to_json({}) == json.dumps(specialized_to_obj(e))
        assert e.to_text(names) == str(e.poly)


@pytest.mark.parametrize("grid", GRIDS)
def test_ideal_basis_stdout_matches_oracle(capsys, grid):
    k, r, n, dmax = grid
    argv = ("ideal", "basis", "--k", k, "--r", r, "--n", n, "--dmax", dmax)
    basis = build_basis(*grid)
    assert run_cli(capsys, *argv) == json.dumps(basis_obj(basis)) + "\n"
    assert run_cli(capsys, *argv, "--format", "text") == \
        "".join(line + "\n" for line in basis_lines(basis))


@pytest.mark.parametrize("grid", GRIDS)
def test_out_files_match_oracle(capsys, tmp_path, grid):
    k, r, n, dmax = grid
    run_cli(capsys, "ideal", "basis", "--k", k, "--r", r, "--n", n,
            "--dmax", dmax, "--out", tmp_path)
    basis = build_basis(*grid)
    for d in range(dmax + 1):
        text = (tmp_path / ("degree_%02d.json" % d)).read_text()
        assert text == json.dumps(degree_obj(basis, d)), d


@pytest.mark.parametrize("grid", GRIDS)
def test_jack_k_r_matches_oracle(capsys, grid):
    k, r, n, dmax = grid
    for e in build_basis(*grid):
        argv = ("jack", "--lambda", ",".join(map(str, e.lam)) or "0",
                "--n", n, "--k", k, "--r", r)
        assert run_cli(capsys, *argv) == \
            json.dumps(specialized_to_obj(e)) + "\n"
        assert run_cli(capsys, *argv, "--format", "text") == \
            str(e.poly) + "\n"
