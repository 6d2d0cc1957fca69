"""Tests of the benchmark itself: smoke runs on tiny grids, the exact oracle
rejecting tampered outputs, and metric names agreeing with BENCHMARK.json.

Run from the repository root:  python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import calib  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads as W  # noqa: E402
from jackideal import ideal, jack  # noqa: E402
from jackideal.sympoly import MSymPoly  # noqa: E402

SMOKE = W.SCALES["smoke"]

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py")] + list(args)
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                           timeout=170)


def declared(kind):
    return {m["name"]: m["unit"] for m in BENCH[kind]}


def test_declared_metrics_match_the_runner():
    assert declared("end_to_end") == run.END_TO_END
    assert declared("per_layer") == run.PER_LAYER
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_prints_every_declared_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    want = declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name in want:
        assert any(line.startswith(name + " ") for line in
                   proc.stdout.splitlines()), name


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "basis-deep", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _smoke_basis(grid):
    return ideal.build_basis(*grid, cache=jack.JackCache())


def test_oracle_accepts_reference_and_rejects_tampered_basis():
    grid = SMOKE["deep"]
    digests = W.load_reference()["bases"][W.key_of(grid)]
    basis = _smoke_basis(grid)
    assert W.check_basis(basis, grid, digests)[1] == 0

    lam = max(basis.elements, key=sum)
    sp = basis.elements[lam]
    mu = min(sp.poly.terms)
    terms = dict(sp.poly.terms)
    terms[mu] = terms[mu] + Fraction(1, 7)
    sp.poly = MSymPoly(sp.n, terms)
    assert W.check_basis(basis, grid, digests)[1] == 1

    del basis.elements[lam]
    assert W.check_basis(basis, grid, digests)[1] == 1


def test_oracle_rejects_tampered_verdicts_and_certificates():
    k, r, n, dmax, mmax, tmax = SMOKE["closure"]
    rep = ideal.verify_closure(k, r, n, dmax, mmax, tmax, cache=jack.JackCache())
    want = W.load_reference()["verdicts"]["closure"][W.key_of(SMOKE["closure"])]
    assert W.check_verdicts(rep, want) == (len(want), 0)
    rep.cases[0]["status"] = "fail"
    assert W.check_verdicts(rep, want)[1] == 1
    rep.cases.pop()
    assert W.check_verdicts(rep, want)[1] == 2

    basis = _smoke_basis(SMOKE["closure"][:4])
    queries = W.make_queries(basis, 5, 6)
    assert queries == W.make_queries(basis, 5, 6)
    for P, comb, mu in queries:
        cert = ideal.reduce_membership(P, basis)
        assert W.certificate_ok(cert, comb, mu)
        if comb is not None:
            wrong = dict(comb)
            wrong[next(iter(wrong))] += 1
            assert not W.certificate_ok(cert, wrong, None)
        else:
            assert not W.certificate_ok(cert, None, mu + (1,))


def test_drift_check_flags_warm_state():
    cold = [{"orbit_size": 0}, {"orbit_size": 9}]
    warm = [{"orbit_size": 9}, {"orbit_size": 9}]
    reps = [(False, {"state": cold}), (False, {"state": cold})]
    assert run.drift_failures(reps) == 0
    assert run.drift_failures(reps + [(False, {"state": warm})]) == 1


def test_clock_leaves_calibration_out_of_timed_spans():
    clock = calib.Clock(every_s=None)
    t0, c0 = clock.now(), clock.cpu()
    clock.calibrate(3)
    clock.tick()                      # ticks are off: no sample
    assert len(clock.walls) == len(clock.cpus) == 3
    assert clock.now() - t0 < min(clock.walls)
    assert clock.cpu() - c0 < min(clock.cpus)
    assert all(f > 0 for f in clock.factors())
    clock.reset()
    assert clock.walls == clock.cpus == []


def test_host_time_averages_spells_and_drops_preemptions():
    assert calib.host_time([3.0, 6.0]) == 4.5
    assert calib.host_time([4.0, 4.0, 4.0, 4.0, 40.0]) == 4.0


def test_kernel_checksum():
    assert calib.kernel() == calib.CHECKSUM


def test_units_keep_raw_and_scaled_times():
    u = worker.unit(1.0, 2.0, [2.0, 3.0], 5.0, stdout_bytes=7)
    assert u == {"wall_s": 2.0, "cpu_s": 6.0, "raw_wall_s": 1.0,
                 "raw_cpu_s": 2.0, "rss_mb": 5.0, "stdout_bytes": 7}


def test_items_are_scaled_by_the_samples_near_them():
    clock = calib.Clock(every_s=None)
    clock.times = [0.0, 0.1, 0.2, 5.0, 5.1, 5.2]
    clock.walls = [calib.REF_S] * 3 + [2 * calib.REF_S] * 3
    assert abs(clock.scaled_ms(0.05, 0.15) - 100.0) < 1e-9
    assert abs(clock.scaled_ms(5.05, 5.15) - 50.0) < 1e-9
    assert abs(clock.scaled_ms(2.5, 2.6) - 100.0 * 2 / 3) < 1e-9  # all six


def test_alike_items_are_pooled():
    reps = [(False, {"items_ms": [1.0, 10.0]}), (False, {"items_ms": [3.0, 30.0]})]
    assert run.item_latencies(reps, alike=False) == [2.0, 20.0]
    assert run.item_latencies(reps, alike=True) == [1.0, 10.0, 3.0, 30.0]
