"""The jackideal benchmark: one command per workload, exact-checked outputs.

Usage, from the repository root (the package is imported from ./src):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):

  basis-deep  cold build_basis(1, 2, 3, 18): the triangular solve over Q(beta)
  basis-wide  cold build_basis(8, 2, 9, 8): Hamiltonian rows (S_n orbit
              expansions in nine variables)
  verify      verify_closure(1, 2, 3, 14, mmax=4, tmax=4), verify_wheel(2, 6, 12)
              and seeded membership queries, on a basis built in setup
  cli-reload  `jackideal ideal basis` for the basis-deep grid, as a subprocess
              reading a --cache-dir filled in setup

Each repetition runs in a fresh interpreter (worker.py), so process-wide
caches start cold; repetitions repeat until --seconds have passed (at least
three).  All work is serial, and runs on one CPU.  Every output is checked
exactly against reference.json or, for the seeded membership queries,
against the combination each query was built from; a mismatch, a failed
case or a raised exception counts as a failed operation.  A self-check
compares the process-wide cache sizes of the first and last repetition, so
state leaking between repetitions shows as one more failure.

Times are reported at a reference host speed (calib.py): the host's core
speed drifts by up to 2x over minutes, so each repetition also times a
fixed arithmetic kernel in short samples between its units of work, and
every time is scaled by REF_S over the kernel's mean time in the same phase
of the same repetition (an item's latency: over the samples nearest to it;
a CLI process: over its own samples).  A change to the package moves only
the work, so it shows in full.  The unscaled medians and the wall-time scale
factors are printed on the `raw` and `host` lines for reference.

With --trace 0 it reports the end-to-end metrics, each the median over the
run's timed units (setup_s over repetitions; item percentiles over items,
each item's latency being its median over repetitions, except that the
alike CLI processes of cli-reload are pooled):

  wall_s       wall time of the timed phase (cli-reload: one CLI process,
               spawn to exit, including interpreter start and import)
  cpu_s        CPU time of the timed phase (cli-reload: of the CLI process)
  item_p50_ms  median item latency: one Jack solved (basis-*), one closure
               case or membership query (verify), one CLI process (cli-reload)
  item_p90_ms  90th percentile item latency
  peak_rss_mb  peak resident memory of the process running the workload
  setup_s      import, input generation and warm phase (verify: building its
               bases; cli-reload: filling the cache directory)

With --trace 1 it alternates untraced and traced repetitions.  Traced ones
wrap the package's public functions from outside (spans.py) and report the
per-layer metrics as medians over traced timed units; metrics ending in `.s`
include child spans, `.self_s` excludes them, and span times are not
scaled.  trace.overhead_s is the traced minus the untraced median (scaled)
wall time.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("basis-deep", "basis-wide", "verify", "cli-reload")

MIN_REPS = 3
STOP_STARTING_S = 140   # no new repetition after this much of the run
HARD_LIMIT_S = 170      # a repetition still running by then is killed

END_TO_END = {"wall_s": "s", "cpu_s": "s", "item_p50_ms": "ms",
              "item_p90_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "jack.solve.self_s": "s", "jack.solve.calls": "count",
    "jack.hrow.s": "s", "jack.hrow.calls": "count",
    "operators.hamiltonian.s": "s",
    "jack.specialize.s": "s", "jack.specialize.calls": "count",
    "jack.cache.mem_hits": "count", "jack.cache.disk_hits": "count",
    "jack.cache.misses": "count", "jack.cache.disk_load_s": "s",
    "jack.cache.disk_bytes": "bytes",
    "ratfunc.poly_mul.calls": "count", "ratfunc.poly_divmod.calls": "count",
    "ratfunc.ratfunc_new.calls": "count",
    "ratfunc.coeff.max_beta_degree": "degree", "ratfunc.coeff.max_bits": "bits",
    "sympoly.to_expanded.s": "s", "sympoly.to_expanded.terms_out": "count",
    "sympoly.to_msym.s": "s", "sympoly.multiply.s": "s",
    "operators.w.s": "s", "operators.w.calls": "count",
    "operators.l.s": "s", "operators.p.s": "s",
    "operators.image_terms": "count",
    "ideal.reduce.s": "s", "ideal.reduce.calls": "count",
    "ideal.reduce.nonmembers": "count", "ideal.bareiss.s": "s",
    "ideal.build_basis.s": "s",
    "partitions.dominated_by.calls": "count",
    "cli.emit.s": "s", "cli.stdout_bytes": "bytes",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return " ".join(fh.read().split()[:3])
    except OSError:
        return None


def pin_to_one_cpu():
    """Run this process, and every process it starts, on one CPU: the cores
    of a shared host drift in speed independently, so calibration samples
    must be taken on the core that runs the work they scale."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def run_worker(args, work, tag, traced, t_start):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--scale", "smoke" if args.smoke else "full",
           "--work", work, "--tag", tag] + (["--traced"] if traced else [])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            start_new_session=True)
    timeout = max(1.0, HARD_LIMIT_S - (time.perf_counter() - t_start))
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("repetition %s did not finish in time" % tag)
    finally:
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchError("repetition %s exited with %d" % (tag, proc.returncode))
    lines = stdout.decode().strip().splitlines()
    if not lines:
        raise BenchError("repetition %s printed no result" % tag)
    return json.loads(lines[-1])


def run_reps(args, work):
    """Repetitions as (traced, result) until the time budget is spent."""
    t_start = time.perf_counter()
    reps = []
    while True:
        elapsed = time.perf_counter() - t_start
        if args.trace:
            # untraced/traced pairs; stop only after a complete pair
            done = len(reps) % 2 == 0 and len(reps) >= 2
        else:
            done = len(reps) >= MIN_REPS
        if (done and elapsed >= args.seconds) or \
                (elapsed >= STOP_STARTING_S and (done or len(reps) >= 2)):
            return reps
        traced = bool(args.trace) and len(reps) % 2 == 1
        reps.append((traced, run_worker(args, work, "r%d" % len(reps),
                                        traced, t_start)))


def raw_summary(reps):
    """Unscaled medians and the scale factors, for the `raw`/`host` lines."""
    units = [u for _, r in reps for u in r["units"]]
    return {"wall_s": statistics.median(u["raw_wall_s"] for u in units),
            "cpu_s": statistics.median(u["raw_cpu_s"] for u in units),
            "setup_s": statistics.median(r["raw"]["setup_s"] for _, r in reps)}, \
        {"timed": statistics.median(r["host"]["timed"] for _, r in reps),
         "setup": statistics.median(r["host"]["setup"] for _, r in reps)}


def drift_failures(reps):
    """0 if the first and last repetition of each mode saw the same
    process-wide cache sizes, else 1."""
    failed = 0
    for mode in (False, True):
        states = [r["state"] for traced, r in reps if traced == mode]
        if len(states) >= 2 and states[0] != states[-1]:
            failed = 1
    return failed


def item_latencies(reps, alike):
    """Each item's median latency over the repetitions.

    Every repetition runs the same items in the same order.  Taking each
    item's median first keeps the percentiles over items from jumping
    between neighbouring items of very different size when the host's speed
    differs between repetitions.  Items that are all alike (CLI processes)
    are pooled instead.
    """
    lists = [r["items_ms"] for _, r in reps]
    if alike:
        return [x for items in lists for x in items]
    return [statistics.median(items[i] for items in lists if i < len(items))
            for i in range(max(map(len, lists)))]


def end_to_end(reps, workload):
    units = [u for _, r in reps for u in r["units"]]
    items = item_latencies(reps, alike=workload == "cli-reload")
    return {
        "wall_s": statistics.median(u["wall_s"] for u in units),
        "cpu_s": statistics.median(u["cpu_s"] for u in units),
        "item_p50_ms": statistics.median(items),
        "item_p90_ms": statistics.quantiles(items, n=10, method="inclusive")[-1],
        "peak_rss_mb": statistics.median(u["rss_mb"] for u in units),
        "setup_s": statistics.median(r["setup_s"] for _, r in reps),
    }


def per_layer(reps):
    import spans
    rows = []
    for traced, r in reps:
        if not traced:
            continue
        # one dump per timed unit, in the same order
        for unit, path in zip(r["units"], r["traces"]):
            with open(path) as fh:
                row = spans.layer_metrics(json.load(fh))
            row["cli.stdout_bytes"] = unit.get("stdout_bytes", 0)
            rows.append(row)
    out = {name: statistics.median(row[name] for row in rows)
           for name in rows[0]}
    walls = {mode: statistics.median(u["wall_s"] for traced, r in reps
                                     if traced == mode for u in r["units"])
             for mode in (False, True)}
    out["trace.overhead_s"] = walls[True] - walls[False]
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny grids, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "jackideal", "__init__.py")):
        print("error: no jackideal package under %s" % SRC, file=sys.stderr)
        return 2

    env = {"python": sys.version.split()[0], "nproc": os.cpu_count(),
           "loadavg_start": loadavg()}
    pin_to_one_cpu()
    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=os.path.join(ROOT, ".perfbench_work"))
    try:
        reps = run_reps(args, work)
        metrics = per_layer(reps) if args.trace \
            else end_to_end(reps, args.workload)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    env["loadavg_end"] = loadavg()

    attempted = sum(r["attempted"] for _, r in reps) + 1   # + drift check
    failed = sum(r["failed"] for _, r in reps) + drift_failures(reps)
    units = PER_LAYER if args.trace else END_TO_END
    print("workload %s seed %d: samples: %d repetitions, %d timed units, "
          "%d items per repetition"
          % (args.workload, args.seed, len(reps),
             sum(len(r["units"]) for _, r in reps),
             max(len(r["items_ms"]) for _, r in reps)))
    print("env %s" % json.dumps(env))
    raw, host = raw_summary(reps)
    print("raw %s" % json.dumps(raw))
    print("host %s" % json.dumps(host))
    for _, r in reps:
        for note in r["notes"]:
            print("note: %s" % note)
    for name, value in metrics.items():
        print("%-32s %s %s" % (name, value, units[name]))
    print("fail_ratio %s (%d of %d)" % (failed / attempted, failed, attempted))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
