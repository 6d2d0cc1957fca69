"""One repetition of a benchmark workload, in a fresh interpreter.

Started by run.py as a script: every repetition gets its own process, so
the package's process-wide caches (jack.default_cache, the Hamiltonian row
cache, the lru_caches in sympoly and partitions) start cold without reaching
into private names.  Prints one JSON object on its last stdout line:

  setup_s   import, input generation and warm phase of this repetition
  units     per timed unit: wall_s, cpu_s, their unscaled raw_wall_s and
            raw_cpu_s, rss_mb (one unit per repetition; one per CLI
            invocation for cli-reload)
  items_ms  latency of each item (one Jack solved, one closure case or
            membership query, one CLI invocation), each scaled by the
            samples taken closest to it
  raw, host the unscaled set-up time, and the wall-time scale factors of
            set-up and timed phase
  attempted, failed   exact-oracle checks made and failed
  state     process-wide cache sizes at the start and end of the timed phase
  traces    span dumps written by traced timed units

Times are scaled to reference host speed (calib.py) by calibration samples
taken in the same phase, on the same core; the samples' own time is left
out of every time.  Samples are taken between items (at most one per
TICK_S of work) and around each phase; a CLI process takes its own
(cli_child.py).
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import calib  # noqa: E402
import workloads as W  # noqa: E402
from jackideal import ideal, jack, partitions, report, sympoly  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 10    # calibration samples at the end of set-up
TIMED_SAMPLES = 5     # ... at each end of a timed phase
TICK_S = 0.05         # one sample per this much work, at item boundaries


def stamped(fn, clock, stamps=None):
    """fn, appending clock.now() to stamps after each call, then letting the
    clock take a calibration sample if one is due."""
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        if stamps is not None:
            stamps.append(clock.now())
        clock.tick()
        return out
    return wrapper


def ticking_cache(clock, directory=None):
    """A fresh JackCache that lets the clock sample after each Jack stored."""
    cache = jack.JackCache(directory)
    cache.put = stamped(cache.put, clock)
    return cache


def end_setup(clock, out):
    """Record set-up time, scaled by the samples taken during set-up."""
    raw = clock.now() - T0
    clock.calibrate(SETUP_SAMPLES)
    factor = clock.factors()[0]
    out["setup_s"], out["raw"]["setup_s"] = raw * factor, raw
    out["host"]["setup"] = factor
    clock.reset()


def unit(wall, cpu, factors, rss, **extra):
    """A timed unit: wall and CPU time scaled by (wall, cpu) factors, and raw."""
    return dict(wall_s=wall * factors[0], cpu_s=cpu * factors[1],
                raw_wall_s=wall, raw_cpu_s=cpu, rss_mb=rss, **extra)


def intervals(start, stamps):
    edges = [start] + stamps
    return list(zip(edges, edges[1:]))


def state():
    """Sizes of the package's process-wide caches (absent ones are skipped)."""
    out = {}
    cache = getattr(jack, "default_cache", None)
    if cache is not None:
        out["jack.default_cache"] = len(cache)
    for mod, name in ((sympoly, "orbit_exponents"), (sympoly, "orbit_size"),
                      (partitions, "partitions_leq")):
        info = getattr(getattr(mod, name, None), "cache_info", None)
        if info is not None:
            out[name] = info().currsize
    return out


def rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Timed:
    """Wall and CPU time of a block, less calibration samples taken inside
    it, with the tracer active inside it; `factors` scale them."""

    def __init__(self, tracer, clock):
        self.tracer, self.clock = tracer, clock

    def __enter__(self):
        self.states = [state()]
        self.clock.calibrate(TIMED_SAMPLES)
        if self.tracer is not None:
            self.tracer.active = True
        self.wall, self.cpu = self.clock.now(), self.clock.cpu()
        return self

    def __exit__(self, *exc):
        self.wall = self.clock.now() - self.wall
        self.cpu = self.clock.cpu() - self.cpu
        if self.tracer is not None:
            self.tracer.active = False
        self.clock.calibrate(TIMED_SAMPLES)
        self.factors = self.clock.factors()
        self.states.append(state())


def attempt(call, out, what):
    """call(), or None (with a note) if the program raised: a failed run."""
    try:
        return call()
    except Exception as exc:
        out["notes"].append("%s raised %r" % (what, exc))
        return None


def run_basis(grid, ref, tracer, clock, out):
    fam_size = sum(1 for _ in partitions.enumerate_admissible(*grid).all_partitions())
    end_setup(clock, out)
    cache = jack.JackCache()
    stamps = []
    cache.put = stamped(cache.put, clock, stamps)
    with Timed(tracer, clock) as t:
        start = clock.now()
        basis = attempt(lambda: ideal.build_basis(*grid, cache=cache), out,
                        "build_basis")
    out["items_ms"] = [clock.scaled_ms(*span)
                       for span in intervals(start, stamps)]
    if basis is None:
        out["attempted"], out["failed"] = fam_size, fam_size
    else:
        out["attempted"], out["failed"] = W.check_basis(
            basis, grid, ref["bases"][W.key_of(grid)])
    out["units"] = [unit(t.wall, t.cpu, t.factors, rss_mb())]
    out["host"]["timed"] = t.factors[0]
    out["state"] = t.states


def run_verify(scale, seed, ref, tracer, clock, out):
    k, r, n, dmax, mmax, tmax = scale["closure"]
    wk, wn, wdmax = scale["wheel"]
    cache = ticking_cache(clock)
    attempted = failed = 0
    bases = []
    for grid in ((k, r, n, dmax), (wk, 2, wn, wdmax)):
        bases.append(ideal.build_basis(*grid, cache=cache))
        a, f = W.check_basis(bases[-1], grid, ref["bases"][W.key_of(grid)])
        attempted, failed = attempted + a, failed + f
    queries = W.make_queries(bases[0], seed, scale["queries"])
    end_setup(clock, out)

    stamps, queries_at, answers = [], [], []
    add = report.Report.add
    with Timed(tracer, clock) as t:
        start = clock.now()
        # one stamp per closure case
        report.Report.add = stamped(add, clock, stamps)
        try:
            closure = attempt(lambda: ideal.verify_closure(
                k, r, n, dmax, mmax, tmax, cache=cache), out, "verify_closure")
        finally:
            report.Report.add = add
        wheel = attempt(lambda: ideal.verify_wheel(wk, wn, wdmax, cache=cache),
                        out, "verify_wheel")
        for P, comb, mu in queries:
            q0 = clock.now()
            cert = attempt(lambda: ideal.reduce_membership(P, bases[0]),
                           out, "reduce_membership")
            queries_at.append((q0, clock.now()))
            answers.append(cert is not None and W.certificate_ok(cert, comb, mu))
            clock.tick()
    for suite, params, rep in (("closure", scale["closure"], closure),
                               ("wheel", scale["wheel"], wheel)):
        want = ref["verdicts"][suite][W.key_of(params)]
        a, f = W.check_verdicts(rep, want) if rep else (len(want), len(want))
        attempted, failed = attempted + a, failed + f
    attempted += len(answers)
    failed += answers.count(False)
    out["items_ms"] = [clock.scaled_ms(*span)
                       for span in intervals(start, stamps) + queries_at]
    out["attempted"], out["failed"] = attempted, failed
    out["units"] = [unit(t.wall, t.cpu, t.factors, rss_mb())]
    out["host"]["timed"] = t.factors[0]
    out["state"] = t.states


def run_cli_reload(scale, ref, traced, work, tag, clock, out):
    grid = scale["deep"]
    cache_dir = os.path.join(work, "cache-" + tag)
    ideal.build_basis(*grid, cache=ticking_cache(clock, cache_dir))
    end_setup(clock, out)
    want = ref["cli"][W.key_of(grid)]
    argv = W.cli_args(grid, cache_dir)
    out["units"], out["items_ms"] = [], []
    out["state"] = [state()]
    failed = 0
    for i in range(scale["cli_runs"]):
        samples = os.path.join(work, "calib-%s-%d.json" % (tag, i))
        cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), samples]
        if traced:
            dump = os.path.join(work, "trace-%s-%d.json" % (tag, i))
            cmd += ["--trace", dump]
            out["traces"].append(dump)
        start = time.perf_counter()
        proc = subprocess.Popen(cmd + argv, stdout=subprocess.PIPE)
        stdout = proc.stdout.read()
        proc.stdout.close()
        # wait4 gives this child's own CPU time and peak RSS; record the
        # exit status on the Popen so it does not try to reap the pid again
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(samples) as fh:
            cal = json.load(fh)
        out["units"].append(unit(
            wall - cal["paused_wall"],
            usage.ru_utime + usage.ru_stime - cal["paused_cpu"],
            cal["factors"], usage.ru_maxrss / 1024.0,
            stdout_bytes=len(stdout)))
        out["items_ms"].append(out["units"][-1]["wall_s"] * 1e3)
        failed += proc.returncode != 0 or \
            hashlib.sha256(stdout).hexdigest() != want
    out["host"]["timed"] = statistics.median(
        u["wall_s"] / u["raw_wall_s"] for u in out["units"])
    out["state"].append(state())
    out["attempted"], out["failed"] = scale["cli_runs"], failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", choices=sorted(W.SCALES), default="full")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--work", required=True, help="scratch directory")
    ap.add_argument("--tag", required=True, help="unique name of this repetition")
    args = ap.parse_args(argv)
    scale = W.SCALES[args.scale]
    ref = W.load_reference()
    out = {"notes": [], "traces": [], "raw": {}, "host": {}}
    tracer = None
    if args.traced and args.workload != "cli-reload":
        import spans
        tracer = spans.install()
    # traced repetitions sample only outside the tracer's spans
    clock = calib.Clock(None if args.traced else TICK_S)
    runs = {
        "basis-deep": lambda: run_basis(scale["deep"], ref, tracer, clock, out),
        "basis-wide": lambda: run_basis(scale["wide"], ref, tracer, clock, out),
        "verify": lambda: run_verify(scale, args.seed, ref, tracer, clock, out),
        "cli-reload": lambda: run_cli_reload(scale, ref, args.traced,
                                             args.work, args.tag, clock, out),
    }
    runs[args.workload]()
    if tracer is not None:
        dump = os.path.join(args.work, "trace-%s.json" % args.tag)
        tracer.dump(dump)
        out["traces"].append(dump)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
