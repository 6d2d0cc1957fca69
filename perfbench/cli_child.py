"""Run the jackideal CLI in this process, with calibration samples of its own.

    python3 perfbench/cli_child.py SAMPLES.json [--trace DUMP.json] ARGS...

ARGS are the CLI's own (`ideal basis --k 1 ...`); stdout and the exit code
are the CLI's.  Before the package is imported, after each Jack the CLI
stores in its cache (at most one per TICK_S) and after the CLI returns, the
process times calib.py's kernel; it writes the scale factors and the
samples' total wall and CPU time to SAMPLES.json, and the caller leaves that
time out of the process's own and scales what is left.  With --trace the
CLI runs under spans.py's tracer, whose dump goes to DUMP.json, and takes
samples only at the ends.
"""

import json
import sys

import calib

SAMPLES = 5     # calibration samples at each end of the CLI run
TICK_S = 0.05   # one sample per this much work in between


def main(argv):
    samples_path, argv = argv[0], argv[1:]
    dump = None
    if argv[:1] == ["--trace"]:
        dump, argv = argv[1], argv[2:]
    clock = calib.Clock(every_s=None if dump else TICK_S)
    clock.calibrate(SAMPLES)
    tracer = None
    try:
        if dump is not None:
            import spans
            tracer = spans.install()
        from jackideal import cli, jack
        put = jack.JackCache.put

        def ticking_put(cache, *args, **kwargs):
            out = put(cache, *args, **kwargs)
            clock.tick()
            return out
        jack.JackCache.put = ticking_put
        if tracer is not None:
            tracer.active = True
        code = cli.main(argv)
    finally:
        sys.stdout.flush()
        if tracer is not None:
            tracer.active = False
            tracer.dump(dump)
        clock.calibrate(SAMPLES)
        with open(samples_path, "w") as fh:
            json.dump({"factors": clock.factors(),
                       "paused_wall": clock.paused_wall,
                       "paused_cpu": clock.paused_cpu}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
