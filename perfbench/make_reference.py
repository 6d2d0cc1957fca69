"""Write reference.json, the exact outputs the benchmark's oracle expects.

The reference was computed once from a trusted commit and is checked in; a
later change must reproduce it, so regenerate it only when the expected
outputs are meant to change.  Usage, from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py
"""

import hashlib
import json
import subprocess
import sys
import tempfile

import workloads as W
from jackideal import ideal, jack


def main():
    ref = {"bases": {}, "verdicts": {"closure": {}, "wheel": {}}, "cli": {}}
    for scale in W.SCALES.values():
        k, r, n, dmax, mmax, tmax = scale["closure"]
        wk, wn, wdmax = scale["wheel"]
        grids = [scale["deep"], scale["wide"], (k, r, n, dmax), (wk, 2, wn, wdmax)]
        for grid in grids:
            basis = ideal.build_basis(*grid, cache=jack.JackCache())
            ref["bases"][W.key_of(grid)] = W.basis_digests(basis)
        rep = ideal.verify_closure(k, r, n, dmax, mmax, tmax, cache=jack.JackCache())
        ref["verdicts"]["closure"][W.key_of(scale["closure"])] = W.verdicts(rep)
        rep = ideal.verify_wheel(wk, wn, wdmax, cache=jack.JackCache())
        ref["verdicts"]["wheel"][W.key_of(scale["wheel"])] = W.verdicts(rep)
        with tempfile.TemporaryDirectory() as cache_dir:
            ideal.build_basis(*scale["deep"], cache=jack.JackCache(cache_dir))
            stdout = subprocess.run(
                [sys.executable, "-m", "jackideal.cli"]
                + W.cli_args(scale["deep"], cache_dir),
                stdout=subprocess.PIPE, check=True).stdout
        ref["cli"][W.key_of(scale["deep"])] = hashlib.sha256(stdout).hexdigest()
    with open(W.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
