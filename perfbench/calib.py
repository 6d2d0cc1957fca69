"""Host-speed calibration for the benchmark's timings.

On a shared host the speed of one core drifts by up to 2x over minutes
(neighbours on the same physical cores, frequency changes), which moves
wall and CPU time alike.  So the benchmark times a fixed kernel, written
here and never changed with the package, in short samples interleaved with
the work it measures, and reports every time scaled by

    REF_S / (mean kernel time over the same phase of the same repetition)

i.e. in seconds on a host where the kernel takes REF_S.  A change to the
package moves the work and not the kernel, so it shows in full; a change of
host speed moves both, and cancels.

The kernel does what the package's solver spends its time on: dense
polynomial products, long division and Euclid gcds with Fraction and big-int
coefficients.
"""

import time
from fractions import Fraction

# The unit of normalised times: seconds on a host where one kernel() call
# takes REF_S.  (A 2-vCPU Intel Xeon KVM guest with Python 3.11 takes
# 3.5-6 ms, depending on the spell it is in.)
REF_S = 0.004


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def _mod(a, b):
    rem = list(a)
    inv = Fraction(1) / b[-1]
    db = len(b) - 1
    for i in range(len(rem) - 1, db - 1, -1):
        q = rem[i] * inv
        if q:
            for j, cb in enumerate(b):
                rem[i - db + j] -= q * cb
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


def _gcd(a, b):
    while b:
        a, b = b, _mod(a, b)
    return a


def _round():
    a = [Fraction(3 * i - 7, i + 2) for i in range(7)]
    b = [Fraction(5 - 2 * i, 2 * i + 1) for i in range(6)]
    c = [i * i - 3 for i in range(1, 6)]
    ab, bc = _mul(a, b), _mul(b, c)
    g = _gcd(_mul(ab, c), _mul(bc, a))   # a common factor of degree 15
    big = _mul(_mul(c, c), [10 ** 30 + i for i in range(8)])
    return len(g) + sum(big) % 1000003


def kernel():
    """A fixed amount of exact arithmetic; returns a checksum."""
    return sum(_round() for _ in range(5))


CHECKSUM = 4672140     # kernel()'s result


class Clock:
    """Timing with calibration samples taken between units of work.

    now() and cpu() exclude the time spent in calibration, so a sample taken
    inside a timed phase does not count towards it.  tick() takes one sample
    if at least `every_s` has passed since the last; every_s=None disables
    ticks (calibrate() still samples).
    """

    def __init__(self, every_s=0.1):
        self.every_s = every_s
        self.paused_wall = self.paused_cpu = 0.0
        self.walls, self.cpus, self.times = [], [], []
        self.last = time.perf_counter()

    def now(self):
        return time.perf_counter() - self.paused_wall

    def cpu(self):
        return time.process_time() - self.paused_cpu

    def calibrate(self, count=1):
        for _ in range(count):
            w0, c0 = time.perf_counter(), time.process_time()
            if kernel() != CHECKSUM:
                raise AssertionError("calibration kernel gave a wrong result")
            w1, c1 = time.perf_counter(), time.process_time()
            self.times.append(w0 - self.paused_wall)     # on now()'s scale
            self.walls.append(w1 - w0)
            self.cpus.append(c1 - c0)
            self.paused_wall += w1 - w0
            self.paused_cpu += c1 - c0
        self.last = time.perf_counter()

    def tick(self):
        if self.every_s is not None and \
                time.perf_counter() - self.last >= self.every_s:
            self.calibrate()

    def reset(self):
        """Start a new set of samples (the paused totals run on)."""
        self.walls, self.cpus, self.times = [], [], []

    def factors(self):
        """[wall, cpu] scale factors to reference host speed."""
        return [REF_S / host_time(self.walls), REF_S / host_time(self.cpus)]

    def scaled_ms(self, start, end, window=0.25):
        """end - start (on now()'s scale) in ms, scaled by the wall samples
        taken within `window` seconds of it (widened until there are 3)."""
        while True:
            near = [w for t, w in zip(self.times, self.walls)
                    if start - window <= t <= end + window]
            if len(near) >= 3 or len(near) == len(self.walls):
                return (end - start) * 1e3 * REF_S / host_time(near)
            window *= 2


def host_time(samples):
    """The kernel's time at the host speed the samples were taken under.

    The mean, because the work between samples ran through the same mix of
    fast and slow spells; samples over 2.5x the median are dropped, because
    a preemption costs a short sample much more than the work around it.
    """
    ordered = sorted(samples)
    cut = 2.5 * ordered[len(ordered) // 2]
    kept = [x for x in ordered if x <= cut]
    return sum(kept) / len(kept)
