"""The host-speed probe that puts every end-to-end time on one reference
speed.

The benchmark runs on a few vCPUs of a shared host whose speed drifts:
identical pure-Python work, timed in one process, runs up to 1.6 times
slower at some moments than at others, and the slow and fast spells last
from seconds to minutes (process CPU time drifts as much as wall time, so
this is not time taken from the process).  A 30 s run then measures the
host as much as the program.

The probe is fixed work that shares no code with mforge: `Fraction`
arithmetic and small dict and tuple traffic, the same kind of interpreter
work the checks do.  A change to mforge therefore leaves its time alone,
while a slow spell of the host lengthens it.  The probe runs right before
every check and around every set-up; a measured time `t` is reported as
`t * REF_PROBE_S / p`, where `p` is the probe time around it: the
time the work would have taken on a host on which the probe takes
`REF_PROBE_S`.  A check is scaled by the probes right before and right
after it; a mean over a wider window of probes took out less of the drift
in trials, because the host can change speed from one check to the next.

Time inside the table kernel (`mforge.tables._kernel`, numpy-vectorized
or compiled) is left as measured.  The host's slow spells barely slow it:
the 2^30-triple associativity sweep, almost all kernel time, took 5.04 s
with a coefficient of variation of 0.046 over 35 rounds while the probe
ranged over 1.6 times, and scaling it as interpreter time made it the
noisiest term of `finite_exhaustive`.  So a time `t` of which `k` seconds
were spent in the kernel is reported as `k + (t - k) * REF_PROBE_S / p`.
"""

from __future__ import annotations

import contextlib
import gc
import statistics
import time
from fractions import Fraction

# The probe's time on the reference host, in seconds: roughly its median
# on the 2-vCPU host the baseline was measured on, so that reported times
# are close to that host's wall times.
REF_PROBE_S = 0.25e-3

# Probes before and after a set-up.
SETUP_PROBES = 5

KERNEL_FUNCTIONS = ("first_assoc_violation", "first_identity_violation",
                    "first_inverse_violation", "first_hom_violation")


def _work():
    s = Fraction(0)
    seen = {}
    for i in range(1, 40):
        s += Fraction(i, i + 1) * Fraction(1, i + 2)
        seen[i % 7] = (i, s)
    return s


def probe_s():
    """Seconds the probe takes now: run once to warm, then once timed,
    with the collector off so that a collection of the workload's heap
    does not land in it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _work()
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scaled(t, probe, kernel=0.0):
    """`t` seconds measured while the probe took `probe` seconds, `kernel`
    of them inside the table kernel, in seconds at the reference speed."""
    return kernel + (t - kernel) * REF_PROBE_S / probe


class KernelClock:
    """Seconds spent inside the table kernel functions, summed."""

    def __init__(self):
        self.seconds = 0.0

    def _timed(self, fn):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - t0
        return timed

    @contextlib.contextmanager
    def installed(self):
        """Wrap the kernel functions of whichever backend is active, and
        restore them on the way out."""
        from mforge import tables
        kernel = tables._kernel
        originals = {name: getattr(kernel, name) for name in KERNEL_FUNCTIONS}
        try:
            for name, fn in originals.items():
                setattr(kernel, name, self._timed(fn))
            yield self
        finally:
            for name, fn in originals.items():
                setattr(kernel, name, fn)


class Meter:
    """Probe and kernel times around each check of a closed loop.
    `probes[j]` ran right before check `j`; the last one ran after the
    last check."""

    def __init__(self, kernel_clock):
        self.clock = kernel_clock
        self.probes = []
        self.kernel_s = []
        self._k0 = 0.0

    def before_check(self):
        self.probes.append(probe_s())
        self._k0 = self.clock.seconds

    def after_check(self):
        self.kernel_s.append(self.clock.seconds - self._k0)

    def finish(self):
        self.probes.append(probe_s())

    def scaled_latency(self, i, dt):
        """Check `i`'s wall time `dt`, scaled by the mean of the probes
        right before and right after it."""
        return scaled(dt, (self.probes[i] + self.probes[i + 1]) / 2,
                      self.kernel_s[i])


def timed_scaled(fn, kernel_clock):
    """Run `fn` once between two bursts of probes.  Returns its result,
    its wall time, its time inside the kernel and the median probe time
    around it."""
    before = [probe_s() for _ in range(SETUP_PROBES)]
    k0 = kernel_clock.seconds
    t0 = time.perf_counter()
    out = fn()
    dt = time.perf_counter() - t0
    kernel = kernel_clock.seconds - k0
    after = [probe_s() for _ in range(SETUP_PROBES)]
    return out, dt, kernel, statistics.median(before + after)
