"""Host speed calibration for the benchmark children.

The benchmark runs on shared virtual CPUs whose speed drifts by tens of
percent over seconds to minutes, and the drift shows in CPU time as much as in
wall time.  Every child therefore samples the speed of its own CPU while it
works: a timer interrupts the operations every ``INTERVAL_S`` seconds and runs
``sample()``, a fixed pure-Python loop that uses nothing of schurmix, so no
change to the program can change it.  A sample's speed is ``NOMINAL_S`` over
its duration; the *reference host* is one on which a sample takes exactly
``NOMINAL_S``, a figure close to what a 2.1 GHz Intel Xeon vCPU with Python
3.11 gives.  Samples are taken at even wall-clock steps, so the mean speed of
the samples taken during the operations, times their measured seconds,
estimates the seconds the operations would take on the reference host.  The
time spent in samples is excluded from the operations' measured time.

On a 2-vCPU Xeon host whose measured times spread by 11-21% (quartile
distance over median, ten runs of a workload), the rescaled times spread by
2-5%.  The
rescaling assumes the program and the sample slow down alike; a host that
slows memory-bound code more than the sample would still show in the figures.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.1
NOMINAL_S = 0.0037
# Samples taken right after start-up, to rescale the set-up time.
SETUP_SAMPLES = 5

_FACTOR = {(i, j, (i * j) % 3): Fraction(i - 2 * j, j + 1) for i in range(5) for j in range(3)}


def sample():
    """One fixed unit of work like the program's: sparse products of
    tuple-keyed Fraction polynomials.  Returns its (wall, cpu) seconds."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    acc = {(0, 0, 0): Fraction(1)}
    for _ in range(3):
        out = {}
        for ea, ca in acc.items():
            for eb, cb in _FACTOR.items():
                key = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
                value = out.get(key, 0) + ca * cb
                if value:
                    out[key] = value
                else:
                    out.pop(key, None)
        acc = out
    return time.perf_counter() - wall0, time.process_time() - cpu0


def speeds(samples):
    """Mean (wall, cpu) speed of (wall, cpu) sample durations."""
    return (
        statistics.fmean(NOMINAL_S / wall for wall, _ in samples),
        statistics.fmean(NOMINAL_S / max(cpu, 1e-6) for _, cpu in samples),
    )


class Sampler:
    """Takes a sample every INTERVAL_S seconds while ``active`` is set.

    ``spent_wall`` and ``spent_cpu`` add up the time spent in samples, so a
    clock can subtract it; ``samples`` holds the (wall, cpu) durations.
    """

    def __init__(self):
        self.active = False
        self.samples = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        self._busy = False

    def _on_alarm(self, signum, frame):
        if not self.active or self._busy:
            return
        self._busy = True
        wall0, cpu0 = time.perf_counter(), time.process_time()
        self.samples.append(sample())
        self.spent_wall += time.perf_counter() - wall0
        self.spent_cpu += time.process_time() - cpu0
        self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self):
        """Wall and CPU seconds, less the time spent in samples."""
        return time.perf_counter() - self.spent_wall, time.process_time() - self.spent_cpu
