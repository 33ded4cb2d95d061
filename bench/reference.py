"""Measure how fast the machine runs while the benchmark times the program.

The benchmark runs on shared hosts whose processors slow down by tens of
percent, for a fraction of a second up to minutes, while other tenants run,
with no steal time booked.  The other core does not see the same slowdown,
so the speed has to be measured on the benchmark's own core, during the very
seconds it times.  ``SpeedSampler`` does this: while it is active, a timer
interrupts the program every ``PROBE_EVERY_S`` seconds and times a fixed
probe, a little Python arithmetic and one small numpy FFT round trip, like
the program's own mix.  The probe's time is taken out of the program's
time, and the mean probe time says how slow the machine was meanwhile.

The probe uses only numpy and the standard library and never changes with
the program, so a change to fujitalab cannot move it.  ``PROBE_NOMINAL_S``
is its median time, rounded, on a 2-core Xeon KVM guest (Python 3.11.7,
numpy 2.4.6) while the host was quiet; under load the same guest took 2.3 to
3.3 ms.  A program time ``t`` measured with mean probe time ``r`` is reported
as ``t * PROBE_NOMINAL_S / r``: seconds at the quiet machine's speed.

The probe tracks the program closely: over 20 passes of each task on that
guest, the correlation of task time with mean probe time was 0.96 to 0.99,
and dividing by it cut the spread between passes from 0.16-0.32 of the
median to 0.04-0.07.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

PROBE_EVERY_S = 0.05
PROBE_NOMINAL_S = 0.002
_FIELD = np.random.default_rng(0).standard_normal((32, 32, 32))
_AXES = (0, 1, 2)
# Bound now, so that a tracer that wraps numpy's FFT does not see the probes.
_RFFTN, _IRFFTN = np.fft.rfftn, np.fft.irfftn


def probe() -> float:
    """Seconds for a fixed piece of Python and numpy work."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1, 6000):
        acc += math.exp(-1.0 / i) * math.sqrt(i)
    out = _IRFFTN(_RFFTN(_FIELD) * 0.5, s=_FIELD.shape, axes=_AXES)
    np.abs(out) ** 2
    return time.perf_counter() - t0


def probes(n: int) -> float:
    """Median of ``n`` probes run back to back."""
    return statistics.median(probe() for _ in range(n))


class SpeedSampler:
    """Times ``probe`` every ``PROBE_EVERY_S`` seconds while active.

    ``spent`` is the time spent in the timer's handler, which the caller
    subtracts from what it measured; ``times`` are the probe times.
    Python runs the handler between bytecodes of the main thread, so a probe
    never interrupts numpy in the middle of a call.
    """

    def __init__(self):
        self.spent = 0.0
        self.times: list = []
        self._busy = False
        self._previous = None

    def _handler(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        try:
            self.times.append(probe())
        finally:
            self.spent += time.perf_counter() - t0
            self._busy = False

    def __enter__(self):
        probe()  # first-call costs stay out of the samples
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def clock(self) -> float:
        """``time.perf_counter`` without the time spent in probes."""
        return time.perf_counter() - self.spent

    def mark(self) -> tuple:
        return self.spent, len(self.times)

    def since(self, mark: tuple) -> tuple:
        """Handler seconds and mean probe time since ``mark``."""
        spent, n = mark
        recent = self.times[n:] or [probe()]
        return self.spent - spent, math.fsum(recent) / len(recent)
