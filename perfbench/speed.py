"""CPU speed sampling, used to take machine-speed drift out of the timings.

On a shared virtual machine one vCPU does not run at a steady speed: it
switches, for seconds at a time, between a fast state and one about half as
fast, and the slow state itself drifts by about a tenth.  The switch shows in
process CPU time as well as in wall time, so neither can be used as is.

A fixed pure-Python computation in the style of the package (small Fractions,
dict stores) serves as a speed probe.  It runs right before and right after
each timed interval, and every ``INTERVAL_S`` during it from a SIGALRM
handler (Python runs the handler between bytecodes of the measured code).
The interval is reported twice: as measured, minus the handler's own time,
and scaled to the reference speed, i.e. multiplied by the mean of
``REFERENCE_S / probe time`` over the probes.  A change to the package does
not change the probe, so a comparison between two commits keeps its full
effect while the machine's drift cancels.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from statistics import fmean
from time import perf_counter

# A probe takes this long at the reference speed; scaled timings read "as if
# the machine ran at the speed where one probe takes REFERENCE_S".
REFERENCE_S = 0.001
INTERVAL_S = 0.1


def probe(n: int = 100) -> float:
    t = perf_counter()
    table = {}
    acc = 0
    for i in range(n):
        f = Fraction(i % 13 + 1, i % 11 + 1)
        g = f * f - f / 3
        table[i & 255] = g
        acc += g.numerator
    return perf_counter() - t


class SpeedSampler:
    """Times intervals and scales them by the probes taken around and in them."""

    def __init__(self):
        self.factors = []
        self.handler_s = 0.0
        self._busy = False

    def _sample(self) -> None:
        self._busy = True
        self.factors.append(REFERENCE_S / probe())
        self._busy = False

    def _on_alarm(self, _signum, _frame) -> None:
        if self._busy:
            return
        t = perf_counter()
        self._sample()
        self.handler_s += perf_counter() - t

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def start(self):
        """Probe, then start the clock.  Returns a token for :meth:`stop`."""
        self._sample()
        return len(self.factors) - 1, self.handler_s, perf_counter()

    def stop(self, token) -> tuple[float, float, float]:
        """Since start: (seconds measured without the handler's, the same at
        the reference speed, seconds elapsed in all)."""
        t1 = perf_counter()
        first, handler0, t0 = token
        seconds = t1 - t0 - (self.handler_s - handler0)
        self._sample()
        return seconds, seconds * fmean(self.factors[first:]), t1 - t0
