"""Times in reference seconds, corrected for the speed of a shared machine.

On a small shared virtual machine the speed of all CPU-bound code changes
by up to half within minutes, with the load of other tenants.  A run that
reports raw seconds then measures the host as much as the program.  So
every timed interval is scaled by REFERENCE_S / c, where c is the time of a
fixed probe computation measured just before and just after the interval.
The probe does the same kinds of work as quadguess (Cauchy-product sums of
1200-bit integers and Fraction arithmetic) but calls no quadguess code, so
no change to the program moves it.

In a 100 s test on a 2-vCPU VM, raw per-window times of identical guess
calls spread by 5.2% (interquartile range over median) and the scaled ones
by 1.5%.  Raw seconds are reported next to the scaled ones.
"""

import random
from bisect import bisect_right
from fractions import Fraction
from time import perf_counter

# The probe's time on a quiet machine; scaled times read as seconds on a
# machine that runs the probe in exactly this time.
REFERENCE_S = 0.013
# Probe at most this often, so short operations are not dominated by it.
PROBE_INTERVAL_S = 0.1

_rng = random.Random(20220703)
_INTS = [_rng.getrandbits(1200) - (1 << 1199) for _ in range(64)]
_FRACS = [Fraction(_rng.getrandbits(256) + 1, _rng.getrandbits(256) + 1)
          for _ in range(64)]


def probe_seconds():
    start = perf_counter()
    for m in range(len(_INTS)):
        total = 0
        for t in range(m + 1):
            total += _INTS[t] * _INTS[m - t]
    acc = Fraction(0)
    for x in _FRACS:
        acc += x * x
    return perf_counter() - start


class SpeedClock:
    """Probe samples over a run, and the scale factor for an interval."""

    def __init__(self):
        self._stamps = []      # perf_counter() when each probe ended
        self._seconds = []

    def probe(self):
        self._seconds.append(probe_seconds())
        self._stamps.append(perf_counter())

    def probe_if_due(self):
        if not self._stamps or \
                perf_counter() - self._stamps[-1] >= PROBE_INTERVAL_S:
            self.probe()

    def factor(self, start):
        """REFERENCE_S over the mean of the probes around an interval that
        began at `start` (perf_counter) after at least one probe."""
        i = bisect_right(self._stamps, start)
        before = self._seconds[i - 1]
        after = self._seconds[i] if i < len(self._seconds) else before
        return REFERENCE_S / ((before + after) / 2)

    def speed(self):
        """Machine speed relative to the reference (median probe)."""
        ordered = sorted(self._seconds)
        return REFERENCE_S / ordered[len(ordered) // 2]
