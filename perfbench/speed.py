"""Machine-speed gauge: rescales measured times to a reference speed.

On a shared host the speed of one vCPU swings by up to 2x over tens of
seconds, as other tenants contend for the physical core and its caches.
That is far more than the changes the benchmark must resolve, and it does
not average out over a run of a few seconds. So the closed loop runs a
fixed probe every EVERY_S between checks. The probe calls none of the
program's code: it does Fraction arithmetic and dict and list work, the
kinds of work the checks do. It therefore slows with the machine but not
with the program. (A JSON round trip was left out: on a 5-minute trace it
slowed less than the checks did, and tracked them worse.) A time measured
at t is divided by the slowdown around t: the median probe time of the
nearest probes, over REFERENCE_S.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

#: The probe's time on an idle core of the reference machine (a 2-vCPU
#: x86-64 VM), in seconds. Rescaled times are times on that machine.
REFERENCE_S = 0.0008
#: Least time between two probes, in seconds.
EVERY_S = 0.05
#: Probes on each side of a moment that give the slowdown there.
HALF_WINDOW = 15

_ROWS = [{"a": i, "b": [i, i + 1, str(i)], "c": {"d": i * 2}} for i in range(160)]


def probe() -> float:
    """Seconds taken by the fixed probe work, two parts of about equal
    length."""
    start = time.perf_counter()
    x = Fraction(0)
    for i in range(1, 82):
        x += Fraction(i % 7 + 1, i % 11 + 2) * Fraction(3, i + 1)
    acc = 0
    for row in _ROWS:
        d = dict(row)
        d["e"] = sorted(d["b"], key=str)
        acc += len(d) + d["c"]["d"] + sum(v for v in range(20) if v % 3)
    return time.perf_counter() - start


class Gauge:
    """Probe times in the order taken, with the moments they were taken."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        self.times.append(probe())
        self.starts.append(start)

    def tick(self) -> None:
        """Probe if EVERY_S has passed since the last probe."""
        if not self.starts or time.perf_counter() - self.starts[-1] >= EVERY_S:
            self.sample()

    def current(self) -> float:
        """Slowdown over the latest probes."""
        if not self.times:
            self.sample()
        return statistics.median(self.times[-2 * HALF_WINDOW - 1:]) / REFERENCE_S

    def around(self, moment: float) -> float:
        """Slowdown over the probes nearest to `moment`."""
        i = bisect.bisect(self.starts, moment)
        window = self.times[max(0, i - HALF_WINDOW):i + HALF_WINDOW]
        return statistics.median(window) / REFERENCE_S
