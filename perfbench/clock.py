"""Machine-speed normalised timing.

The 2-core VM this benchmark was tuned on changes speed by up to 1.6x
for seconds at a time (its cores are shared): a fixed pure-Python loop
of 100k iterations takes either ~15 or ~25 ms, switching every one to
five seconds.  A run catches a random share of fast and slow phases,
which alone moved wall-clock medians by 10-20% from run to run.

:class:`Clock` probes the machine's current speed with a short fixed
loop (at most every ``PROBE_EVERY_S``, between two Session calls) and
scales each measured wall time by ``REFERENCE_PROBE_S / probe``: the
time the work would have taken at the reference speed.  The probes run
outside the timed calls.  Raw wall times are reported next to the
scaled ones.
"""

from __future__ import annotations

from time import perf_counter
from typing import List

PROBE_ITERATIONS = 10_000
#: Probe time that defines the reference speed (the fast phase of the
#: 2-core x86 VM the benchmark was tuned on).
REFERENCE_PROBE_S = 0.00075
PROBE_EVERY_S = 0.1


def spin(iterations: int) -> float:
    """Seconds a fixed pure-Python loop of *iterations* takes."""
    start = perf_counter()
    total = 0
    for i in range(iterations):
        total += i * i % 7
    return perf_counter() - start


class Clock:
    """Scales wall times to the reference machine speed."""

    def __init__(self) -> None:
        self.probes: List[float] = []
        self.factor = 1.0
        self._probed_at = float("-inf")

    def probe(self, force: bool = False) -> None:
        """Re-measure the machine's speed if the last probe is stale.
        The factor is the median of the last three probes, so one probe
        hit by an interrupt does not skew what follows."""
        if not force and perf_counter() - self._probed_at < PROBE_EVERY_S:
            return
        self.probes.append(spin(PROBE_ITERATIONS))
        recent = sorted(self.probes[-3:])
        self.factor = REFERENCE_PROBE_S / recent[len(recent) // 2]
        self._probed_at = perf_counter()

    def scaled(self, seconds: float) -> float:
        return seconds * self.factor
