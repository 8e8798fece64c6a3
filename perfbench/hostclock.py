"""Host-speed-compensated time for the benchmark's end-to-end metrics.

The benchmark runs on shared virtual machines whose speed drifts by tens
of percent over seconds and minutes.  No counter there shows the drift:
CPU time equals wall time, steal time stays 0 and the guest has no
hardware performance counters.  A wall-clock metric then measures the
host as much as the program.

:class:`HostClock` measures the drift as it happens.  While it runs, a
``SIGALRM`` timer interrupts the program every :data:`INTERVAL_S` and
runs a fixed reference loop in the same thread: dict lookups over a table
about the size of a core's caches, the kind of interpreter work the
simulator spends its time on.  Each interval of program time is then
scaled by how fast the reference loop ran around its end::

    reference seconds = wall seconds * REFERENCE_PROBE_S / probe seconds

where probe seconds is the median of the last three probes, so that one
probe the scheduler interrupted does not skew an interval.  The clock
thus reads seconds *at a fixed reference speed*, the speed at which the
loop takes :data:`REFERENCE_PROBE_S`.  A program that does less work
reads fewer reference seconds on any host speed; a host that slows the
program and the loop alike reads the same.  The probes' own time is left
out, and the probe touches no state of the program, so outcomes do not
change.
"""

from __future__ import annotations

import signal
import time
from statistics import median
from typing import List, Optional

#: Host seconds of one probe at the reference speed (roughly the median on
#: a 2-core Xeon VM).  It only scales the readings.
REFERENCE_PROBE_S = 1.0e-3

#: Host seconds between probes.
INTERVAL_S = 0.1

#: Entries of the probe's table (~1.5 MB, about what a core's caches hold).
TABLE_SIZE = 1 << 14


class Probe:
    """The reference loop: one lookup of every key of a dict of int keys."""

    def __init__(self) -> None:
        self.table = {(i * 2654435761) & 0xFFFFFFF: i for i in range(TABLE_SIZE)}
        self.keys = list(self.table)

    def __call__(self) -> int:
        table = self.table
        total = 0
        for key in self.keys:
            total += table[key]
        return total


class HostClock:
    """A clock in reference seconds; see the module docstring.

    Use as a context manager around everything it times; :meth:`now`
    reads it.  Only one may run at a time, on the main thread.
    """

    def __init__(self) -> None:
        #: Host seconds of every probe, in order.
        self.probes: List[float] = []
        # (reference seconds up to mark, host time of mark, scale), replaced
        # as one object so that now() never sees half an update.
        self._state = (0.0, None, 1.0)
        self._previous: Optional[object] = None
        self._work = Probe()

    def _probe(self) -> float:
        # The first pass brings the table back into the caches the program
        # used since the last probe; only the second is timed, so the probe
        # reads the host's speed and not the program's memory footprint.
        start = time.perf_counter()
        self._work()
        t0 = time.perf_counter()
        self._work()
        t1 = time.perf_counter()
        ref, mark, scale = self._state
        probe_s = t1 - t0
        self.probes.append(probe_s)
        new_scale = REFERENCE_PROBE_S / median(self.probes[-3:])
        if mark is not None:
            ref += (start - mark) * new_scale
        self._state = (ref, t1, new_scale)
        return probe_s

    def _on_alarm(self, signum, frame) -> None:
        self._probe()

    def __enter__(self) -> "HostClock":
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()

    def now(self) -> float:
        """Reference seconds since the clock started."""
        ref, mark, scale = self._state
        return ref + (time.perf_counter() - mark) * scale

    @property
    def slowdown(self) -> float:
        """Mean probe time over the reference: above 1 is a slow host."""
        if not self.probes:
            return 1.0
        return sum(self.probes) / len(self.probes) / REFERENCE_PROBE_S
