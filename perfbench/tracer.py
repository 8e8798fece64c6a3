"""In-memory spans for the benchmark's traced runs.

A span covers one call from the benchmark into a layer of the simulator
(``bulk_construct_page_offset``, ``Scanner.scan`` ...).  It records host
time, and, when given the machine the call drives, the simulated-clock and
hierarchy-counter deltas over the call.  Spans nest: a span's self time is
its duration minus the durations of its direct children.

Tracing only reads ``machine.now`` and ``machine.hierarchy.stats``, so it
cannot change an outcome; the benchmark proves that on every traced run by
comparing the traced and untraced outcome digests.

The active tracer lives in a context variable, so trial functions run by
``repro.exec.run_campaign`` reach it without it travelling through their
configs.  The default is :data:`NULL`, whose spans cost one call.
"""

from __future__ import annotations

import contextlib
import contextvars
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

#: Hierarchy counters reported per span (``HierarchyStats`` slots).
COUNTERS = (
    "accesses",
    "l1_hits",
    "l2_hits",
    "llc_hits",
    "dram_fetches",
    "sf_back_invalidations",
    "noise_insertions",
    "flushes",
)


@dataclass
class Span:
    name: str
    parent: Optional["Span"]
    wall_s: float = 0.0
    child_wall_s: float = 0.0
    sim_cycles: int = 0
    clock_ghz: float = 0.0
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.wall_s - self.child_wall_s

    @property
    def sim_ms(self) -> float:
        return self.sim_cycles / (self.clock_ghz * 1e6) if self.clock_ghz else 0.0


def _counters(machine) -> Dict[str, int]:
    stats = machine.hierarchy.stats
    return {name: getattr(stats, name) for name in COUNTERS}


class Tracer:
    """Records every span in memory; read them back after the run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []

    @contextlib.contextmanager
    def span(self, name: str, machine=None) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, parent)
        before = _counters(machine) if machine is not None else None
        now0 = machine.now if machine is not None else 0
        self._stack.append(rec)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            rec.wall_s = time.perf_counter() - t0
            self._stack.pop()
            if machine is not None:
                rec.sim_cycles = machine.now - now0
                rec.clock_ghz = machine.cfg.clock_ghz
                after = _counters(machine)
                rec.counters = {k: after[k] - before[k] for k in COUNTERS}
            if parent is not None:
                parent.child_wall_s += rec.wall_s
            self.spans.append(rec)

    def by_name(self) -> Dict[str, "StageTotals"]:
        """Per-name totals, in order of first completion."""
        out: Dict[str, StageTotals] = {}
        for s in self.spans:
            out.setdefault(s.name, StageTotals(s.name)).add(s)
        return out


class _NullTracer:
    def span(self, name: str, machine=None):
        return contextlib.nullcontext()


NULL = _NullTracer()

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_tracer", default=NULL
)


def current():
    """The tracer of the enclosing :func:`active` block (or :data:`NULL`)."""
    return _CURRENT.get()


@contextlib.contextmanager
def active(rec) -> Iterator[None]:
    """Make ``rec`` (a :class:`Tracer` or :data:`NULL`) the current tracer."""
    token = _CURRENT.set(rec)
    try:
        yield
    finally:
        _CURRENT.reset(token)


@dataclass
class StageTotals:
    """All spans of one name, summed."""

    name: str
    calls: int = 0
    wall_s: float = 0.0
    self_s: float = 0.0
    sim_ms: float = 0.0
    counters: Dict[str, int] = field(default_factory=lambda: dict.fromkeys(COUNTERS, 0))

    def add(self, s: Span) -> None:
        self.calls += 1
        self.wall_s += s.wall_s
        self.self_s += s.self_s
        self.sim_ms += s.sim_ms
        for k, v in s.counters.items():
            self.counters[k] += v

    @property
    def accesses(self) -> int:
        return self.counters["accesses"]

    @property
    def ns_per_access(self) -> float:
        return self.wall_s / self.accesses * 1e9 if self.accesses else 0.0

    @property
    def accesses_per_s(self) -> float:
        return self.accesses / self.wall_s if self.wall_s else 0.0
