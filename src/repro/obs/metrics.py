"""The engine-wide metrics registry: counters, timers, gauges.

A :class:`Metrics` object is a small, mergeable registry.  Collection
points come in two shapes:

* call sites that hold a ``Metrics`` in hand — the engine loop —
  call :meth:`Metrics.inc` / :meth:`Metrics.add_time` /
  :meth:`Metrics.gauge_max` directly;
* instrumentation buried in the semantics hot paths (the reduction
  layer's ε-fusion and covering-read-prune counts, which cannot thread
  a parameter through ``successors``) reads the module-level *active
  collector* ``_ACTIVE`` — ``None`` by default, installed around an
  exploration by :func:`collecting`.  The fully-disabled cost is one
  module-attribute load and an ``is None`` test at each such site,
  which the overhead benchmark (``benchmarks/test_bench_obs.py``)
  gates as unmeasurable.

Processes never share a registry: a batch job collects into its own
``Metrics`` and ships ``snapshot()`` home in its result; the report
:meth:`Metrics.merge`\\ s the snapshots into one registry.

Counter schema — stable names; the same keys appear in trace
``metrics.sample`` events and batch-report ``metrics`` blocks:

===================================  ======================================
``explore.states``                   states admitted to the visited set
``explore.edges``                    transitions generated while expanding
``explore.memo.lookups``             visible steps looked up in the
                                     sequential loop's visible-step memo
                                     (``reduction="off"``, canonical keys)
``explore.memo.entries``             visible steps the memo computed and
                                     stored (lookups − entries = hits)
``reduce.epsilon_fused``             silent steps fused by the ε-closure
``reduce.covering_pruned``           read candidates skipped by the
                                     covering prune
``reduce.dpor.sleep_blocked``        transitions suppressed by sleep sets
                                     (dpor)
``reduce.dpor.persistent_expanded``  states expanded via a *proper*
                                     persistent subset of their enabled
                                     threads (dpor)
``reduce.dpor.static_disjoint``      thread-pair conflict tests skipped
                                     by the static-disjointness fast
                                     path (dpor)
``analysis.runs``                    programs statically analysed by the
                                     engine (``analysis=`` policies
                                     other than ``"off"``)
``analysis.errors``                  error-severity findings across
                                     those runs
``analysis.warnings``                warning-severity findings across
                                     those runs
``cache.hits``                       engine ``run()`` calls served from
                                     the cache
``cache.misses``                     engine ``run()`` calls that explored
                                     live
===================================  ======================================

Timers (seconds, additive): ``explore.elapsed`` — exploration
wall-clock, the denominator of the states/sec rate.  Gauges (high-water
marks, merged by max): ``explore.frontier_peak`` — sampled peak
frontier/queue depth.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Optional, Union

#: The active collector consulted by parameterless instrumentation
#: points (the reduction layer).  ``None`` — the default — disables
#: them at the cost of one attribute load + ``is None`` test.
_ACTIVE: Optional["Metrics"] = None


def active() -> Optional["Metrics"]:
    """The currently-installed active collector (None when off)."""
    return _ACTIVE


def activate(metrics: Optional["Metrics"]) -> Optional["Metrics"]:
    """Install ``metrics`` as the active collector; returns the
    previous one so callers can restore it (see :func:`collecting` for
    the context-managed form)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = metrics
    return previous


@contextmanager
def collecting(metrics: Optional["Metrics"]):
    """Scope ``metrics`` as the active collector; no-op when None
    (an outer collector, if any, keeps collecting)."""
    if metrics is None:
        yield
        return
    previous = activate(metrics)
    try:
        yield
    finally:
        activate(previous)


class Metrics:
    """A mergeable registry of counters, timers and gauges."""

    __slots__ = ("counters", "timers", "gauges")

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.timers: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}

    def __repr__(self) -> str:
        return (
            f"Metrics({len(self.counters)} counters, "
            f"{len(self.timers)} timers, {len(self.gauges)} gauges)"
        )

    # -- collection ----------------------------------------------------------
    def inc(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` (created at 0)."""
        self.counters[name] = self.counters.get(name, 0) + n

    def add_time(self, name: str, seconds: float) -> None:
        """Accumulate ``seconds`` onto timer ``name``."""
        self.timers[name] = self.timers.get(name, 0.0) + seconds

    @contextmanager
    def timer(self, name: str):
        """Time a block onto timer ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(name, time.perf_counter() - start)

    def gauge_max(self, name: str, value: float) -> None:
        """Raise gauge ``name`` to ``value`` if it is a new high."""
        if value > self.gauges.get(name, float("-inf")):
            self.gauges[name] = value

    # -- aggregation ---------------------------------------------------------
    def merge(self, other: Union["Metrics", Dict, None]) -> "Metrics":
        """Fold another registry (or a :meth:`snapshot` dict, e.g. a
        worker fragment) into this one: counters and timers add, gauges
        take the maximum.  Returns self."""
        if other is None:
            return self
        if isinstance(other, Metrics):
            counters, timers, gauges = other.counters, other.timers, other.gauges
        else:
            counters = other.get("counters", {})
            timers = other.get("timers", {})
            gauges = other.get("gauges", {})
        for name, n in counters.items():
            self.counters[name] = self.counters.get(name, 0) + n
        for name, s in timers.items():
            self.timers[name] = self.timers.get(name, 0.0) + s
        for name, v in gauges.items():
            if v > self.gauges.get(name, float("-inf")):
                self.gauges[name] = v
        return self

    def snapshot(self) -> Dict[str, Dict]:
        """A JSON-safe copy: ``{"counters": .., "timers": .., "gauges": ..}``
        — the wire format of worker fragments, ``ExploreResult.metrics``,
        trace ``metrics.sample`` events and batch-report blocks."""
        return {
            "counters": dict(self.counters),
            "timers": {k: round(v, 6) for k, v in self.timers.items()},
            "gauges": dict(self.gauges),
        }

    # -- presentation --------------------------------------------------------
    def states_per_sec(self) -> float:
        """``explore.states`` over ``explore.elapsed`` (0.0 when idle)."""
        elapsed = self.timers.get("explore.elapsed", 0.0)
        if elapsed <= 0.0:
            return 0.0
        return self.counters.get("explore.states", 0) / elapsed

    def describe(self) -> str:
        """The one-line human summary the CLI prints."""
        c = self.counters
        line = (
            f"telemetry: {c.get('explore.states', 0)} states, "
            f"{c.get('explore.edges', 0)} edges in "
            f"{self.timers.get('explore.elapsed', 0.0):.3f}s "
            f"({self.states_per_sec():,.0f} states/sec); "
            f"ε-fused {c.get('reduce.epsilon_fused', 0)}, "
            f"covering-read pruned {c.get('reduce.covering_pruned', 0)}"
        )
        if "cache.hits" in c or "cache.misses" in c:
            line += (
                f"; cache {c.get('cache.hits', 0)} hits / "
                f"{c.get('cache.misses', 0)} misses"
            )
        return line
