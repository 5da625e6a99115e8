"""repro.obs — engine-wide observability: metrics, progress, tracing.

A 54k-state exploration used to be a silent black box until it
returned.  This package is the telemetry layer the engine
threads through — strictly *zero-cost when off*: all collection points
are guarded by ``is None`` tests on sinks the caller didn't install.

* :mod:`repro.obs.metrics` — a mergeable registry of counters, timers
  and gauges (:class:`Metrics`).  The engine loop counts
  states/edges/frontier depth; the reduction layer's hot paths report
  ε-fusions and covering-read prunes through a module-level *active
  collector*; the snapshot lands on ``ExploreResult.metrics``, and each
  exploration's registry merges into its engine's.
* :mod:`repro.obs.progress` — a rate-limited stderr heartbeat
  (:class:`Progress`): states and states/sec while a long exploration
  runs, automatically off when stderr is not a TTY or the
  CLI was asked to be ``--quiet``.
* :mod:`repro.obs.trace` — an append-only JSONL event stream
  (:class:`TraceWriter`, ``--trace FILE`` on the CLI) with a
  documented stable schema: exploration spans, metrics
  samples and the litmus battery span — the substrate a future
  ``repro serve`` mode streams to clients.

Verbosity is resolved in one place (:func:`configure_verbosity`) from
the CLI's ``--quiet``/``-v`` flags, and the result also sets the
``repro`` logger level.  The package reads no environment variables.
"""

from __future__ import annotations

import logging

from repro.obs.metrics import Metrics, active, collecting
from repro.obs.progress import Progress
from repro.obs.trace import SCHEMA_VERSION, TraceWriter, validate_event

__all__ = [
    "Metrics",
    "Progress",
    "SCHEMA_VERSION",
    "TraceWriter",
    "active",
    "collecting",
    "configure_verbosity",
    "validate_event",
]

_LOG_LEVELS = {0: logging.WARNING, 1: logging.INFO, 2: logging.DEBUG}


def configure_verbosity(quiet: bool = False, verbose: bool = False) -> int:
    """Resolve the CLI flags into one verbosity level.

    ``--quiet`` wins (0), then ``-v`` (2), else INFO (1).  The ``repro``
    logger is set to WARNING/INFO/DEBUG accordingly (with a stderr
    handler installed once), so library ``logger.debug`` diagnostics
    surface under ``-v`` without any print plumbing.
    """
    level = 0 if quiet else 2 if verbose else 1
    logger = logging.getLogger("repro")
    logger.setLevel(_LOG_LEVELS[level])
    if not logger.handlers:
        handler = logging.StreamHandler()
        handler.setFormatter(
            logging.Formatter("repro[%(levelname)s] %(message)s")
        )
        logger.addHandler(handler)
        logger.propagate = False
    return level
