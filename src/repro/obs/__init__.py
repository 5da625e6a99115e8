"""repro.obs — engine-wide observability: metrics, progress, tracing.

A 54k-state exploration used to be a silent black box until it
returned.  This package is the telemetry layer the engine
threads through — strictly *zero-cost when off*: all collection points
are guarded by ``is None`` tests on sinks the caller didn't install.

* :mod:`repro.obs.metrics` — a mergeable registry of counters, timers
  and gauges (:class:`Metrics`).  The engine loop counts
  states/edges/frontier depth; the reduction layer's hot paths report
  ε-fusions and covering-read prunes through a module-level *active
  collector*; the snapshot lands on ``ExploreResult.metrics``, and batch
  job processes' snapshots merge into one report-level registry.
* :mod:`repro.obs.progress` — a rate-limited stderr heartbeat
  (:class:`Progress`): states and states/sec while a long exploration
  runs, automatically off when stderr is not a TTY or the
  CLI was asked to be ``--quiet``.
* :mod:`repro.obs.trace` — an append-only JSONL event stream
  (:class:`TraceWriter`, ``--trace FILE`` / ``REPRO_TRACE``) with a
  documented stable schema: exploration spans, metrics
  samples and batch job lifecycle — the substrate a future
  ``repro serve`` mode streams to clients.

Verbosity is resolved in one place (:func:`configure_verbosity`):
CLI ``--quiet``/``-v`` flags win over the ``REPRO_LOG`` environment
variable (``quiet``/``info``/``debug`` or ``0``/``1``/``2``), and the
result also sets the ``repro`` logger level.
"""

from __future__ import annotations

import logging
import os

from repro.obs.metrics import Metrics, active, collecting
from repro.obs.progress import Progress
from repro.obs.trace import (
    SCHEMA_VERSION,
    TRACE_ENV,
    TraceWriter,
    trace_from_env,
    validate_event,
)

__all__ = [
    "LOG_ENV",
    "Metrics",
    "Progress",
    "SCHEMA_VERSION",
    "TRACE_ENV",
    "TraceWriter",
    "active",
    "collecting",
    "configure_verbosity",
    "trace_from_env",
    "validate_event",
    "verbosity_from_env",
]

#: Environment variable holding the default verbosity when no CLI flag
#: is given: ``quiet``/``warning``/``0``, ``info``/``1`` (default) or
#: ``debug``/``verbose``/``2``.
LOG_ENV = "REPRO_LOG"

_LEVEL_NAMES = {
    "0": 0, "quiet": 0, "warning": 0, "warn": 0,
    "1": 1, "info": 1,
    "2": 2, "debug": 2, "verbose": 2,
}

_LOG_LEVELS = {0: logging.WARNING, 1: logging.INFO, 2: logging.DEBUG}


def verbosity_from_env(default: int = 1) -> int:
    """The ``REPRO_LOG`` verbosity (0 quiet / 1 normal / 2 verbose),
    or ``default`` when unset or unrecognised."""
    raw = os.environ.get(LOG_ENV, "").strip().lower()
    return _LEVEL_NAMES.get(raw, default)


def configure_verbosity(quiet: bool = False, verbose: bool = False) -> int:
    """Resolve CLI flags and ``REPRO_LOG`` into one verbosity level.

    ``--quiet`` wins over everything (0), then ``-v`` (2), then the
    environment default (1 when ``REPRO_LOG`` is unset).  The ``repro``
    logger is set to WARNING/INFO/DEBUG accordingly (with a stderr
    handler installed once), so library ``logger.debug`` diagnostics
    surface under ``-v`` without any print plumbing.
    """
    level = 0 if quiet else 2 if verbose else verbosity_from_env(1)
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
