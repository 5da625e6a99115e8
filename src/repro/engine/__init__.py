"""repro.engine — pluggable state-space exploration.

Exploration as a first-class subsystem, decoupled from the semantics:

* :class:`~repro.engine.core.ExplorationEngine` — one API over the
  in-process sequential loop with pluggable frontier strategies (BFS /
  DFS / random swarm, :mod:`repro.engine.strategy`) and reduction
  policies (:mod:`repro.semantics.reduce`);
* :class:`~repro.engine.cache.ResultCache` — a persistent result cache
  keyed by stable program fingerprint
  (:mod:`repro.engine.fingerprint`), so repeated litmus/refinement runs
  hit disk instead of recomputing;
* :func:`~repro.engine.batch.run_batch` — a concurrent runner for named
  verification jobs (litmus battery, figure checks, lock refinements)
  with a JSON report.

``repro.semantics.explore.explore`` remains the compatibility wrapper
over the sequential engine.  An engine is configured by its
constructor arguments only; the one environment input is the result
cache's (``REPRO_CACHE``, ``REPRO_CACHE_DIR``, see
:mod:`repro.engine.cache`).
"""

from __future__ import annotations

from repro.engine.batch import (
    JOB_NAMES,
    BatchReport,
    JobResult,
    run_batch,
    run_job,
)
from repro.engine.cache import ResultCache, cache_enabled_by_env
from repro.engine.core import (
    DEFAULT_MAX_STATES,
    ExplorationEngine,
    explore_sequential,
)
from repro.engine.fingerprint import (
    SEMANTICS_VERSION,
    cache_key,
    program_fingerprint,
)
from repro.engine.result import ExploreResult, ExploreSummary, summarise
from repro.engine.strategy import (
    BFSFrontier,
    DFSFrontier,
    Frontier,
    SwarmFrontier,
    make_frontier,
)

__all__ = [
    "BFSFrontier",
    "BatchReport",
    "DEFAULT_MAX_STATES",
    "DFSFrontier",
    "ExplorationEngine",
    "ExploreResult",
    "ExploreSummary",
    "Frontier",
    "JOB_NAMES",
    "JobResult",
    "REDUCTIONS",
    "ResultCache",
    "SEMANTICS_VERSION",
    "SwarmFrontier",
    "cache_key",
    "explore_sequential",
    "make_frontier",
    "program_fingerprint",
    "run_batch",
    "run_job",
    "summarise",
]


def __getattr__(name: str):
    # The policy tuple lives in the reduction registry; resolving it
    # lazily keeps the engine package import-time independent of
    # repro.semantics (see the NOTE in repro.engine.core).
    if name == "REDUCTIONS":
        from repro.semantics.reduce import REDUCTIONS

        return REDUCTIONS
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

