"""repro.engine — parallel, pluggable state-space exploration.

Exploration as a first-class subsystem, decoupled from the semantics:

* :class:`~repro.engine.core.ExplorationEngine` — one API over two
  paths, chosen per exploration from what the engine can observe: the
  in-process sequential loop with pluggable frontier strategies (BFS /
  DFS / random swarm, :mod:`repro.engine.strategy`), and for
  ``workers > 1`` the sharded pipeline (:mod:`repro.engine.pipeline` —
  persistent shard-owned workers partitioning the state space by
  canonical-key digest, streaming frontier, compact-codec cross-shard
  batches over shared-memory rings, :mod:`repro.engine.shm`);
* :class:`~repro.engine.cache.ResultCache` — a persistent result cache
  keyed by stable program fingerprint
  (:mod:`repro.engine.fingerprint`), so repeated litmus/refinement runs
  hit disk instead of recomputing;
* :func:`~repro.engine.batch.run_batch` — a concurrent runner for named
  verification jobs (litmus battery, figure checks, lock refinements)
  with a JSON report.

``repro.semantics.explore.explore`` remains the compatibility wrapper
over the sequential engine; :func:`default_engine` is the shared
CLI-facing instance configured from the environment (``REPRO_WORKERS``,
``REPRO_STRATEGY``, ``REPRO_CACHE``, ``REPRO_CACHE_DIR``).
"""

from __future__ import annotations

import os

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
from repro.engine.pipeline import explore_pipeline
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
    "default_engine",
    "explore_pipeline",
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


def default_engine() -> ExplorationEngine:
    """A CLI-defaults engine, configured from the environment.

    Reads ``REPRO_WORKERS`` (default 1), ``REPRO_STRATEGY`` (default
    ``bfs``), ``REPRO_REDUCTION`` (default ``off``), ``REPRO_CACHE``
    (set to ``0`` to disable the persistent cache) and
    ``REPRO_CACHE_DIR`` afresh on every call,
    so environment changes (and monkeypatched tests) always take
    effect.  Engines are cheap to construct; the heavyweight state —
    the on-disk cache — is shared through the filesystem, not the
    object.
    """
    workers = int(os.environ.get("REPRO_WORKERS", "1") or "1")
    strategy = os.environ.get("REPRO_STRATEGY", "bfs") or "bfs"
    reduction = os.environ.get("REPRO_REDUCTION", "off") or "off"
    cache = ResultCache() if cache_enabled_by_env() else None
    return ExplorationEngine(
        strategy=strategy,
        workers=workers,
        cache=cache,
        reduction=reduction,
    )
