"""repro.engine — pluggable state-space exploration.

Exploration as a first-class subsystem, decoupled from the semantics:

* :class:`~repro.engine.core.ExplorationEngine` — one API over the
  in-process sequential loop with pluggable frontier strategies (BFS /
  DFS / random swarm, :mod:`repro.engine.strategy`) and reduction
  policies (:mod:`repro.semantics.reduce`);
* :class:`~repro.engine.result.ExploreResult` — the full product of one
  exploration — and :func:`~repro.engine.result.summarise`, which
  condenses it into the :class:`~repro.engine.result.ExploreSummary` a
  litmus verdict reads.

``repro.semantics.explore.explore`` remains the compatibility wrapper
over the sequential engine.  An engine is configured by its
constructor arguments only: every verdict comes from an exploration
of the current code, and no environment variable is read.
"""

from __future__ import annotations

from repro.engine.core import (
    DEFAULT_MAX_STATES,
    ExplorationEngine,
    explore_sequential,
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
    "DEFAULT_MAX_STATES",
    "DFSFrontier",
    "ExplorationEngine",
    "ExploreResult",
    "ExploreSummary",
    "Frontier",
    "REDUCTIONS",
    "SwarmFrontier",
    "explore_sequential",
    "make_frontier",
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

