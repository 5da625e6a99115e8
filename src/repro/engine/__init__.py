"""repro.engine — state-space exploration.

Exploration as a first-class subsystem, decoupled from the semantics:

* :class:`~repro.engine.core.ExplorationEngine` — one API over the
  in-process breadth-first loop
  (:func:`~repro.engine.core.explore_sequential`) and the reduction
  policies, whose names and lookup live in :mod:`repro.semantics.reduce`
  only (``REDUCTIONS``, ``get_strategy``);
* :class:`~repro.engine.result.ExploreResult` — the full product of one
  exploration.

``repro.semantics.explore.explore`` is the same loop under its
historical name.  An engine is configured by its constructor arguments
only: every verdict comes from an exploration of the current code, and
no environment variable is read.
"""

from __future__ import annotations

from repro.engine.core import (
    DEFAULT_MAX_STATES,
    ExplorationEngine,
    explore_sequential,
)
from repro.engine.result import ExploreResult

__all__ = [
    "DEFAULT_MAX_STATES",
    "ExplorationEngine",
    "ExploreResult",
    "explore_sequential",
]

