"""Exploration results: the full graph and its cacheable summary.

:class:`ExploreResult` is the complete product of one exploration — the
configuration map, terminal/stuck configurations and (optionally) the
labelled transition graph.  It is what the refinement and Owicki–Gries
checkers consume, and what :func:`repro.semantics.explore.explore`
returns (that module re-exports the class for backwards compatibility).

:class:`ExploreSummary` is the slice of a result that verification
verdicts actually need — counts, truncation flag and the terminal
configurations — small enough to pickle into the persistent result
cache (:mod:`repro.engine.cache`) and reload on a later run without
re-exploring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # imported for annotations only — keeps this module a
    # leaf of the import graph (semantics.explore imports the engine).
    from repro.lang.program import Program
    from repro.semantics.config import Config


@dataclass
class ExploreResult:
    """Everything the explorer learned about a program."""

    program: "Program"
    initial: "Config"
    initial_key: Tuple
    configs: Dict[Tuple, "Config"]
    terminals: List["Config"]
    stuck: List["Config"]
    edge_count: int
    truncated: bool
    elapsed: float
    edges: Optional[Dict[Tuple, List[Tuple[str, str, object, Tuple]]]] = None
    #: True when an ``on_config`` callback requested an early halt; the
    #: result then covers only the states visited before the stop.
    stopped: bool = False
    #: Predecessor graph recorded when the exploration was asked to
    #: ``track_parents``: state key -> ``(parent_key, tid, component,
    #: action)`` — the edge that first discovered the state — with the
    #: initial key mapped to None.  Under BFS the first-discovery edge
    #: is a shortest edge, so
    #: :func:`repro.semantics.witness.reconstruct_witness` rebuilds
    #: shortest counterexamples from this graph without re-exploring
    #: (and without a stored configuration per state).
    parents: Optional[Dict[Tuple, Optional[Tuple]]] = None
    #: Telemetry snapshot (``repro.obs.metrics.Metrics.snapshot()``:
    #: counters/timers/gauges) when the exploration ran with a metrics
    #: sink attached; ``None`` — the default — means telemetry was off.
    #: Deliberately absent from :class:`ExploreSummary`: cached entries
    #: describe the program, not the run that produced them.
    metrics: Optional[Dict[str, Dict]] = None

    @property
    def state_count(self) -> int:
        return len(self.configs)

    def terminal_locals(self, *regs: Tuple[str, str]) -> set:
        """Distinct terminal register valuations.

        ``regs`` is a sequence of ``(tid, reg)`` pairs; the result is the
        set of value tuples those registers take in terminal states.
        """
        out = set()
        for cfg in self.terminals:
            out.add(tuple(cfg.local(t, r) for t, r in regs))
        return out


@dataclass
class ExploreSummary:
    """The cache-persistable essence of an :class:`ExploreResult`.

    Carries everything a verdict needs (state/edge counts, truncation,
    terminal configurations, a stuck witness) but not the full
    configuration map, so entries stay small on disk.
    """

    state_count: int
    edge_count: int
    truncated: bool
    terminals: List["Config"] = field(default_factory=list)
    stuck_count: int = 0
    stuck_example: Optional["Config"] = None
    elapsed: float = 0.0
    #: True when this summary was served from the persistent cache.
    cached: bool = False

    def terminal_locals(self, *regs: Tuple[str, str]) -> set:
        """Distinct terminal register valuations (as on the full result)."""
        out = set()
        for cfg in self.terminals:
            out.add(tuple(cfg.local(t, r) for t, r in regs))
        return out


def summarise(result: ExploreResult) -> ExploreSummary:
    """Condense a full exploration result into its cacheable summary."""
    return ExploreSummary(
        state_count=result.state_count,
        edge_count=result.edge_count,
        truncated=result.truncated,
        terminals=list(result.terminals),
        stuck_count=len(result.stuck),
        stuck_example=result.stuck[0] if result.stuck else None,
        elapsed=result.elapsed,
        cached=False,
    )
