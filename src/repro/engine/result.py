"""Exploration results.

:class:`ExploreResult` is the complete product of one exploration — the
configuration map, terminal/stuck configurations and (optionally) the
labelled transition graph.  It is what the refinement and Owicki–Gries
checkers consume, and what :func:`repro.semantics.explore.explore`
returns (that module re-exports the class).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

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
    #: Every admitted configuration by canonical key, in breadth-first
    #: admission order: a read-only mapping
    #: (:class:`repro.semantics.config.KeyedConfigs`) that builds each
    #: configuration from its key on first access and keeps it, so
    #: ``configs[k] is configs[k]``.  ``len``, ``in`` and iterating the
    #: keys build nothing.
    configs: Mapping[Tuple, "Config"]
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
