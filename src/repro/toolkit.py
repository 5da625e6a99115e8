"""High-level verification workflows.

One-call entry points bundling the machinery a downstream user reaches
for most often: verifying that a lock (or any object) implementation
contextually refines its abstract specification across a battery of
clients, with both checkers and readable reporting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

from repro.lang.program import Program
from repro.litmus.clients import (
    Fill,
    abstract_fill,
    lock_client,
    lock_client_one_sided,
)
from repro.refinement.simulation import SimulationResult, find_forward_simulation
from repro.refinement.tracecheck import RefinementResult, check_program_refinement
from repro.refinement.traces import client_graph

#: A client builder: (fill, objects=..., lib_vars=...) -> Program.
ClientBuilder = Callable[..., Program]


@dataclass
class ClientVerdict:
    """Refinement verdicts for one client of the battery."""

    client: str
    simulation: SimulationResult
    traces: Optional[RefinementResult]

    @property
    def ok(self) -> bool:
        if not self.simulation.found:
            return False
        return self.traces is None or bool(self.traces.refines)


@dataclass
class RefinementReport:
    """Aggregated verdicts across the client battery."""

    implementation: str
    verdicts: List[ClientVerdict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts)

    def describe(self) -> str:
        lines = [
            f"refinement report for {self.implementation}: "
            f"{'PASS' if self.ok else 'FAIL'}"
        ]
        for v in self.verdicts:
            sim = (
                f"simulation |R|={v.simulation.relation_size}"
                if v.simulation.found
                else "simulation NOT FOUND"
            )
            tr = ""
            if v.traces is not None:
                tr = f", traces {'ok' if v.traces.refines else 'FAIL'}"
            lines.append(f"  {v.client}: {sim}{tr}")
            if (
                v.traces is not None
                and not v.traces.refines
                and v.traces.witness is not None
            ):
                # The interleaving realising the unmatched client trace,
                # straight from the checker's already-explored graph.
                lines.append(
                    f"    counterexample interleaving "
                    f"({len(v.traces.witness.steps)} steps):"
                )
                lines += [
                    f"      {i + 1:2d}. {s.describe()}"
                    for i, s in enumerate(v.traces.witness.steps)
                ]
        return "\n".join(lines)


def default_lock_battery() -> Sequence[Tuple[str, ClientBuilder, dict]]:
    """The standard client battery for lock verification."""
    return (
        ("reader-client", lock_client, {}),
        ("writer-client", lock_client, {"readers": False}),
        ("one-sided-client", lock_client_one_sided, {}),
    )


def verify_lock_implementation(
    fill: Fill,
    lib_vars: Mapping[str, object],
    object_factory: Callable[[], object] = None,
    battery: Optional[Sequence[Tuple[str, ClientBuilder, dict]]] = None,
    check_traces: bool = True,
    max_states: int = 200_000,
    engine=None,
) -> RefinementReport:
    """Verify a lock implementation against the abstract lock.

    For each client in the battery, instantiates ``C[CO]`` with ``fill``
    and ``C[AO]`` with the abstract object, solves the Definition 8
    simulation game, and (optionally) confirms by Definition 6 trace
    inclusion.  Each of the two programs is explored once
    (:func:`repro.refinement.traces.client_graph`) and both checkers
    read the same graphs, so a client costs two explorations.

    Parameters
    ----------
    fill:
        The implementation's hole-filling callback (e.g.
        :func:`repro.impls.seqlock.seqlock_fill`).
    lib_vars:
        Initial library variables the implementation needs.
    object_factory:
        Factory for the abstract specification; defaults to
        ``AbstractLock("l")``.
    battery:
        ``(name, builder, kwargs)`` triples; defaults to
        :func:`default_lock_battery`.
    engine:
        Optional :class:`repro.engine.ExplorationEngine` through which
        every state-space exploration of the battery is routed (pick a
        frontier strategy, or count explorations); None keeps the
        default engine.
    """
    if object_factory is None:
        from repro.objects.lock import AbstractLock

        object_factory = lambda: AbstractLock("l")  # noqa: E731
    battery = battery if battery is not None else default_lock_battery()

    name = getattr(fill, "__name__", repr(fill))
    report = RefinementReport(implementation=name)
    for client_name, builder, kwargs in battery:
        afill, objs = abstract_fill(object_factory)
        abstract = builder(afill, objects=objs, **kwargs)
        concrete = builder(fill, lib_vars=dict(lib_vars), **kwargs)
        conc = client_graph(concrete, max_states=max_states, engine=engine)
        abst = client_graph(abstract, max_states=max_states, engine=engine)
        sim = find_forward_simulation(conc, abst)
        traces = None
        if check_traces:
            traces = check_program_refinement(conc, abst)
        report.verdicts.append(
            ClientVerdict(client=client_name, simulation=sim, traces=traces)
        )
    return report
