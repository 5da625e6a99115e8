"""Contextual refinement (paper Section 6).

* :mod:`repro.refinement.traces` — executions, client trace projection
  and stutter removal (§6.1), and the :class:`ClientGraph` — one
  unreduced exploration of a client program with its projections and
  program counters — that every checker below accepts in place of the
  program, so a caller running several checks explores each program
  once;
* :mod:`repro.refinement.tracecheck` — state/trace/program refinement
  checked directly from Definitions 5–7 by enumerating stutter-free
  client traces of ``C[CO]`` and ``C[AO]``;
* :mod:`repro.refinement.simulation` — the forward-simulation rule of
  Definition 8 solved as a simulation *game* over the product of the
  abstract and concrete configuration graphs: the greatest fixpoint of
  good pairs is itself the simulation relation ``R`` when it contains
  the initial pair.
"""

from repro.refinement.checkrel import (
    RelationCheckResult,
    check_simulation_relation,
)
from repro.refinement.simulation import SimulationResult, find_forward_simulation
from repro.refinement.tracecheck import (
    RefinementResult,
    check_program_refinement,
    client_traces,
)
from repro.refinement.traces import (
    ClientGraph,
    client_graph,
    client_projection,
    remove_stutter,
)

__all__ = [
    "ClientGraph",
    "RefinementResult",
    "RelationCheckResult",
    "SimulationResult",
    "check_program_refinement",
    "check_simulation_relation",
    "client_graph",
    "client_projection",
    "client_traces",
    "find_forward_simulation",
    "remove_stutter",
]
