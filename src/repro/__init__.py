"""repro — Verifying C11-style weak memory libraries, in Python.

A reproduction of Dalvandi & Dongol, *Verifying C11-Style Weak Memory
Libraries* (PPoPP 2021, arXiv:2012.14133).  The paper's Isabelle/HOL
mechanisation becomes an executable model-checking framework:

* the RC11 RAR operational semantics over client/library state pairs
  (:mod:`repro.memory`, Figures 4-5);
* abstract object semantics — lock, stack, register, counter
  (:mod:`repro.objects`, Section 4 / Figure 6);
* the observability assertion language (:mod:`repro.assertions`, §5.1);
* Owicki-Gries proof-outline checking and the lock proof rules
  (:mod:`repro.logic`, §5.2-5.3 / Lemmas 3-4);
* contextual refinement — direct trace checking and a forward-simulation
  game solver (:mod:`repro.refinement`, §6 / Props 9-10);
* the sequence lock, ticket lock and spinlock implementations
  (:mod:`repro.impls`) and the paper's figure programs
  (:mod:`repro.figures`);
* the exploration engine (:mod:`repro.engine`) — pluggable frontier
  strategies (BFS / DFS / random swarm) and reduction policies, a
  persistent result cache keyed by stable program fingerprint, and a
  concurrent batch job runner with JSON reports.

Quickstart::

    from repro import ast as A, Lit, Reg, Program, Thread, explore

    t1 = A.seq(A.Write("d", Lit(5)), A.Write("f", Lit(1), release=True))
    t2 = A.seq(A.Read("r1", "f", acquire=True), A.Read("r2", "d"))
    prog = Program(threads={"1": Thread(t1), "2": Thread(t2)},
                   client_vars={"d": 0, "f": 0})
    result = explore(prog)
    print(result.terminal_locals(("2", "r1"), ("2", "r2")))

Engine quickstart::

    from repro import ExplorationEngine, ResultCache

    engine = ExplorationEngine(reduction="closure", cache=ResultCache())
    summary = engine.run(prog)          # cached on the second call
    full = engine.explore(prog)         # full graph of the reduced system
"""

from repro.engine import (
    ExplorationEngine,
    ExploreResult,
    ExploreSummary,
    ResultCache,
    program_fingerprint,
    run_batch,
)
from repro.lang import ast
from repro.lang.expr import EMPTY, Lit, Reg, lit, reg
from repro.lang.program import Program, Thread
from repro.logic.outline import ProofOutline, ThreadOutline
from repro.logic.owicki import check_proof_outline
from repro.objects import (
    AbstractCounter,
    AbstractLock,
    AbstractObject,
    AbstractQueue,
    AbstractRegister,
    AbstractStack,
)
from repro.refinement.simulation import find_forward_simulation
from repro.refinement.tracecheck import check_program_refinement
from repro.refinement.traces import client_graph
from repro.semantics.config import Config, initial_config
from repro.semantics.explore import explore, final_outcomes, reachable
from repro.semantics.random_exec import random_run, replay_run, sample_outcomes
from repro.semantics.witness import (
    Witness,
    WitnessStep,
    find_path,
    find_terminal_witness,
    reconstruct_witness,
    replay_witness,
)
from repro.toolkit import verify_lock_implementation
from repro.util.pretty import format_config

__version__ = "1.0.0"

__all__ = [
    "AbstractCounter",
    "AbstractLock",
    "AbstractObject",
    "AbstractQueue",
    "AbstractRegister",
    "AbstractStack",
    "Config",
    "EMPTY",
    "ExplorationEngine",
    "ExploreResult",
    "ExploreSummary",
    "Lit",
    "ProofOutline",
    "Program",
    "Reg",
    "ResultCache",
    "Thread",
    "ThreadOutline",
    "Witness",
    "WitnessStep",
    "__version__",
    "ast",
    "check_proof_outline",
    "check_program_refinement",
    "client_graph",
    "explore",
    "final_outcomes",
    "find_forward_simulation",
    "find_path",
    "find_terminal_witness",
    "format_config",
    "initial_config",
    "lit",
    "program_fingerprint",
    "random_run",
    "reachable",
    "reconstruct_witness",
    "reg",
    "replay_run",
    "replay_witness",
    "run_batch",
    "sample_outcomes",
    "verify_lock_implementation",
]
