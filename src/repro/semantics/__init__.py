"""The combined operational semantics and state-space exploration.

``config``/``step`` implement the ``=⇒`` relation of Section 3.2: program
transitions (Figure 4) constrained by the memory semantics (Figure 5) and
the abstract object semantics (Section 4), with client steps executing
against ``γ`` and library steps against ``β``.

``explore`` performs exhaustive breadth-first enumeration of the
reachable configuration space with canonical state hashing (``canon``),
which is the engine behind every verification result in this repository.
``reduce`` holds the fixed reduction-policy table
(:class:`~repro.semantics.reduce.ReductionStrategy`,
:func:`~repro.semantics.reduce.get_strategy`) and the sound
ε-closure + covering-read-prune layer behind ``reduction="closure"``;
``dpor`` builds the sleep-set + persistent-set partial-order reduction
(``reduction="dpor"``) on top of it.  Every result comes from
exhaustive enumeration: there is no sampling mode, since a sample
cannot show that a behaviour is absent.  ``witness`` turns an
exploration's predecessor graph into a replayable schedule.
"""

from repro.semantics.canon import canonical_key
from repro.semantics.config import Config, initial_config
from repro.semantics.explore import ExploreResult, explore, final_outcomes, reachable
from repro.semantics.reduce import (
    REDUCTIONS,
    ReductionStrategy,
    close_config,
    get_strategy,
    reduced_successors,
)
from repro.semantics.step import (
    Transition,
    silent_step,
    successors,
    thread_successors,
)

__all__ = [
    "Config",
    "ExploreResult",
    "REDUCTIONS",
    "ReductionStrategy",
    "Transition",
    "canonical_key",
    "close_config",
    "explore",
    "final_outcomes",
    "get_strategy",
    "initial_config",
    "reachable",
    "reduced_successors",
    "silent_step",
    "successors",
    "thread_successors",
]
