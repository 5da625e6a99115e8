"""Configurations of the combined semantics (paper §3.2, §6.1).

A configuration is the 4-tuple ``Π = (P, ls, γ, β)``: per-thread
continuations, per-thread local states, the client component state and
the library component state.  Configurations are immutable and hashable;
the explorer identifies them up to canonical timestamp relabelling
(:mod:`repro.semantics.canon`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

from repro.lang.ast import Com
from repro.lang.expr import Value
from repro.lang.labels import pc_of
from repro.lang.program import Program
from repro.memory.initial import initial_states
from repro.memory.state import ComponentState
from repro.util.fmap import FMap


@dataclass(frozen=True)
class Config:
    """``(P, ls, γ, β)`` — one state of the combined transition system."""

    cmds: FMap  # tid -> Com (None = terminated, the paper's E(t) = ⊥)
    locals: FMap  # tid -> FMap(reg -> Value)
    gamma: ComponentState  # client component
    beta: ComponentState  # library component

    # -- serialisation -------------------------------------------------------
    def __reduce__(self):
        """Rebuild from ``(P, ls, γ, β)``.  Cached canonical keys
        (installed by :mod:`repro.semantics.canon`) hold process-local
        interned ids, so they never cross the pickle boundary."""
        return (Config, (self.cmds, self.locals, self.gamma, self.beta))

    # -- inspection ----------------------------------------------------------
    def cmd(self, tid: str) -> Com:
        return self.cmds[tid]

    def local(self, tid: str, reg: str, default: Value = None) -> Value:
        return self.locals[tid].get(reg, default)

    def local_state(self, tid: str) -> FMap:
        return self.locals[tid]

    def is_terminal(self) -> bool:
        """All threads have terminated (``P = E = λt.⊥``)."""
        return all(c is None for c in self.cmds.values())

    def pc(self, tid: str, program: Program):
        """The proof-outline program counter of ``tid`` (see §5.3)."""
        return pc_of(self.cmds[tid], done_label=program.done_label_of(tid))

    # -- updates ---------------------------------------------------------------
    def with_thread(
        self,
        tid: str,
        cmd: Com,
        ls: FMap,
        gamma: ComponentState,
        beta: ComponentState,
    ) -> "Config":
        return Config(
            cmds=self.cmds.set(tid, cmd),
            locals=self.locals.set(tid, ls),
            gamma=gamma,
            beta=beta,
        )


def initial_config(program: Program) -> Config:
    """``Π_Init = (Prog, ls_Init, γ_Init, β_Init)``."""
    gamma, beta = initial_states(program)
    cmds = FMap({t: program.body_of(t) for t in program.tids})
    locals_ = FMap(
        {t: FMap(program.initial_locals_of(t)) for t in program.tids}
    )
    return Config(cmds=cmds, locals=locals_, gamma=gamma, beta=beta)
