"""Configurations of the combined semantics (paper §3.2, §6.1).

A configuration is the 4-tuple ``Π = (P, ls, γ, β)``: per-thread
continuations, per-thread local states, the client component state and
the library component state.  Configurations are immutable and hashable;
the explorer identifies them up to canonical timestamp relabelling
(:mod:`repro.semantics.canon`).

A configuration the explorer admits is built from its canonical key
(:func:`keyed_config`): it holds ``γ``, ``β``, the key and its thread
ids, and the program's thread rows (``rows[thread id] = (tid, cmd,
ls)``, :mod:`repro.semantics.canon`).  ``P`` and ``ls`` — the ``cmds``
and ``locals`` maps — are built from the rows and cached the first time
something reads them, so states nobody inspects never pay for two
per-thread maps.  Equality, hashing, ``repr`` and pickling read the
fields as ever: a key-built configuration equals, hashes like and
pickles like one built field by field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.lang.ast import Com
from repro.lang.expr import Value
from repro.lang.labels import pc_of
from repro.lang.program import Program
from repro.memory.initial import initial_states
from repro.memory.state import ComponentState
from repro.semantics.canon import _interner, _thread_ids
from repro.util.fmap import FMap


@dataclass(frozen=True)
class Config:
    """``(P, ls, γ, β)`` — one state of the combined transition system."""

    cmds: FMap  # tid -> Com (None = terminated, the paper's E(t) = ⊥)
    locals: FMap  # tid -> FMap(reg -> Value)
    gamma: ComponentState  # client component
    beta: ComponentState  # library component

    def __getattr__(self, name: str):
        """Reached only for a name missing from the instance: build a
        key-built configuration's ``cmds`` and ``locals`` from its thread
        rows, and keep both."""
        d = self.__dict__
        rows = d.get("_rows")
        if rows is None or name not in ("cmds", "locals"):
            raise AttributeError(name)
        threads = [rows[i] for i in d["_thread_ids"][1]]
        object.__setattr__(
            self, "cmds", FMap({tid: cmd for tid, cmd, _ls in threads})
        )
        object.__setattr__(
            self, "locals", FMap({tid: ls for tid, _cmd, ls in threads})
        )
        return d[name]

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
        """All threads have terminated (``P = E = λt.⊥``).  Read off the
        thread rows while ``cmds`` is not built."""
        d = self.__dict__
        if "cmds" in d or "_rows" not in d:
            return all(c is None for c in self.cmds.values())
        rows = d["_rows"]
        return all(rows[i][1] is None for i in d["_thread_ids"][1])

    def pc(self, tid: str, program: Program):
        """The proof-outline program counter of ``tid`` (see §5.3).

        A function of the thread state, so it is worked out once per
        thread id (:func:`~repro.semantics.canon.thread_ids`) and kept
        in ``program``'s ``pcs`` table."""
        tables = _interner(program)
        tsid = _thread_ids(tables, program, self)[program.tids.index(tid)]
        pcs = tables.pcs
        if tsid in pcs:
            return pcs[tsid]
        label = pcs[tsid] = pc_of(
            tables.rows[tsid][1], done_label=program.done_label_of(tid)
        )
        return label

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


def keyed_config(
    key: Tuple, rows: List[Tuple], gamma: ComponentState, beta: ComponentState
) -> Config:
    """The configuration of canonical key ``key = (scope, thread ids,
    γ-id, β-id)`` on the memory pair ``(gamma, beta)`` — which must have
    the key's component ids — with ``cmds`` and ``locals`` left to be
    built from ``rows``, the thread rows of the key's program, on first
    read."""
    cfg = object.__new__(Config)
    set_ = object.__setattr__
    set_(cfg, "gamma", gamma)
    set_(cfg, "beta", beta)
    set_(cfg, "_thread_ids", (key[0], key[1]))
    set_(cfg, "_canonical_key", key)
    set_(cfg, "_rows", rows)
    return cfg


def initial_config(program: Program) -> Config:
    """``Π_Init = (Prog, ls_Init, γ_Init, β_Init)``."""
    gamma, beta = initial_states(program)
    cmds = FMap({t: program.body_of(t) for t in program.tids})
    locals_ = FMap(
        {t: FMap(program.initial_locals_of(t)) for t in program.tids}
    )
    return Config(cmds=cmds, locals=locals_, gamma=gamma, beta=beta)
