"""Configurations of the combined semantics (paper §3.2, §6.1).

A configuration is the 4-tuple ``Π = (P, ls, γ, β)``: per-thread
continuations, per-thread local states, the client component state and
the library component state.  Configurations are immutable and hashable;
the explorer identifies them up to canonical timestamp relabelling
(:mod:`repro.semantics.canon`).

The explorer runs on canonical keys and builds no configuration of
its own: a configuration is built from its key (:func:`keyed_config`)
only when something reads one — an ``on_config`` hook, the terminal and
stuck lists, or an entry of :class:`KeyedConfigs`, the read-only
``result.configs`` mapping, which builds each entry on first access
and keeps it.  A key-built configuration holds ``γ``, ``β``, the key
and its thread ids, and the program's thread rows (``rows[thread id] =
(tid, cmd, ls)``, :mod:`repro.semantics.canon`).  ``P`` and ``ls`` —
the ``cmds`` and ``locals`` maps — are built from the rows and cached
the first time something reads them, so states nobody inspects never
pay for two per-thread maps.  Equality, hashing, ``repr`` and pickling
read the fields as ever: a key-built configuration equals, hashes like
and pickles like one built field by field.

The caches the canonical layer keeps on a configuration (its key, its
thread ids, its structural encoding) default to ``None`` on the class,
so reading a missing one is a plain attribute lookup: it neither calls
:meth:`Config.__getattr__` nor makes CPython give the instance a real
``__dict__`` in place of its inline attribute storage.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

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

    # Caches, unset until written with ``object.__setattr__`` (not
    # dataclass fields: unannotated).  ``_rows`` marks a key-built
    # configuration; the others belong to repro.semantics.canon.
    _rows = None
    _thread_ids = None
    _canonical_key = None
    _canonical_encoding = None
    _client_state_key = None

    def __getattr__(self, name: str):
        """Reached only for a name missing from the instance and the
        class: build a key-built configuration's ``cmds`` and ``locals``
        from its thread rows, and keep both."""
        rows = self._rows
        if rows is None or name not in ("cmds", "locals"):
            raise AttributeError(name)
        threads = [rows[i] for i in self._thread_ids[1]]
        cmds = FMap({tid: cmd for tid, cmd, _ls in threads})
        locals_ = FMap({tid: ls for tid, _cmd, ls in threads})
        object.__setattr__(self, "cmds", cmds)
        object.__setattr__(self, "locals", locals_)
        return cmds if name == "cmds" else locals_

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
        """All threads have terminated (``P = E = λt.⊥``).  A key-built
        configuration reads its thread rows (:func:`key_is_terminal`)."""
        rows = self._rows
        if rows is None:
            return all(c is None for c in self.cmds.values())
        return key_is_terminal(rows, self._thread_ids)

    def pc(self, tid: str, program: Program):
        """The proof-outline program counter of ``tid`` (see §5.3):
        :func:`thread_pc` of its thread id."""
        tables = _interner(program)
        tsid = _thread_ids(tables, program, self)[program.tids.index(tid)]
        return thread_pc(program, tsid)

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


def key_is_terminal(rows: List[Tuple], key: Tuple) -> bool:
    """Whether every thread of canonical key ``key`` — or of a ``(scope,
    thread ids)`` pair — has terminated, read off the thread rows."""
    return all(rows[i][1] is None for i in key[1])


def thread_pc(program: Program, tsid: int):
    """The proof-outline program counter of the thread state of thread
    id ``tsid``: a function of the thread state, so it is worked out
    once per thread id (:func:`~repro.semantics.canon.thread_ids`) and
    kept in ``program``'s ``pcs`` table."""
    tables = _interner(program)
    pcs = tables.pcs
    if tsid in pcs:
        return pcs[tsid]
    tid, cmd, _ls = tables.rows[tsid]
    label = pcs[tsid] = pc_of(cmd, done_label=program.done_label_of(tid))
    return label


class KeyedConfigs(Mapping):
    """An exploration's admitted configurations by canonical key, in
    admission (breadth-first) order: the read-only ``result.configs``.

    ``entries`` maps each admitted key to its configuration, or to None
    while none is built; ``pairs`` maps a key's ``(γ-id, β-id)`` to the
    representative memory pair the exploration expanded it on
    (:class:`~repro.semantics.step.StepMemo`).  An entry is built from
    its key (:func:`keyed_config`) on first access and kept, so
    ``configs[k] is configs[k]``; ``len``, ``in`` and iteration read
    the keys alone and build nothing.
    """

    __slots__ = ("_entries", "_rows", "_pairs")

    def __init__(
        self,
        entries: Dict[Tuple, Optional[Config]],
        rows: List[Tuple],
        pairs: Dict[Tuple[int, int], Tuple[ComponentState, ComponentState]],
    ) -> None:
        self._entries = entries
        self._rows = rows
        self._pairs = pairs

    def __getitem__(self, key: Tuple) -> Config:
        cfg = self._entries[key]
        if cfg is None:
            gamma, beta = self._pairs[key[2], key[3]]
            cfg = self._entries[key] = keyed_config(
                key, self._rows, gamma, beta
            )
        return cfg

    def __contains__(self, key: object) -> bool:
        return key in self._entries

    def __iter__(self) -> Iterator[Tuple]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"<KeyedConfigs: {len(self._entries)} configurations>"


def initial_config(program: Program) -> Config:
    """``Π_Init = (Prog, ls_Init, γ_Init, β_Init)``."""
    gamma, beta = initial_states(program)
    cmds = FMap({t: program.body_of(t) for t in program.tids})
    locals_ = FMap(
        {t: FMap(program.initial_locals_of(t)) for t in program.tids}
    )
    return Config(cmds=cmds, locals=locals_, gamma=gamma, beta=beta)
