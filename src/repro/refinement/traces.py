"""Client trace projection and stuttering (paper §6.1).

A client trace extracts, from each configuration of an execution, the
pair ``(ls|C, γ)``: thread-local states restricted to client registers,
and the client component state.  Library-internal steps stutter in this
projection; :func:`remove_stutter` collapses them, yielding the
stutter-free traces of Definition 6.

Projections are *canonical* — client operation timestamps are replaced
by their ranks — so projections of corresponding abstract and concrete
executions are directly comparable.

Both refinement checkers read the same thing off a client program: its
unreduced transition graph, each configuration's projection and (for the
simulation game) each configuration's program counters.
:func:`client_graph` explores a program once into a :class:`ClientGraph`
that :func:`~repro.refinement.simulation.find_forward_simulation`,
:func:`~repro.refinement.tracecheck.check_program_refinement` and
:func:`~repro.refinement.checkrel.check_simulation_relation` all accept
in place of the program, so a caller running several checks on one
client pair explores each program once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, List, Sequence, Tuple, Union

from repro.engine.result import ExploreResult
from repro.lang.program import Program
from repro.memory.actions import Op
from repro.semantics.canon import _enc_table, _interner
from repro.semantics.config import Config, thread_pc
from repro.semantics.explore import explore
from repro.util.errors import VerificationError


@dataclass(frozen=True)
class ClientState:
    """The client-observable part of a configuration (canonicalised).

    Carries exactly what Definition 5 compares: client-projected local
    states, the client operation set, per-(thread, variable) observable
    operation sets, and the client's covered set.
    """

    locals: Tuple  # ((tid, ((reg, val), ...)), ...)
    ops: FrozenSet  # encoded client operations
    obs: Tuple  # (((tid, var), frozenset(encoded ops)), ...)
    cvd: FrozenSet  # encoded covered client operations

    def refines(self, abstract: "ClientState") -> bool:
        """Definition 5: ``(ls_A, γ_A) ⊑ (ls_C, γ_C)`` with ``self`` the
        concrete state.

        Local states and covered sets agree; every concrete observable
        set is contained in the abstract one.
        """
        if self.locals != abstract.locals:
            return False
        if self.cvd != abstract.cvd:
            return False
        abs_obs = dict(abstract.obs)
        for key, conc_set in self.obs:
            if not conc_set <= abs_obs.get(key, frozenset()):
                return False
        return True


def _thread_client_locals(tid: str, ls, lib_regs) -> Tuple:
    """``(tid, ((reg, val), ...))``: one thread's part of ``ls|C``, its
    local state without library registers, sorted."""
    regs = sorted((r, v) for r, v in ls.items() if r not in lib_regs)
    return (tid, tuple(regs))


def client_projection(program: Program, cfg: Config) -> ClientState:
    """Project a configuration to its client-observable state."""
    gamma = cfg.gamma
    table = _enc_table(gamma)
    lib_regs = program.lib_registers()

    def enc(op: Op) -> Tuple:
        return table[op]

    obs = tuple(
        sorted(
            (
                (tid, var),
                frozenset(enc(op) for op in gamma.obs(tid, var)),
            )
            for tid in program.tids
            for var in program.client_var_names
        )
    )
    return ClientState(
        locals=tuple(
            sorted(
                _thread_client_locals(tid, ls, lib_regs)
                for tid, ls in cfg.locals.items()
            )
        ),
        ops=frozenset(enc(op) for op in gamma.ops),
        obs=obs,
        cvd=frozenset(enc(op) for op in gamma.cvd),
    )


@dataclass
class ClientGraph:
    """A client program's unreduced transition graph, explored once and
    shared by the refinement checkers.

    Every per-configuration fact the checkers read is a function of a
    few interned ids of the configuration's canonical key
    ``(scope, thread ids, γ-id, β-id)`` (:mod:`repro.semantics.canon`),
    so it is worked out once per distinct id value, not once per
    configuration:

    * a client projection reads the client registers of each thread's
      local state and the client component γ up to timestamp
      relabelling.  A thread id interns the thread's ``(tid, cmd, ls)``
      and the γ-id interns γ's ``(action, rank)`` encoding, so the
      projection is a function of ``(thread ids, γ-id)``, and of
      coarser ``(client locals of the thread ids, γ-id)`` — the memo
      key.  ``projection_ids`` (key -> projection id) and
      ``client_states`` (the distinct :class:`ClientState` values, by
      projection id) are built with one :func:`client_projection` call
      per distinct memo key — each thread's client locals are read off
      the program's thread rows by id, so ``result.configs`` builds a
      configuration only for a new memo key — and equal projections
      are one object
      (distinct γ-ids can project alike: the projection leaves out
      modification views).  ``projections`` is the same map as key ->
      :class:`ClientState`;
    * a program counter is a function of one thread state, so ``pcs``
      (key -> per-thread program counters, in ``program.tids`` order)
      reads :func:`~repro.semantics.config.thread_pc` once per distinct
      thread id and builds no configuration; equal pc tuples are one
      object.

    All are filled on first use, so their cost lands in whichever
    checker reads them first and a checker that never reads ``pcs``
    (trace inclusion) never pays for it.
    """

    result: ExploreResult

    @property
    def program(self) -> Program:
        return self.result.program

    @cached_property
    def _projected(self) -> Tuple[Dict[Tuple, int], List[ClientState]]:
        program = self.program
        lib_regs = program.lib_registers()
        thread_locals: Dict[int, int] = {}  # thread id -> client-locals id
        locals_ids: Dict[Tuple, int] = {}  # a thread's client locals -> id
        by_ident: Dict[Tuple, int] = {}  # (client-locals ids, γ-id) -> pid
        by_value: Dict[ClientState, int] = {}
        states: List[ClientState] = []
        ids: Dict[Tuple, int] = {}
        rows = _interner(program).rows
        configs = self.result.configs
        for key in configs:
            tsids = key[1]
            for tsid in tsids:
                if tsid not in thread_locals:
                    tid, _cmd, ls = rows[tsid]
                    thread_locals[tsid] = locals_ids.setdefault(
                        _thread_client_locals(tid, ls, lib_regs),
                        len(locals_ids),
                    )
            ident = (tuple([thread_locals[t] for t in tsids]), key[2])
            pid = by_ident.get(ident)
            if pid is None:
                state = client_projection(program, configs[key])
                pid = by_ident[ident] = by_value.setdefault(state, len(states))
                if pid == len(states):
                    states.append(state)
            ids[key] = pid
        return ids, states

    @property
    def projection_ids(self) -> Dict[Tuple, int]:
        return self._projected[0]

    @property
    def client_states(self) -> List[ClientState]:
        return self._projected[1]

    @cached_property
    def projections(self) -> Dict[Tuple, ClientState]:
        ids, states = self._projected
        return {key: states[pid] for key, pid in ids.items()}

    @cached_property
    def pcs(self) -> Dict[Tuple, Tuple]:
        program = self.program
        thread_pcs: Dict[int, object] = {}  # thread id -> pc
        shared: Dict[Tuple, Tuple] = {}  # one tuple object per pc value
        pcs: Dict[Tuple, Tuple] = {}
        for key in self.result.configs:
            tsids = key[1]
            for tsid in tsids:
                if tsid not in thread_pcs:
                    thread_pcs[tsid] = thread_pc(program, tsid)
            pc = tuple([thread_pcs[t] for t in tsids])
            pcs[key] = shared.setdefault(pc, pc)
        return pcs


def client_graph(
    program: Program, max_states: int = 200_000, engine=None
) -> ClientGraph:
    """Explore ``program`` once for the refinement checkers.

    The checkers match individual concrete steps against abstract
    stuttering and read the client projection across silent steps
    (local assignments are client-observable), so they need the
    un-fused graph with its intermediate configurations: reduction is
    ``"off"`` whatever policy ``engine`` (an optional
    :class:`repro.engine.ExplorationEngine`) is configured with.
    Raises :class:`VerificationError` when the exploration truncates —
    a partial graph would give an unsound verdict.
    """
    run = explore if engine is None else engine.explore
    result = run(
        program, max_states=max_states, collect_edges=True, reduction="off"
    )
    if result.truncated:
        raise VerificationError(
            "state space truncated during refinement exploration; "
            "raise max_states"
        )
    return ClientGraph(result)


#: What the refinement checkers accept for each side: a program (explored
#: on the spot) or a graph built earlier by :func:`client_graph`.
ClientSource = Union[Program, ClientGraph]


def as_client_graph(
    source: ClientSource, max_states: int = 200_000, engine=None
) -> ClientGraph:
    """``source`` itself when it is already a :class:`ClientGraph`
    (``max_states`` and ``engine`` are then unused), else its graph."""
    if isinstance(source, ClientGraph):
        return source
    return client_graph(source, max_states=max_states, engine=engine)


def remove_stutter(trace: Sequence[ClientState]) -> Tuple[ClientState, ...]:
    """``rem_stut``: collapse consecutive repeated client states."""
    out = []
    for state in trace:
        if not out or out[-1] != state:
            out.append(state)
    return tuple(out)


def trace_refines(
    concrete: Sequence[ClientState], abstract: Sequence[ClientState]
) -> bool:
    """Definition 5 lifted to traces: pointwise refinement, equal length."""
    if len(concrete) != len(abstract):
        return False
    return all(c.refines(a) for c, a in zip(concrete, abstract))
