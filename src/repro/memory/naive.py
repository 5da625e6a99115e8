"""The naive (un-indexed) reference component state.

:class:`~repro.memory.state.ComponentState` answers every observation
query through an incrementally-maintained per-variable index.  This
module retains the original *specification-shaped* implementation — full
``ops``-set scans and re-sorts per query, whole-component timestamp
scans for freshness, per-call thread-view-map rebuilds, rank maps
rebuilt per canonical encoding — as an executable reference:

* the differential property suite drives the real transition rules over
  both representations and asserts identical canonical keys and
  successor sets (the indexed state is observationally equal to the
  naive one);
* ``benchmarks/test_bench_state_index.py`` measures the speedup the
  index buys on real exploration workloads.

Naive states are real :class:`ComponentState` instances (the transition
rules and abstract objects work on them unchanged through the shared
method protocol); only the derived-data machinery is overridden, so the
numeric timestamps — and hence the raw configurations — produced through
either representation are bit-identical.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from typing import Dict, Optional, Tuple

from repro.lang.program import Program
from repro.memory.actions import Op
from repro.memory.state import ComponentState
from repro.memory.views import View
from repro.memory.views import last_op as _scan_last_op
from repro.memory.views import max_ts as _scan_max_ts
from repro.semantics.config import Config, initial_config
from repro.util.fmap import FMap
from repro.util.rationals import fresh_after, rank_map


class NaiveComponentState(ComponentState):
    """Reference implementation: every query scans the flat ``ops`` set."""

    def obs(self, tid: str, var: str) -> Tuple[Op, ...]:
        front = self.tview.get((tid, var))
        if front is None:
            return ()
        floor = front.ts
        found = [op for op in self.ops if op.act.var == var and op.ts >= floor]
        found.sort(key=lambda op: op.ts)
        return tuple(found)

    def observable_uncovered(self, tid: str, var: str) -> Tuple[Op, ...]:
        return tuple(op for op in self.obs(tid, var) if op not in self.cvd)

    def ops_on(self, var: str) -> Tuple[Op, ...]:
        found = [op for op in self.ops if op.act.var == var]
        found.sort(key=lambda op: op.ts)
        return tuple(found)

    def max_ts(self, var: str) -> Optional[Fraction]:
        return _scan_max_ts(var, self.ops)

    def last_op(self, var: str, only=None) -> Optional[Op]:
        return _scan_last_op(var, self.ops, only=only)

    def timestamps(self) -> Tuple[Fraction, ...]:
        return tuple(op.ts for op in self.ops)

    def fresh_ts(self, var: str, q: Fraction) -> Fraction:
        return fresh_after(q, self.timestamps())

    def thread_view_map(self, tid: str) -> View:
        # Rebuilt on every call — the per-(state, tid) cache is part of
        # what the benchmark measures.
        return FMap({x: op for (t, x), op in self.tview.items() if t == tid})

    def with_thread_view(self, tid: str, view: View) -> "NaiveComponentState":
        updates = {(tid, x): op for x, op in view.items()}
        return NaiveComponentState(
            ops=self.ops,
            tview=self.tview.set_many(updates),
            mview=self.mview,
            cvd=self.cvd,
        )

    def add_op(
        self,
        op: Op,
        mview: View,
        tid: str,
        tview: View,
        cover: Optional[Op] = None,
    ) -> "NaiveComponentState":
        new_cvd = self.cvd | {cover} if cover is not None else self.cvd
        updates = {(tid, x): o for x, o in tview.items()}
        return NaiveComponentState(
            ops=self.ops | {op},
            tview=self.tview.set_many(updates),
            mview=self.mview.set(op, mview),
            cvd=new_cvd,
        )


def as_naive(state: ComponentState) -> NaiveComponentState:
    """Re-wrap a component state in the naive representation."""
    return NaiveComponentState(
        ops=state.ops, tview=state.tview, mview=state.mview, cvd=state.cvd
    )


def naive_config(cfg: Config) -> Config:
    """A configuration whose components use the naive representation."""
    return Config(
        cmds=cfg.cmds,
        locals=cfg.locals,
        gamma=as_naive(cfg.gamma),
        beta=as_naive(cfg.beta),
    )


def naive_initial_config(program: Program) -> Config:
    """``Π_Init`` with naive component states."""
    return naive_config(initial_config(program))


# ---------------------------------------------------------------------------
# the original canonical encoding (rank maps rebuilt per state, ``repr``
# lexicographic tie-breaks) — retained for the benchmark's naive leg
# ---------------------------------------------------------------------------


def _var_ranks(state: ComponentState) -> Dict:
    """rank maps per variable: var -> {ts -> rank} (full ``ops`` scan)."""
    by_var: Dict = {}
    for op in state.ops:
        by_var.setdefault(op.act.var, []).append(op.ts)
    return {var: rank_map(ts_list) for var, ts_list in by_var.items()}


def naive_canonical_key(program: Program, cfg: Config) -> Tuple:
    """The pre-index canonical key: rebuilds per-variable rank maps and
    sorts modification views by ``repr``.  Equivalent to
    :func:`repro.semantics.canon.canonical_encoding` (and so to the
    interned ``canonical_key``) as a state identifier — same quotient,
    byte-different in encoding."""
    g_ranks = _var_ranks(cfg.gamma)
    b_ranks = _var_ranks(cfg.beta)
    client_vars = program.client_var_names

    def enc_op(op: Op) -> Tuple:
        ranks = g_ranks if op.act.var in client_vars else b_ranks
        return (op.act, ranks[op.act.var][op.ts])

    def enc_state(state: ComponentState) -> Tuple:
        ops = frozenset(enc_op(op) for op in state.ops)
        tview = tuple(
            sorted((key, enc_op(op)) for key, op in state.tview.items())
        )
        mview = tuple(
            sorted(
                (
                    (
                        enc_op(op),
                        tuple(sorted((x, enc_op(o)) for x, o in view.items())),
                    )
                    for op, view in state.mview.items()
                ),
                key=repr,
            )
        )
        cvd = frozenset(enc_op(op) for op in state.cvd)
        return (ops, tview, mview, cvd)

    cmds = tuple(sorted(cfg.cmds.items(), key=lambda kv: kv[0]))
    locals_ = tuple(
        sorted((tid, ls.items_sorted()) for tid, ls in cfg.locals.items())
    )
    return (cmds, locals_, enc_state(cfg.gamma), enc_state(cfg.beta))


def explore_naive(
    program: Program, max_states: int = 500_000
) -> Tuple[int, int, set]:
    """BFS over the canonical state space through the naive state
    representation and the pre-index canonical encoding.

    Returns ``(state_count, edge_count, terminal_cmd-free_locals)`` —
    the observables the differential benchmark compares against the
    indexed explorer.  Deliberately mirrors the engine's sequential loop
    so timing differences isolate the state representation.
    """
    from repro.semantics.step import transitions

    init = naive_initial_config(program)
    init_key = naive_canonical_key(program, init)
    seen = {init_key}
    frontier = deque([init])
    states = 1
    edges = 0
    terminals = set()
    while frontier:
        cfg = frontier.popleft()
        succs = transitions(program, cfg)
        if not succs:
            if cfg.is_terminal():
                terminals.add(
                    tuple(
                        (tid, cfg.locals[tid].items_sorted())
                        for tid in sorted(cfg.locals)
                    )
                )
            continue
        for tr in succs:
            edges += 1
            tkey = naive_canonical_key(program, tr.target)
            if tkey not in seen:
                if states >= max_states:
                    continue
                seen.add(tkey)
                states += 1
                frontier.append(tr.target)
    return states, edges, terminals
