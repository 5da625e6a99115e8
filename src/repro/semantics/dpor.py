"""Sleep-set + covering-persistent-set DPOR over the closed macro-step
system (``reduction="dpor"``).

The ε-closure (:mod:`repro.semantics.reduce`) removes interleavings of
*invisible* work; this module removes interleavings of *independent
visible* work on top of it.  Two classic partial-order techniques are
composed over :func:`~repro.semantics.reduce.reduced_successors`:

Persistent sets
---------------
At each closed configuration the live threads are partitioned by the
conflict graph of their *footprints*: thread ``t``'s footprint is the
set of ``(component, variable)`` locations any execution of
``cmds[t]`` may still read or write (``MethodCall`` is ⊤ — abstract
methods have arbitrary footprints).  The whole-continuation union is
:func:`repro.analysis.footprints.thread_footprint`, which this module
imports under the same name.  Two refinements sharpen the partition beyond it:

* **static disjointness** — thread pairs whose *whole-body* footprints
  never conflict are disjoint in every reachable configuration
  (continuation footprints only shrink), so their conflict test is
  skipped outright, worked out once per program;
* **phase sensitivity** — the default footprint is
  :func:`repro.analysis.phase_footprint`, which constant-folds branch
  conditions under the thread's *current* local state: locations
  touched only by statically-dead branches drop out, so the summary
  shrinks as the continuation advances (a mode register read early
  resolves the conditionals of later phases).  Both refinements yield
  subsets of the whole-continuation footprint, so the persistent-set
  argument below is unaffected; :func:`set_footprint_mode` reverts to
  ``"whole"`` for differential benchmarking.

Threads in different components never access a common location for the
rest of the run, so the enabled transitions of one component form a
persistent set:

* a component's variables are written only by its own threads, so no
  move of another component changes which values its reads can observe;
* a thread's viewfronts advance only through its own actions, so no
  move of another component changes which placements/read-froms its
  transitions admit.

Hence every transition outside the chosen component commutes with (and
cannot enable, disable, or alter) the transitions inside it — any trace
from the configuration to a terminal or stuck sink must eventually take
one of the chosen transitions, and that transition commutes to the
front (induction on trace length).  Selective search over a persistent
set per state therefore preserves every terminal configuration
bit-for-bit and every stuck verdict; no cycle proviso is needed for
those properties under the engine's stateful BFS, because canonical-key
cycles consist solely of transitions that leave both component ids
unchanged (operation sets and view ranks are monotone).
The selection nevertheless *prefers* components with a memory-progress
transition (one whose target's ``(γ-id, β-id)`` differ from the
source's) and falls back to
full expansion when none has one, which keeps the reduction effective
on await/polling loops instead of repeatedly selecting a spinning
reader.

Sleep sets
----------
Persistent sets cut the branching factor; sleep sets remove the
residual "commuting square" duplicates *between* the chosen siblings.
A sleep set rides every frontier entry (threaded through the sequential
loop via the strategy's ``sleep_expand`` hook): thread ``u`` sleeps
at a child when the search has already expanded, from the same parent,
a sibling subtree in which every enabled transition of ``u`` is
independent of the edge taken — any trace starting with ``u`` from the
child is then a commutation of a trace already explored.  Sleeping
threads are skipped during expansion (counted as
``reduce.dpor.sleep_blocked``); a state whose every enabled thread is
asleep but which still has successors is re-expanded in full with empty
child sleeps, so sleep sets prune edges, never create artificial sinks.

Independence oracle
-------------------
:func:`independence` classifies an *ordered-pair-symmetric* relation on
enabled transitions, conservatively (``dependent`` when unsure, exactly
as the paper's synchronisation edges demand):

* same thread, silent macro-edges (a cut-off ε-chain) and abstract
  method operations: ``dependent``;
* two non-modifying operations (plain/acquiring reads): ``strong`` —
  reads create no operations and advance only the reading thread's own
  viewfront rows, so either order yields bit-identical configurations;
* operations on the same ``(component, variable)`` location with at
  least one write/update: ``dependent`` (this subsumes the
  synchronising release-acquire and RMW edges, which by definition
  meet at one location);
* two modifying operations on *different* variables of the *same*
  component: ``canonical`` — they commute up to timestamp placement
  (``fresh_ts`` draws from a component-wide pool), which the canonical
  rank-encoding collapses; sound because the explorer identifies
  states by canonical key only;
* anything else (disjoint locations, at most sharing a component with
  a non-modifying op): ``strong``.

``strong`` independence is bit-level commutation — the property the
hypothesis differential suite (``tests/test_semantics_dpor.py``)
checks by executing random independent pairs in both orders.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.analysis.footprints import (
    fp_conflict,
    phase_footprint,
    thread_footprint,
)
from repro.analysis.footprints import Footprint as _Footprint
from repro.lang.program import Program
from repro.memory import actions as ACT
from repro.obs import metrics as _metrics
from repro.semantics.canon import _interner, thread_ids
from repro.semantics.reduce import (
    ReductionStrategy,
    close_config,
    reduced_successors,
)
from repro.semantics.step import Edge, StepMemo

#: Independence verdicts.  ``STRONG`` — the two transitions commute to
#: bit-identical configurations; ``CANONICAL`` — they commute up to the
#: canonical rank-encoding of timestamps (same canonical key, possibly
#: different raw states); ``DEPENDENT`` — no commutation claimed.
DEPENDENT = "dependent"
STRONG = "strong"
CANONICAL = "canonical"

#: Which footprint feeds the conflict partition: ``"phase"`` (the
#: flow-sensitive :func:`repro.analysis.phase_footprint`, the default)
#: or ``"whole"`` (the continuation union, :func:`thread_footprint`).
_FOOTPRINT_MODE = "phase"
FOOTPRINT_MODES = ("phase", "whole")


def set_footprint_mode(mode: str) -> str:
    """Select the partition footprint; returns the previous mode.

    Used by the differential benchmark
    (``benchmarks/test_bench_analysis.py``) to measure the phase
    refinement against whole-continuation footprints.
    """
    global _FOOTPRINT_MODE
    if mode not in FOOTPRINT_MODES:
        raise ValueError(
            f"unknown footprint mode {mode!r}; expected one of "
            f"{', '.join(FOOTPRINT_MODES)}"
        )
    previous = _FOOTPRINT_MODE
    _FOOTPRINT_MODE = mode
    return previous


def _static_disjoint_pairs(program: Program) -> FrozenSet:
    """The thread pairs whose whole-body footprints never conflict.

    Whole-body footprints bound every reachable continuation's
    footprint, so a pair disjoint here is disjoint forever — its
    conflict test is skipped in every partition.  Worked out once per
    program and kept in its intern tables."""
    tables = _interner(program)
    if tables.disjoint is None:
        fps = {t: thread_footprint(program.body_of(t)) for t in program.tids}
        tids = program.tids
        tables.disjoint = frozenset(
            (t, u)
            for i, t in enumerate(tids)
            for u in tids[i + 1:]
            if not fp_conflict(fps[t], fps[u])
        )
    return tables.disjoint


def independence(a: Edge, b: Edge) -> str:
    """Classify an enabled pair of :data:`~repro.semantics.step.Edge`
    tuples (module docstring table)."""
    if a[0] == b[0]:
        return DEPENDENT
    act_a, act_b = a[2], b[2]
    if act_a is None or act_b is None:
        return DEPENDENT  # cut-off ε macro-edge: no commutation claimed
    if ACT.is_method(act_a) or ACT.is_method(act_b):
        return DEPENDENT  # abstract footprints: conservatively dependent
    mod_a = ACT.is_modifying(act_a)
    mod_b = ACT.is_modifying(act_b)
    if not mod_a and not mod_b:
        return STRONG
    if (a[1], act_a.var) == (b[1], act_b.var):
        return DEPENDENT  # one location, ≥1 write/update: sync edges live here
    if mod_a and mod_b and a[1] == b[1]:
        return CANONICAL  # disjoint vars, shared timestamp pool
    return STRONG


def _partition(program: Program, state) -> List[List[str]]:
    """Conflict-graph connected components over the live threads of
    ``state``, a configuration or its canonical key.

    A thread's footprint is a function of its thread state, so it is
    kept per ``(footprint mode, thread id)`` in the program's
    ``footprints`` table and worked out on first use: a pair on the
    static-disjointness fast path never evaluates them at all, and
    phase mode only interprets the continuations actually compared.
    Liveness and footprints read each thread's ``(cmd, ls)`` off the
    program's thread rows by id, so no ``cmds``/``locals`` map is read
    here.
    """
    disjoint = _static_disjoint_pairs(program)
    tables = _interner(program)
    footprints = tables.footprints
    rows = tables.rows
    mode = _FOOTPRINT_MODE
    ids = state[1] if type(state) is tuple else thread_ids(program, state)
    tsids = dict(zip(program.tids, ids))
    live = [t for t in program.tids if rows[tsids[t]][1] is not None]

    def fp_of(t: str) -> _Footprint:
        key = (mode, tsids[t])
        fp = footprints.get(key)
        if fp is None:
            _tid, cmd, ls = rows[tsids[t]]
            if mode == "phase":
                fp = phase_footprint(cmd, ls)
            else:
                fp = thread_footprint(cmd)
            footprints[key] = fp
        return fp

    parent = {t: t for t in live}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    skipped = 0
    for i, t in enumerate(live):
        for u in live[i + 1:]:
            if (t, u) in disjoint:
                skipped += 1
                continue
            if fp_conflict(fp_of(t), fp_of(u)):
                rt, ru = find(t), find(u)
                if rt != ru:
                    parent[ru] = rt
    if skipped and _metrics._ACTIVE is not None:
        _metrics._ACTIVE.inc("reduce.dpor.static_disjoint", skipped)
    groups: Dict[str, List[str]] = {}
    for t in live:
        groups.setdefault(find(t), []).append(t)
    return list(groups.values())


def _select_persistent(
    program: Program,
    state,
    pair: Tuple,
    by_tid: Dict[str, List[Edge]],
) -> Tuple[FrozenSet, bool]:
    """Choose the persistent set to expand at ``state`` (a configuration
    or its key), whose memory pair is ``pair``: ``(tids, proper)``.

    Candidates are conflict components with at least one enabled
    transition; among those with a memory-progress transition (one
    whose ``(γ', β')`` is not ``pair`` itself, compared by identity —
    skipping pure spin-reads keeps the reduction useful on await loops)
    the one with the fewest enabled transitions
    wins, tie-broken by smallest thread id.  Falls back to full
    expansion (``proper=False``) when the threads don't split, no
    candidate makes memory progress, or the winner already covers every
    enabled transition.

    Identity is not the same test as comparing the target's component
    ids with the source's.  A step served from the memo carries the
    representative pair of its ids (:meth:`StepMemo.settle
    <repro.semantics.step.StepMemo.settle>`), which is ``pair`` exactly
    when the ids are unchanged; but a step first worked out during this
    expansion carries the rule's own new states, which read as progress
    even when their ids equal the source's.  Comparing ids instead
    expands fewer states on the BENCH_dpor family (2+2W-x-ring2 237 →
    123, iriw-await-x-ring2 41 → 31), so it waits for a change that
    re-pins those counts.
    """
    enabled = frozenset(by_tid)
    groups = _partition(program, state)
    if len(groups) <= 1:
        return enabled, False
    best_key = None
    best_sel: Optional[FrozenSet] = None
    for group in groups:
        genabled = [t for t in group if t in by_tid]
        if not genabled:
            continue
        gamma, beta = pair
        progress = any(
            edge[4] is not gamma or edge[5] is not beta
            for t in genabled
            for edge in by_tid[t]
        )
        if not progress:
            continue
        key = (sum(len(by_tid[t]) for t in genabled), min(genabled))
        if best_key is None or key < best_key:
            best_key = key
            best_sel = frozenset(genabled)
    if best_sel is None or best_sel == enabled:
        return enabled, False
    return best_sel, True


def dpor_successors(
    program: Program,
    state,
    sleep: FrozenSet,
    memo: Optional[StepMemo] = None,
) -> List[Tuple[Edge, FrozenSet]]:
    """The DPOR expansion of a closed configuration, or of its canonical
    key, under ``sleep``.

    Returns ``[(edge, child_sleep)]`` — empty exactly when the
    configuration has no successors at all.  ``sleep`` holds thread
    ids; a thread sleeps at a child when *all* of its enabled
    transitions here are independent (strong or canonical) of the edge
    taken, inherited from the parent sleep plus the already-expanded
    earlier siblings.  ``memo`` is the exploration's visible-step memo
    (:func:`~repro.semantics.reduce.reduced_successors`).  It serves the
    threads left outside the persistent set too: the persistent-set
    choice reads their target ids, and the explorer never tests their
    keys, so a stored step whose ids are never admitted keeps the rule's
    own states (:meth:`~repro.semantics.step.StepMemo.settle`).
    """
    succs = reduced_successors(program, state, memo)
    if not succs:
        return []
    by_tid: Dict[str, List[Edge]] = {}
    for edge in succs:
        by_tid.setdefault(edge[0], []).append(edge)
    if any(edge[2] is None for edge in succs):
        # A cut-off ε macro-edge defeats the footprint analysis (the
        # silent chain may re-enter any code): full expansion.
        selected, proper = frozenset(by_tid), False
    else:
        if type(state) is tuple:
            pair = memo.pairs[state[2], state[3]]
        else:
            pair = (state.gamma, state.beta)
        selected, proper = _select_persistent(program, state, pair, by_tid)

    expand = sorted(t for t in selected if t not in sleep)
    if expand:
        blocked = [t for t in selected if t in sleep]
        if proper and _metrics._ACTIVE is not None:
            _metrics._ACTIVE.inc("reduce.dpor.persistent_expanded")
    else:
        # The whole selection is asleep: fall back to every enabled
        # thread minus sleep (the full set is trivially persistent and
        # sleep suppression is justified by the sleep invariant alone).
        expand = sorted(t for t in by_tid if t not in sleep)
        blocked = [t for t in by_tid if t in sleep]
        if not expand:
            # Every enabled thread is asleep yet successors exist —
            # re-expand in full with empty child sleeps rather than
            # manufacture an artificial sink.
            return [(edge, frozenset()) for edge in succs]
    if blocked and _metrics._ACTIVE is not None:
        _metrics._ACTIVE.inc(
            "reduce.dpor.sleep_blocked",
            sum(len(by_tid[t]) for t in blocked),
        )

    # Sleep candidates must be enabled here: independence is only
    # defined on enabled transitions, and a disabled thread may wake
    # into different behaviour.
    inherited = [u for u in sorted(sleep) if u in by_tid]
    out: List[Tuple[Edge, FrozenSet]] = []
    for i, t in enumerate(expand):
        candidates = inherited + expand[:i]
        for edge in by_tid[t]:
            child = frozenset(
                u
                for u in candidates
                if u != t
                and all(independence(ue, edge) != DEPENDENT for ue in by_tid[u])
            )
            out.append((edge, child))
    return out


DPOR_STRATEGY = ReductionStrategy(
    name="dpor",
    successors=None,
    normalise_initial=close_config,
    closure_expansion=True,
    sleep_expand=dpor_successors,
)
