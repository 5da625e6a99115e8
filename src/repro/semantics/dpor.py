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
methods have arbitrary footprints).  Two refinements sharpen the
partition beyond the whole-continuation union:

* **static disjointness** — thread pairs whose *whole-body* footprints
  never conflict are disjoint in every reachable configuration
  (continuation footprints only shrink), so their conflict test is
  skipped outright, memoised once per program;
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
cycles consist solely of transitions that leave both component states'
object identity unchanged (operation sets and view ranks are monotone).
The selection nevertheless *prefers* components with a memory-progress
transition (one that produces a new ``γ`` or ``β``) and falls back to
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
  rank-encoding collapses; sound only under canonical state keys,
  hence ``requires_canonical`` on the strategy;
* anything else (disjoint locations, at most sharing a component with
  a non-modifying op): ``strong``.

``strong`` independence is bit-level commutation — the property the
hypothesis differential suite (``tests/test_semantics_dpor.py``)
checks by executing random independent pairs in both orders.
"""

from __future__ import annotations

import weakref
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.analysis.footprints import (
    FP_EMPTY as _FP_EMPTY,
    FP_TOP as _FP_TOP,
    fp_conflict,
    fp_union as _fp_union,
    phase_footprint,
)
from repro.analysis.footprints import Footprint as _Footprint
from repro.lang import ast as A
from repro.lang.program import Program
from repro.lang.walk import fold
from repro.memory import actions as ACT
from repro.obs import metrics as _metrics
from repro.semantics.config import Config
from repro.semantics.reduce import (
    ReductionStrategy,
    close_config,
    reduced_successors,
)
from repro.semantics.step import Transition
from repro.util.cache import evict_half

#: Independence verdicts.  ``STRONG`` — the two transitions commute to
#: bit-identical configurations; ``CANONICAL`` — they commute up to the
#: canonical rank-encoding of timestamps (same canonical key, possibly
#: different raw states); ``DEPENDENT`` — no commutation claimed.
DEPENDENT = "dependent"
STRONG = "strong"
CANONICAL = "canonical"

#: The footprint algebra lives in :mod:`repro.analysis.footprints`;
#: ``footprints_conflict`` keeps its historical name here.
footprints_conflict = fp_conflict

#: Memoised whole-continuation footprints, keyed ``(node, in_lib)`` —
#: AST nodes are immutable and loop unfoldings rebuild structurally-
#: equal suffixes, so value-keyed memoisation hits across the
#: exploration.  Bounded by oldest-half eviction (the shared
#: :mod:`repro.util.cache` policy).
_FOOTPRINTS: Dict[Tuple[A.Node, bool], _Footprint] = {}
_FOOTPRINTS_MAX = 100_000


def _fp_fold(node: Optional[A.Node], in_lib: bool, child_values) -> _Footprint:
    if node is None:
        return _FP_EMPTY
    comp = "L" if in_lib else "C"
    if isinstance(node, A.LocalAssign):
        return _FP_EMPTY
    if isinstance(node, A.Read):
        return (frozenset(((comp, node.var),)), frozenset(), False)
    if isinstance(node, A.Write):
        return (frozenset(), frozenset(((comp, node.var),)), False)
    if isinstance(node, (A.Cas, A.Fai)):
        loc = frozenset(((comp, node.var),))
        return (loc, loc, False)
    if isinstance(node, A.MethodCall):
        return _FP_TOP  # abstract methods have arbitrary footprints
    # Seq/If/While/Labeled/LibBlock: union over children (a LibBlock's
    # body was already folded with the library component flag).
    acc: _Footprint = _FP_EMPTY
    for value in child_values:
        acc = _fp_union(acc, value)
    return acc


def thread_footprint(cmd: Optional[A.Node], in_lib: bool = False) -> _Footprint:
    """The footprint of every possible execution of ``cmd``.

    Conservative over all executions: branches union, loops summarise
    their bodies; ``Cas``/``Fai`` both read and write their location;
    commands inside a ``LibBlock`` touch ``'L'`` locations.
    """
    return fold(
        cmd, _fp_fold, in_lib=in_lib,
        cache=_FOOTPRINTS, cache_max=_FOOTPRINTS_MAX,
    )


#: Which footprint feeds the conflict partition: ``"phase"`` (the
#: flow-sensitive :func:`repro.analysis.phase_footprint`, the default)
#: or ``"whole"`` (the continuation union above).
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


#: Per-program statically-disjoint thread pairs, keyed ``id(program)``
#: with a weakref guard against id reuse.  Whole-body footprints bound
#: every reachable continuation's footprint, so a pair disjoint here is
#: disjoint forever — its conflict test is skipped in every partition.
_STATIC_DISJOINT: Dict[int, Tuple] = {}
_STATIC_DISJOINT_MAX = 1024


def _static_disjoint_pairs(program: Program) -> FrozenSet:
    hit = _STATIC_DISJOINT.get(id(program))
    if hit is not None:
        ref, pairs = hit
        if ref() is program:
            return pairs
    fps = {t: thread_footprint(program.body_of(t)) for t in program.tids}
    tids = program.tids
    pairs = frozenset(
        (t, u)
        for i, t in enumerate(tids)
        for u in tids[i + 1:]
        if not footprints_conflict(fps[t], fps[u])
    )
    if len(_STATIC_DISJOINT) >= _STATIC_DISJOINT_MAX:
        evict_half(_STATIC_DISJOINT)
    _STATIC_DISJOINT[id(program)] = (weakref.ref(program), pairs)
    return pairs


def independence(a: Transition, b: Transition) -> str:
    """Classify an enabled-transition pair (module docstring table)."""
    if a.tid == b.tid:
        return DEPENDENT
    act_a, act_b = a.action, b.action
    if act_a is None or act_b is None:
        return DEPENDENT  # cut-off ε macro-edge: no commutation claimed
    if ACT.is_method(act_a) or ACT.is_method(act_b):
        return DEPENDENT  # abstract footprints: conservatively dependent
    mod_a = ACT.is_modifying(act_a)
    mod_b = ACT.is_modifying(act_b)
    if not mod_a and not mod_b:
        return STRONG
    if (a.component, act_a.var) == (b.component, act_b.var):
        return DEPENDENT  # one location, ≥1 write/update: sync edges live here
    if mod_a and mod_b and a.component == b.component:
        return CANONICAL  # disjoint vars, shared timestamp pool
    return STRONG


def _partition(program: Program, cfg: Config) -> List[List[str]]:
    """Conflict-graph connected components over the live threads.

    Footprints are computed lazily per thread: a pair on the static-
    disjointness fast path never evaluates them at all, and phase mode
    only interprets the continuations actually compared.
    """
    live = [t for t in program.tids if cfg.cmds[t] is not None]
    disjoint = _static_disjoint_pairs(program)
    phase = _FOOTPRINT_MODE == "phase"
    fps: Dict[str, _Footprint] = {}

    def fp_of(t: str) -> _Footprint:
        fp = fps.get(t)
        if fp is None:
            if phase:
                fp = phase_footprint(cfg.cmds[t], cfg.locals[t])
            else:
                fp = thread_footprint(cfg.cmds[t])
            fps[t] = fp
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
            if footprints_conflict(fp_of(t), fp_of(u)):
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
    cfg: Config,
    by_tid: Dict[str, List[Transition]],
) -> Tuple[FrozenSet, bool]:
    """Choose the persistent set to expand: ``(tids, proper)``.

    Candidates are conflict components with at least one enabled
    transition; among those with a memory-progress transition (a new
    ``γ`` or ``β`` — skipping pure spin-reads keeps the reduction
    useful on await loops) the one with the fewest enabled transitions
    wins, tie-broken by smallest thread id.  Falls back to full
    expansion (``proper=False``) when the threads don't split, no
    candidate makes memory progress, or the winner already covers every
    enabled transition.
    """
    enabled = frozenset(by_tid)
    groups = _partition(program, cfg)
    if len(groups) <= 1:
        return enabled, False
    best_key = None
    best_sel: Optional[FrozenSet] = None
    for group in groups:
        genabled = [t for t in group if t in by_tid]
        if not genabled:
            continue
        progress = any(
            tr.target.gamma is not cfg.gamma or tr.target.beta is not cfg.beta
            for t in genabled
            for tr in by_tid[t]
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
    program: Program, cfg: Config, sleep: FrozenSet
) -> List[Tuple[Transition, FrozenSet]]:
    """The DPOR expansion of a closed configuration under ``sleep``.

    Returns ``[(transition, child_sleep)]`` — empty exactly when the
    configuration has no successors at all.  ``sleep`` holds thread
    ids; a thread sleeps at a child when *all* of its enabled
    transitions here are independent (strong or canonical) of the edge
    taken, inherited from the parent sleep plus the already-expanded
    earlier siblings.
    """
    succs = reduced_successors(program, cfg)
    if not succs:
        return []
    by_tid: Dict[str, List[Transition]] = {}
    for tr in succs:
        by_tid.setdefault(tr.tid, []).append(tr)
    if any(tr.action is None for tr in succs):
        # A cut-off ε macro-edge defeats the footprint analysis (the
        # silent chain may re-enter any code): full expansion.
        selected, proper = frozenset(by_tid), False
    else:
        selected, proper = _select_persistent(program, cfg, by_tid)

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
            return [(tr, frozenset()) for tr in succs]
    if blocked and _metrics._ACTIVE is not None:
        _metrics._ACTIVE.inc(
            "reduce.dpor.sleep_blocked",
            sum(len(by_tid[t]) for t in blocked),
        )

    # Sleep candidates must be enabled here: independence is only
    # defined on enabled transitions, and a disabled thread may wake
    # into different behaviour.
    inherited = [u for u in sorted(sleep) if u in by_tid]
    out: List[Tuple[Transition, FrozenSet]] = []
    for i, t in enumerate(expand):
        candidates = inherited + expand[:i]
        for tr in by_tid[t]:
            child = frozenset(
                u
                for u in candidates
                if u != t
                and all(independence(utr, tr) != DEPENDENT for utr in by_tid[u])
            )
            out.append((tr, child))
    return out


def _dpor_plain_successors(program: Program, cfg: Config) -> List[Transition]:
    """``successors``-signature wrapper: the empty-sleep expansion —
    persistent selection only, used by consumers that don't thread
    sleep sets (witness re-derivation)."""
    return [tr for tr, _sleep in dpor_successors(program, cfg, frozenset())]


DPOR_STRATEGY = ReductionStrategy(
    name="dpor",
    fingerprint_token="dpor-1",
    successors=_dpor_plain_successors,
    normalise_initial=close_config,
    closure_expansion=True,
    supports_witness_reexpansion=True,
    requires_canonical=True,
    sleep_expand=dpor_successors,
    metric_names=(
        "reduce.epsilon_fused",
        "reduce.covering_pruned",
        "reduce.dpor.sleep_blocked",
        "reduce.dpor.persistent_expanded",
        "reduce.dpor.static_disjoint",
    ),
)
