"""The exploration engine: breadth-first enumeration behind one API.

This is the subsystem the rest of the framework routes through.  The
sequential loop is the breadth-first search that
:mod:`repro.semantics.explore` re-exports as ``explore``, with

* an early-stop protocol — ``on_config`` may return ``True`` to halt
  exploration as soon as a witness is found;
* prompt truncation — once ``max_states`` is hit the loop bails out
  instead of draining the queue, so the cap also bounds wall-clock time
  (``edge_count``/``terminals`` are lower bounds when ``truncated``).

The visit order cannot change a verdict: the visited set is keyed by
canonical key, so the reachable set is the same in any order.
Breadth-first is kept because it makes recorded witnesses shortest
(see ``track_parents`` below).

:class:`ExplorationEngine` bundles a reduction policy with telemetry
sinks; ``engine.explore(program)`` returns the full
:class:`ExploreResult`, computed in-process by
:func:`explore_sequential`.
"""

from __future__ import annotations

import gc
import time
from collections import deque
from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.engine.result import ExploreResult
from repro.obs.metrics import Metrics, collecting as _collecting

if TYPE_CHECKING:
    from repro.lang.program import Program
    from repro.semantics.config import Config

# NOTE: the semantics modules are imported inside the functions below
# (once per exploration, a sys.modules lookup thereafter).  The engine
# package must stay import-time independent of repro.semantics because
# repro.semantics.explore imports this module: a module-level import in
# either direction deadlocks the package initialisation order.

#: Default safety cap on explored configurations.
DEFAULT_MAX_STATES = 500_000

#: CPython's gen-0 collection threshold while :func:`explore_sequential`
#: runs (the interpreter default is 700); see that function's docstring.
GC_GEN0_THRESHOLD = 50_000


def _check_reduction(reduction: str) -> str:
    """Validate a policy spec through the policy table's one lookup,
    so the accepted set cannot drift from the semantics side (the error
    message lists the policies)."""
    from repro.semantics.reduce import get_strategy

    return get_strategy(reduction).name


@contextmanager
def _gc_policy(metrics: Optional[Metrics]):
    """Raise the gen-0 threshold (never lowering it, never re-enabling
    a caller's ``0``) and, with a sink, time collections into it; the
    caller's threshold triple and ``gc.callbacks`` come back on exit."""
    saved = gc.get_threshold()
    if saved[0]:
        gc.set_threshold(max(saved[0], GC_GEN0_THRESHOLD), *saved[1:])
    hook = _gc_timer(metrics) if metrics is not None else None
    if hook is not None:
        gc.callbacks.append(hook)
    try:
        yield
    finally:
        if hook is not None:
            gc.callbacks.remove(hook)
        gc.set_threshold(*saved)


def _gc_timer(metrics: Metrics) -> Callable[[str, Dict], None]:
    """A ``gc.callbacks`` hook adding each collection's duration to the
    ``explore.gc`` timer and one to ``explore.gc.collections``."""
    clock = time.perf_counter
    started = 0.0

    def hook(phase: str, info: Dict) -> None:
        nonlocal started
        if phase == "start":
            started = clock()
        else:
            metrics.add_time("explore.gc", clock() - started)
            metrics.inc("explore.gc.collections")

    return hook


def explore_sequential(
    program: "Program",
    max_states: int = DEFAULT_MAX_STATES,
    collect_edges: bool = False,
    on_config: Optional[Callable[["Config"], Optional[bool]]] = None,
    reduction: str = "off",
    track_parents: bool = False,
    metrics: Optional[Metrics] = None,
    progress=None,
) -> ExploreResult:
    """Enumerate the reachable configurations of ``program`` in-process,
    breadth-first, identifying configurations by canonical key.

    The loop runs on keys: its frontier and visited set hold canonical
    keys, every policy's successor relation takes a key and returns
    plain edge tuples ``(tid, component, action, target key, γ', β')``
    (:func:`repro.semantics.step.successors`), and no configuration is
    built unless something reads one.  ``result.configs`` is a
    read-only key → configuration mapping in breadth-first admission
    order that builds each entry from its key on first access and
    keeps it (:class:`repro.semantics.config.KeyedConfigs`); the
    initial configuration is the one built field by field, and the
    terminal and stuck configurations are built when the loop ends.

    ``max_states`` is a safety cap: exceeding it marks the result
    ``truncated`` and the loop bails out promptly, so ``edge_count``,
    ``terminals`` and ``stuck`` are lower bounds on a truncated result.
    ``collect_edges`` records the labelled transition graph (the
    refinement and Owicki–Gries checkers read it).

    ``on_config`` is invoked on every configuration as it is expanded
    (the initial one included); returning a truthy value halts the
    exploration immediately and marks the result ``stopped``.

    ``reduction="closure"`` explores the ε-closed macro-step system
    (:mod:`repro.semantics.reduce`): terminal outcomes, stuck-ness and
    register-level verdicts are preserved, but intermediate silent
    configurations are fused away — they are not stored, counted, or
    passed to ``on_config`` — and edges are macro-edges labelled with
    their visible action.
    ``reduction="dpor"`` additionally prunes interleavings of
    independent visible steps (:mod:`repro.semantics.dpor`): sleep sets
    ride the frontier entries, states may be re-expanded when a
    rediscovery shrinks their sleep set, and terminal/stuck outcomes
    (not intermediate state counts) are what is preserved.

    ``track_parents`` records each state's first-discovery edge
    (parent key + ``(tid, component, action)`` label, no extra
    configurations) in ``result.parents`` so a witness can be
    reconstructed from the explored graph afterwards.  Breadth-first
    discovery makes the recorded path shortest under ``off`` and
    shortest in visible steps under ``closure``; under ``dpor`` it is a
    valid path that the persistent sets may lengthen.

    ``metrics`` (a :class:`repro.obs.metrics.Metrics`) collects the
    engine counter schema — states, edges, frontier peak, elapsed, and
    (installed as the active collector for the duration) the reduction
    layer's fusion/prune counts — and its snapshot lands on
    ``result.metrics``.  ``progress`` (a
    :class:`repro.obs.progress.Progress`) receives rate-limited
    ``update`` calls while the loop runs.  Both default to ``None``,
    which keeps the hot loop's telemetry cost to one boolean test per
    expanded configuration.  With a ``metrics`` sink attached, a
    ``gc.callbacks`` hook also times the cyclic collector for the
    length of the loop (``explore.gc`` seconds,
    ``explore.gc.collections``); without one nothing is registered.

    The loop raises CPython's gen-0 collection threshold to
    :data:`GC_GEN0_THRESHOLD` while it runs.  The visited set keeps
    every key it admits, and the memo its states, for the whole
    exploration, so
    at the default threshold (700) the cyclic collector mostly
    re-scans young objects that can never be garbage: on
    ``wide_program(4, reads=3)`` (54k states, a 2-CPU host) it took
    1.35–1.52 s of a 4.1–4.8 s exploration in 1,583 collections.  A sweep put 10k at
    0.52–0.66 s (110 collections), 50k at 0.30–0.34 s (22) and 200k
    at 0.31 s (5), with the same peak RSS in every case; 50k sits at
    the knee.  The caller's setting is never weakened — a higher
    gen-0 threshold is kept, ``0`` (automatic collection off) is left
    untouched, and gen-1/gen-2 are never changed — and the caller's
    exact ``gc.get_threshold()`` triple is restored on every exit:
    normal return, an ``on_config`` stop, truncation or an exception.
    Every exploration in the package runs through this function, so
    this is the one place that touches the collector's settings.  The
    threshold is process-wide state: explorations overlapping in
    several threads of one process could restore it out of order (the
    package starts no such threads).
    """
    from repro.semantics.canon import _interner, canonical_key
    from repro.semantics.config import (
        KeyedConfigs,
        initial_config,
        key_is_terminal,
    )
    from repro.semantics.reduce import get_strategy
    from repro.semantics.step import StepMemo

    strat = get_strategy(reduction)
    successors = strat.successors
    sleep_expand = strat.sleep_expand
    start = time.perf_counter()
    with _collecting(metrics), _gc_policy(metrics):
        init = initial_config(program)
        init = strat.normalise_initial(program, init)
        init_key = canonical_key(program, init)
        rows = _interner(program).rows
        # The visible-step memo (repro.semantics.step.StepMemo): one per
        # exploration under every policy, keyed by the interned
        # component ids of the expanded key.  Its entries carry their
        # successors' ids, so every edge arrives as a plain tuple
        # ``(tid, component, action, target key, γ', β')``.  The loop
        # runs on keys alone: the frontier holds keys, an expansion
        # reads its thread ids off the key and its memory pair off
        # ``memo.pairs`` (one representative pair per component ids,
        # filed when a key with new ids is admitted), and no
        # configuration is built unless something reads one — an
        # ``on_config`` hook, the terminal/stuck lists or an entry of
        # ``result.configs`` (KeyedConfigs builds on first access).
        # After each expansion the memo swaps the states of the steps
        # it stored for those representatives (``settle``).
        memo = StepMemo(program, init)
        pairs = memo.pairs
        # Admitted keys in breadth-first order, each with its built
        # configuration or None; ``configs`` is the read-only view.
        seen: Dict[Tuple, Optional[Config]] = {init_key: init}
        configs = KeyedConfigs(seen, rows, pairs)
        parents: Optional[Dict[Tuple, Optional[Tuple]]] = (
            {init_key: None} if track_parents else None
        )
        edges: Optional[Dict[Tuple, List]] = {} if collect_edges else None
        terminal_keys: List[Tuple] = []
        stuck_keys: List[Tuple] = []
        edge_count = 0
        truncated = False
        stopped = False
        # One boolean gates all per-iteration telemetry: with no sinks
        # installed the loop pays a single test per expanded state.
        instrumented = metrics is not None or progress is not None
        frontier_peak = 0

        # Sleep-set bookkeeping (only when the policy threads sleep
        # sets, e.g. "dpor").  ``sleep_of`` holds the current sleep set
        # per state key; a rediscovery with a smaller intersection
        # re-pushes the state for re-expansion (sets shrink strictly,
        # so the loop terminates).  ``queued`` suppresses duplicate
        # frontier entries; ``sunk`` suppresses re-pushing (and
        # double-counting) successor-free states, which are sinks under
        # any sleep set.
        _EMPTY_SLEEP: frozenset = frozenset()
        sleep_of: Dict[Tuple, frozenset] = {}
        queued: set = set()
        sunk: set = set()

        frontier: deque = deque([init_key])
        push, pop = frontier.append, frontier.popleft
        while frontier:
            key = pop()
            if instrumented:
                depth = len(frontier)
                if depth > frontier_peak:
                    frontier_peak = depth
                if progress is not None:
                    progress.update(len(seen))
            if on_config is not None and on_config(configs[key]):
                stopped = True
                break
            if sleep_expand is None:
                succs = successors(program, key, memo=memo)
                child_sleeps = None
            else:
                queued.discard(key)
                expansion = sleep_expand(
                    program, key, sleep_of.get(key, _EMPTY_SLEEP), memo=memo
                )
                succs = [edge for edge, _child in expansion]
                child_sleeps = [child for _edge, child in expansion]
            if collect_edges:
                recorded = edges[key] = []
            if not succs:
                if sleep_expand is not None:
                    if key in sunk:
                        continue
                    sunk.add(key)
                if key_is_terminal(rows, key):
                    terminal_keys.append(key)
                else:
                    stuck_keys.append(key)
                continue
            edge_count += len(succs)
            for i, (tid, comp, action, tkey, gamma, beta) in enumerate(succs):
                if collect_edges:
                    recorded.append((tid, comp, action, tkey))
                if tkey not in seen:
                    if len(seen) >= max_states:
                        truncated = True
                        continue
                    seen[tkey] = None
                    ids = (tkey[2], tkey[3])
                    if ids not in pairs:
                        pairs[ids] = (gamma, beta)
                    if child_sleeps is not None:
                        sleep_of[tkey] = child_sleeps[i]
                        queued.add(tkey)
                    if track_parents:
                        parents[tkey] = (key, tid, comp, action)
                    push(tkey)
                elif child_sleeps is not None:
                    # Rediscovery: the state is only safely prunable by
                    # what *every* discovery path has already covered —
                    # intersect, and re-expand if that strictly shrank
                    # the stored sleep set.
                    stored = sleep_of.get(tkey, _EMPTY_SLEEP)
                    if stored:
                        inter = stored & child_sleeps[i]
                        if inter != stored:
                            sleep_of[tkey] = inter
                            if tkey not in queued and tkey not in sunk:
                                queued.add(tkey)
                                push(tkey)
            memo.settle()
            if truncated:
                # Bail out promptly: the cap bounds work done, not just
                # states recorded.  Counts are lower bounds from here on.
                break
        # The memo's step table is garbage once the loop ends (its
        # representative pairs live on in ``configs``): free it while
        # the raised threshold holds, so the first collection at the
        # caller's threshold neither counts nor traverses its entries.
        memo = None
        terminals = [configs[k] for k in terminal_keys]
        stuck = [configs[k] for k in stuck_keys]

    elapsed = time.perf_counter() - start
    if metrics is not None:
        metrics.inc("explore.states", len(seen))
        metrics.inc("explore.edges", edge_count)
        metrics.add_time("explore.elapsed", elapsed)
        metrics.gauge_max("explore.frontier_peak", frontier_peak)
    if progress is not None:
        progress.finish()
    return ExploreResult(
        program=program,
        initial=init,
        initial_key=init_key,
        configs=configs,
        terminals=terminals,
        stuck=stuck,
        edge_count=edge_count,
        truncated=truncated,
        elapsed=elapsed,
        edges=edges,
        stopped=stopped,
        parents=parents,
        metrics=metrics.snapshot() if metrics is not None else None,
    )


class ExplorationEngine:
    """A configured exploration engine: a reduction policy plus
    telemetry sinks.

    Every exploration runs in-process on the sequential loop
    (:func:`explore_sequential`); results are keyed by canonical keys.

    Parameters
    ----------
    max_states:
        Default safety cap, overridable per call.
    reduction:
        State-space reduction policy, one of
        :data:`repro.semantics.reduce.REDUCTIONS` — ``"off"`` (default,
        the historical semantics), ``"closure"`` (ε-closure +
        covering-read prune, :mod:`repro.semantics.reduce`) or
        ``"dpor"`` (sleep-set + persistent-set partial-order reduction
        on top of the closure, :mod:`repro.semantics.dpor`) —
        overridable per call.
    metrics:
        Optional :class:`repro.obs.metrics.Metrics` sink.  When set (or
        when ``trace`` is), every exploration collects the engine
        counter schema into a fresh per-run registry whose snapshot
        lands on ``ExploreResult.metrics``; the per-run registry is then
        folded into this engine-level sink, which accumulates across
        explorations.  ``None`` (default) keeps telemetry off the hot
        paths entirely.
    trace:
        Optional :class:`repro.obs.trace.TraceWriter`.  When set, the
        engine emits ``explore.start``/``explore.finish`` span events
        and a ``metrics.sample`` per exploration.
    progress:
        Optional :class:`repro.obs.progress.Progress` heartbeat,
        updated while explorations run and erased when they finish.
    """

    def __init__(
        self,
        max_states: int = DEFAULT_MAX_STATES,
        reduction: str = "off",
        metrics: Optional[Metrics] = None,
        trace=None,
        progress=None,
    ) -> None:
        self.max_states = max_states
        self.reduction = _check_reduction(reduction)
        self.metrics = metrics
        self.trace = trace
        self.progress = progress
        #: Number of explorations this engine ran.
        self.explorations = 0

    def __repr__(self) -> str:
        return f"ExplorationEngine(reduction={self.reduction!r})"

    # -- full exploration ---------------------------------------------------
    def explore(
        self,
        program: Program,
        max_states: Optional[int] = None,
        collect_edges: bool = False,
        on_config: Optional[Callable[[Config], Optional[bool]]] = None,
        reduction: Optional[str] = None,
        keep_configs: bool = True,
        track_parents: bool = False,
    ) -> ExploreResult:
        """Run one exploration, honouring this engine's configuration.

        ``reduction`` overrides the engine's policy for this call —
        checkers that consume the un-fused transition graph (refinement,
        Owicki–Gries) pass ``reduction="off"`` explicitly.
        ``keep_configs`` has no effect: the loop keeps keys, and
        ``result.configs`` builds a configuration only when one is read
        (:func:`explore_sequential`); it is accepted so existing
        callers keep working.
        ``track_parents`` records each state's first-discovery edge in
        ``result.parents`` (see :meth:`find_witness`).
        """
        self.explorations += 1
        cap = self.max_states if max_states is None else max_states
        mode = (
            self.reduction if reduction is None else _check_reduction(reduction)
        )
        # A fresh per-run registry whenever any sink wants data; the
        # engine-level sink accumulates across explorations while
        # result.metrics stays per-run.
        run_metrics = (
            Metrics()
            if (self.metrics is not None or self.trace is not None)
            else None
        )
        if self.trace is not None:
            self.trace.emit("explore.start", reduction=mode, max_states=cap)
        result = explore_sequential(
            program,
            max_states=cap,
            collect_edges=collect_edges,
            on_config=on_config,
            reduction=mode,
            track_parents=track_parents,
            metrics=run_metrics,
            progress=self.progress,
        )
        if self.trace is not None:
            rate = (
                run_metrics.states_per_sec() if run_metrics is not None else 0.0
            )
            self.trace.emit(
                "explore.finish",
                states=result.state_count,
                edges=result.edge_count,
                elapsed=result.elapsed,
                truncated=result.truncated,
                stopped=result.stopped,
                states_per_sec=rate,
            )
            if run_metrics is not None:
                self.trace.emit("metrics.sample", metrics=run_metrics.snapshot())
        if self.metrics is not None and run_metrics is not None:
            self.metrics.merge(run_metrics)
        return result

    # -- counterexample witnesses -------------------------------------------
    def find_witness(
        self,
        program: Program,
        predicate: Callable[["Config"], bool],
        max_states: Optional[int] = None,
        reduction: Optional[str] = None,
        terminal_only: bool = False,
    ):
        """A concrete execution to a configuration satisfying
        ``predicate``, or ``None`` when an exhaustive search proves none
        exists.

        One exploration runs with predecessor tracking — per state a
        parent key plus the ``(tid, component, action)`` edge label, no
        stored configurations — and stops at the first hit; the witness
        is then reconstructed from the recorded graph
        (:func:`repro.semantics.witness.reconstruct_witness`) instead
        of re-exploring.  The search is breadth-first, so the witness is
        shortest as :func:`explore_sequential` describes under
        ``track_parents``.

        ``reduction="closure"`` searches the ε-closed macro-step system
        — typically several times fewer states — and the predicate is
        then evaluated on closed configurations only (sound for
        terminal-state and visible-boundary properties, see
        :func:`repro.semantics.explore.reachable`).  The returned
        witness is nevertheless *step-exact*: every macro-edge is
        re-expanded into its concrete schedule, and every step replays
        through the raw unreduced ``successors`` relation.

        ``terminal_only`` restricts hits to terminal configurations
        (the usual shape for weak-behaviour witnesses).  Raises
        :class:`VerificationError` when the search was truncated by
        ``max_states`` without a hit — inconclusive, not unreachable.
        """
        from repro.semantics.witness import reconstruct_witness

        mode = (
            self.reduction if reduction is None else _check_reduction(reduction)
        )
        hits: list = []

        def probe(cfg: "Config") -> bool:
            if (not terminal_only or cfg.is_terminal()) and predicate(cfg):
                hits.append(cfg)
                return True
            return False

        result = self.explore(
            program,
            max_states,
            on_config=probe,
            reduction=mode,
            track_parents=True,
        )
        if hits:
            return reconstruct_witness(
                program, result.parents, hits[0], reduction=mode
            )
        if result.truncated:
            from repro.util.errors import VerificationError

            raise VerificationError(
                f"no witness within the first {result.state_count} states "
                "and the search was truncated, inconclusive — raise "
                "max_states"
            )
        return None
