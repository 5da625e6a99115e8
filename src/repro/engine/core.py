"""The exploration engine: strategy-driven enumeration behind one API.

This is the subsystem the rest of the framework routes through.  The
sequential loop generalises the original BFS in
:mod:`repro.semantics.explore` (which is now a thin wrapper) with

* pluggable frontier strategies (:mod:`repro.engine.strategy`);
* an early-stop protocol — ``on_config`` may return ``True`` to halt
  exploration as soon as a witness is found;
* prompt truncation — once ``max_states`` is hit the loop bails out
  instead of draining the queue, so the cap also bounds wall-clock time
  (``edge_count``/``terminals`` are lower bounds when ``truncated``).

:class:`ExplorationEngine` bundles a strategy, a reduction policy and
an optional persistent result cache:

* ``engine.explore(program)`` — full :class:`ExploreResult`, computed
  in-process by :func:`explore_sequential`;
* ``engine.run(program)`` — cache-aware :class:`ExploreSummary`: on a
  warm cache a repeated verification performs zero re-explorations.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.engine.result import ExploreResult, ExploreSummary, summarise
from repro.engine.strategy import make_frontier
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

#: Process-wide profiler backing ``REPRO_PROFILE`` (lazily created by
#: :func:`explore_sequential` so stats accumulate across explorations).
_PROFILER = None


def __getattr__(name: str):
    # ``REDUCTIONS`` lives in the policy registry
    # (repro.semantics.reduce), which cannot be imported at module
    # level — see the NOTE above.  PEP 562 keeps the historical
    # ``repro.engine.core.REDUCTIONS`` surface without restating the
    # policy list here.
    if name == "REDUCTIONS":
        from repro.semantics.reduce import REDUCTIONS

        return REDUCTIONS
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _check_analysis(policy: str) -> str:
    # Lazy for symmetry with the reduction registry (and to keep the
    # engine package import-light).
    from repro.analysis import validate_analysis

    return validate_analysis(policy)


def _check_reduction(reduction: str) -> str:
    """Validate a policy spec via the registry's own validator, so the
    accepted set cannot drift from the semantics side (the error
    message lists the registered policies)."""
    from repro.semantics.reduce import validate_reduction

    return validate_reduction(reduction)


def key_function(
    program: "Program", canonicalise: bool
) -> Callable[["Config"], Tuple]:
    """The sequential loop's state-identification function.  Canonical
    keys are process-local (interned ids); compare across processes
    with :func:`~repro.semantics.canon.canonical_encoding` instead."""
    if canonicalise:
        from repro.semantics.canon import canonical_key

        return lambda cfg: canonical_key(program, cfg)
    return _raw_key


def explore_sequential(
    program: "Program",
    max_states: int = DEFAULT_MAX_STATES,
    collect_edges: bool = False,
    canonicalise: bool = True,
    check_invariants: bool = False,
    on_config: Optional[Callable[["Config"], Optional[bool]]] = None,
    strategy="bfs",
    reduction: str = "off",
    track_parents: bool = False,
    metrics: Optional[Metrics] = None,
    progress=None,
) -> ExploreResult:
    """See :func:`_explore_sequential`.  This wrapper adds the optional
    profiling hook: when ``REPRO_PROFILE=FILE`` is set (or ``--profile``
    on the CLI, which sets it), the exploration runs under
    :mod:`cProfile` and the stats are dumped to ``FILE``.  One
    process-wide profiler accumulates across explorations, so after a
    battery (e.g. ``litmus``) ``FILE`` covers every exploration of the
    run, not just the last."""
    import os

    profile_to = os.environ.get("REPRO_PROFILE")
    if profile_to:
        global _PROFILER
        if _PROFILER is None:
            import cProfile

            _PROFILER = cProfile.Profile()
        try:
            return _PROFILER.runcall(
                _explore_sequential, program, max_states, collect_edges,
                canonicalise, check_invariants, on_config, strategy,
                reduction, track_parents, metrics, progress,
            )
        finally:
            _PROFILER.dump_stats(profile_to)
    return _explore_sequential(
        program, max_states, collect_edges, canonicalise, check_invariants,
        on_config, strategy, reduction, track_parents, metrics, progress,
    )


def _explore_sequential(
    program: "Program",
    max_states: int = DEFAULT_MAX_STATES,
    collect_edges: bool = False,
    canonicalise: bool = True,
    check_invariants: bool = False,
    on_config: Optional[Callable[["Config"], Optional[bool]]] = None,
    strategy="bfs",
    reduction: str = "off",
    track_parents: bool = False,
    metrics: Optional[Metrics] = None,
    progress=None,
) -> ExploreResult:
    """Enumerate the reachable configurations of ``program`` in-process.

    ``on_config`` is invoked on every configuration as it is expanded
    (the initial one included); returning a truthy value halts the
    exploration immediately and marks the result ``stopped``.

    ``reduction="closure"`` explores the ε-closed macro-step system
    (:mod:`repro.semantics.reduce`): terminal outcomes, stuck-ness and
    register-level verdicts are preserved, but intermediate silent
    configurations are fused away — they are not stored, counted, or
    passed to ``on_config``/``check_invariants`` — and edges are
    macro-edges labelled with their visible action.
    ``reduction="dpor"`` additionally prunes interleavings of
    independent visible steps (:mod:`repro.semantics.dpor`): sleep sets
    ride the frontier entries, states may be re-expanded when a
    rediscovery shrinks their sleep set, and terminal/stuck outcomes
    (not intermediate state counts) are what is preserved.

    ``track_parents`` records each state's first-discovery edge
    (parent key + ``(tid, component, action)`` label, no extra
    configurations) in ``result.parents`` so a witness can be
    reconstructed from the explored graph afterwards; under the default
    BFS frontier the recorded path is shortest (DFS/swarm record *a*
    discovery path, not a shortest one).

    ``metrics`` (a :class:`repro.obs.metrics.Metrics`) collects the
    engine counter schema — states, edges, frontier peak, elapsed, and
    (installed as the active collector for the duration) the reduction
    layer's fusion/prune counts — and its snapshot lands on
    ``result.metrics``.  ``progress`` (a
    :class:`repro.obs.progress.Progress`) receives rate-limited
    ``update`` calls while the loop runs.  Both default to ``None``,
    which keeps the hot loop's telemetry cost to one boolean test per
    expanded configuration.
    """
    from repro.semantics.config import initial_config
    from repro.semantics.reduce import get_strategy

    strat = get_strategy(reduction)
    if strat.requires_canonical and not canonicalise:
        raise ValueError(
            f"reduction {reduction!r} is only sound under canonical state "
            "keys; canonicalise=False is not supported"
        )
    successors = strat.successors
    sleep_expand = strat.sleep_expand
    start = time.perf_counter()
    with _collecting(metrics):
        init = initial_config(program)
        init = strat.normalise_initial(program, init)
        keyf = key_function(program, canonicalise)

        init_key = keyf(init)
        configs: Dict[Tuple, Config] = {init_key: init}
        parents: Optional[Dict[Tuple, Optional[Tuple]]] = (
            {init_key: None} if track_parents else None
        )
        edges: Optional[Dict[Tuple, List]] = {} if collect_edges else None
        terminals: List[Config] = []
        stuck: List[Config] = []
        edge_count = 0
        truncated = False
        stopped = False
        # One boolean gates all per-iteration telemetry: with no sinks
        # installed the loop pays a single test per expanded state.
        instrumented = metrics is not None or progress is not None
        frontier_peak = 0

        # Sleep-set bookkeeping (only when the strategy threads sleep
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

        # The visible-step memo (repro.semantics.step.successors): one
        # per exploration, keyed by the interned component ids of the
        # canonical keys this loop computes anyway, so it runs only on
        # the plain, canonically keyed relation.
        memo: Optional[Dict] = (
            {} if canonicalise and strat.name == "off" else None
        )

        frontier = make_frontier(strategy)
        frontier.push(init_key, init)
        while frontier:
            key, cfg = frontier.pop()
            if instrumented:
                depth = len(frontier)
                if depth > frontier_peak:
                    frontier_peak = depth
                if progress is not None:
                    progress.update(len(configs))
            if check_invariants:
                cfg.gamma.check_invariants(program.tids)
                cfg.beta.check_invariants(program.tids)
            if on_config is not None and on_config(cfg):
                stopped = True
                break
            if memo is not None:
                succs = successors(program, cfg, memo=memo)
                child_sleeps = None
            elif sleep_expand is None:
                succs = successors(program, cfg)
                child_sleeps = None
            else:
                queued.discard(key)
                expansion = sleep_expand(
                    program, cfg, sleep_of.get(key, _EMPTY_SLEEP)
                )
                succs = [tr for tr, _child in expansion]
                child_sleeps = [child for _tr, child in expansion]
            if collect_edges:
                edges[key] = []
            if not succs:
                if sleep_expand is not None:
                    if key in sunk:
                        continue
                    sunk.add(key)
                if cfg.is_terminal():
                    terminals.append(cfg)
                else:
                    stuck.append(cfg)
                continue
            for i, tr in enumerate(succs):
                edge_count += 1
                tkey = keyf(tr.target)
                if collect_edges:
                    edges[key].append((tr.tid, tr.component, tr.action, tkey))
                if tkey not in configs:
                    if len(configs) >= max_states:
                        truncated = True
                        continue
                    configs[tkey] = tr.target
                    if child_sleeps is not None:
                        sleep_of[tkey] = child_sleeps[i]
                        queued.add(tkey)
                    if track_parents:
                        parents[tkey] = (key, tr.tid, tr.component, tr.action)
                    frontier.push(tkey, tr.target)
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
                                frontier.push(tkey, configs[tkey])
            if truncated:
                # Bail out promptly: the cap bounds work done, not just
                # states recorded.  Counts are lower bounds from here on.
                break

    elapsed = time.perf_counter() - start
    if metrics is not None:
        metrics.inc("explore.states", len(configs))
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


def _raw_key(cfg: Config) -> Tuple:
    """Structural identity without timestamp normalisation (ablation)."""
    return (
        tuple(sorted(cfg.cmds.items(), key=lambda kv: kv[0])),
        tuple(sorted((t, ls.items_sorted()) for t, ls in cfg.locals.items())),
        _raw_state(cfg.gamma),
        _raw_state(cfg.beta),
    )


def _raw_state(state) -> Tuple:
    return (
        state.ops,
        tuple(sorted(state.tview.items(), key=lambda kv: repr(kv[0]))),
        tuple(sorted(state.mview.items(), key=lambda kv: repr(kv[0]))),
        state.cvd,
    )


class ExplorationEngine:
    """A configured exploration engine: strategy × reduction × cache.

    Every exploration runs in-process on the sequential loop
    (:func:`explore_sequential`); results are keyed by canonical keys.

    Parameters
    ----------
    strategy:
        Frontier policy — ``"bfs"`` (default), ``"dfs"``,
        ``"swarm[:seed]"`` or anything
        :func:`repro.engine.strategy.make_frontier` accepts.
    cache:
        Optional :class:`repro.engine.cache.ResultCache`; when set,
        :meth:`run` serves repeated explorations from disk.
    max_states:
        Default safety cap, overridable per call.
    reduction:
        State-space reduction policy, one of
        :data:`repro.semantics.reduce.REDUCTIONS` — ``"off"`` (default,
        the historical semantics), ``"closure"`` (ε-closure +
        covering-read prune, :mod:`repro.semantics.reduce`) or
        ``"dpor"`` (sleep-set + persistent-set partial-order reduction
        on top of the closure, :mod:`repro.semantics.dpor`; requires
        canonical keys) — overridable per call.  The policy's
        fingerprint token is part of the persistent-cache key:
        explorations under different policies are cached separately
        because they store different configuration sets.
    metrics:
        Optional :class:`repro.obs.metrics.Metrics` sink.  When set (or
        when ``trace`` is), every exploration collects the engine
        counter schema into a fresh per-run registry whose snapshot
        lands on ``ExploreResult.metrics``; the per-run registry is then
        folded into this engine-level sink, which accumulates across
        explorations (plus the ``cache.hits``/``cache.misses`` outcomes
        of :meth:`run`).  ``None`` (default) keeps telemetry off the
        hot paths entirely.
    trace:
        Optional :class:`repro.obs.trace.TraceWriter`.  When set, the
        engine emits ``explore.start``/``explore.finish`` span events,
        a ``metrics.sample`` per exploration and ``explore.cached`` for
        cache-served :meth:`run` calls.
    progress:
        Optional :class:`repro.obs.progress.Progress` heartbeat,
        updated while explorations run and erased when they finish.
    analysis:
        Static-analysis policy applied to every program before it is
        explored, one of :data:`repro.analysis.ANALYSIS_POLICIES` —
        ``"off"`` (default: skip the passes entirely), ``"warn"`` (log
        findings on the ``repro.analysis`` logger and count them in the
        run metrics) or ``"strict"`` (additionally refuse to explore a
        program with error-severity findings, raising
        :class:`~repro.util.errors.VerificationError`).  Overridable
        per :meth:`explore` call; when a trace writer is attached an
        ``analysis.report`` event is emitted per analysed program.
    """

    def __init__(
        self,
        strategy="bfs",
        cache=None,
        max_states: int = DEFAULT_MAX_STATES,
        reduction: str = "off",
        metrics: Optional[Metrics] = None,
        trace=None,
        progress=None,
        analysis: str = "off",
    ) -> None:
        make_frontier(strategy)  # fail fast on a bad spec
        self.strategy = strategy
        self.cache = cache
        self.max_states = max_states
        self.reduction = _check_reduction(reduction)
        self.analysis = _check_analysis(analysis)
        self.metrics = metrics
        self.trace = trace
        self.progress = progress
        #: Number of live (non-cached) explorations this engine ran.
        self.explorations = 0

    def __repr__(self) -> str:
        return (
            f"ExplorationEngine(strategy={self.strategy!r}, "
            f"cache={'on' if self.cache else 'off'}, "
            f"reduction={self.reduction!r})"
        )

    # -- full exploration ---------------------------------------------------
    def explore(
        self,
        program: Program,
        max_states: Optional[int] = None,
        collect_edges: bool = False,
        canonicalise: bool = True,
        check_invariants: bool = False,
        on_config: Optional[Callable[[Config], Optional[bool]]] = None,
        reduction: Optional[str] = None,
        keep_configs: bool = True,
        track_parents: bool = False,
        analysis: Optional[str] = None,
    ) -> ExploreResult:
        """Run one exploration, honouring this engine's configuration.

        ``reduction`` overrides the engine's policy for this call —
        checkers that consume the un-fused transition graph (refinement,
        Owicki–Gries) pass ``reduction="off"`` explicitly.
        ``analysis`` likewise overrides the engine's static-analysis
        policy for this call.
        ``keep_configs`` has no effect on the in-process loop, which
        keys its visited set by configuration and always returns the
        full map; it is accepted so existing callers keep working.
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
        policy = (
            self.analysis if analysis is None else _check_analysis(analysis)
        )
        if policy != "off":
            try:
                self._run_analysis(program, policy, run_metrics)
            except Exception:
                # A strict refusal still leaves its counters behind.
                if self.metrics is not None and run_metrics is not None:
                    self.metrics.merge(run_metrics)
                raise
        if self.trace is not None:
            self.trace.emit("explore.start", reduction=mode, max_states=cap)
        result = explore_sequential(
            program,
            max_states=cap,
            collect_edges=collect_edges,
            canonicalise=canonicalise,
            check_invariants=check_invariants,
            on_config=on_config,
            strategy=self.strategy,
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

    # -- static analysis ----------------------------------------------------
    def _run_analysis(
        self, program: Program, policy: str, run_metrics: Optional[Metrics]
    ):
        """Run the static passes under ``policy`` (``"warn"`` or
        ``"strict"``); returns the report, raising under ``"strict"``
        when it contains error-severity findings."""
        import logging

        from repro.analysis import analyse_program

        report = analyse_program(program)
        errors, warnings = report.errors, report.warnings
        if run_metrics is not None:
            run_metrics.inc("analysis.runs")
            if errors:
                run_metrics.inc("analysis.errors", len(errors))
            if warnings:
                run_metrics.inc("analysis.warnings", len(warnings))
        if self.trace is not None:
            self.trace.emit(
                "analysis.report",
                policy=policy,
                errors=len(errors),
                warnings=len(warnings),
            )
        if report.diagnostics:
            logger = logging.getLogger("repro.analysis")
            for diag in report.diagnostics:
                level = (
                    logging.ERROR
                    if diag.severity == "error"
                    else logging.WARNING
                )
                logger.log(level, "%s", diag.format())
        if policy == "strict" and errors:
            from repro.util.errors import VerificationError

            raise VerificationError(
                "static analysis found "
                f"{len(errors)} error(s) under analysis='strict':\n"
                + "\n".join(d.format() for d in errors)
            )
        return report

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
        of re-exploring.  Under the default BFS strategy the recorded
        parents make the witness shortest; DFS/swarm engines return a
        valid but not necessarily minimal execution.

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
        from repro.semantics.canon import canonical_key
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

            def key_of(cfg: "Config"):
                return canonical_key(program, cfg)

            return reconstruct_witness(
                program,
                result.parents,
                key_of(hits[0]),
                key_of,
                reduction=mode,
            )
        if result.truncated:
            from repro.util.errors import VerificationError

            raise VerificationError(
                f"no witness within the first {result.state_count} states "
                "and the search was truncated, inconclusive — raise "
                "max_states"
            )
        return None

    # -- cache-aware verification -------------------------------------------
    def run(
        self,
        program: Program,
        max_states: Optional[int] = None,
        canonicalise: bool = True,
    ) -> ExploreSummary:
        """Explore (or recall) ``program`` and return the result summary.

        With a cache configured, a warm entry is returned directly —
        zero re-exploration; otherwise the program is explored and the
        summary persisted under its stable fingerprint (which includes
        the engine's reduction policy — state counts differ across
        policies, so their summaries never alias).
        """
        cap = self.max_states if max_states is None else max_states
        key = None
        if self.cache is not None:
            from repro.engine.fingerprint import cache_key

            key = cache_key(
                program,
                max_states=cap,
                canonicalise=canonicalise,
                reduction=self.reduction,
            )
            hit = self.cache.get(key)
            # Truncated summaries depend on visit order (the strategy,
            # which the key deliberately omits because complete results
            # don't) — never serve or store them.
            if hit is not None and not hit.truncated:
                if self.metrics is not None:
                    self.metrics.inc("cache.hits")
                if self.trace is not None:
                    self.trace.emit("explore.cached", key=str(key))
                return hit
            if self.metrics is not None:
                self.metrics.inc("cache.misses")
        summary = summarise(
            self.explore(program, max_states=cap, canonicalise=canonicalise)
        )
        if self.cache is not None and not summary.truncated:
            self.cache.put(key, summary)
        return summary
