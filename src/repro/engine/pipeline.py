"""Pipelined sharded exploration: persistent shard-owned workers.

The engine's one multiprocess path (see
:class:`repro.engine.core.ExplorationEngine` for when it runs instead
of the sequential loop).  States are assigned to workers by a 16-byte
*stable digest* of their canonical encoding
(:func:`repro.engine.fingerprint.stable_digest` of
:func:`repro.semantics.canon.canonical_encoding` — the structural form
of the key, not the interned :func:`~repro.semantics.canon.canonical_key`,
whose ids each process assigns for itself; ``PYTHONHASHSEED``-independent,
so dedup is consistent across processes under both fork and spawn):

* **Workers own their shard.**  Each of the ``workers`` persistent
  processes holds the visited set, frontier, configuration fragment,
  parent fragment and edge fragment for the states whose stable digest
  maps to its shard.  A worker expands its local frontier continuously
  — no rounds, no barrier — and a successor that lands in its own shard
  is admitted *in place*: it never leaves the process and never meets
  the codec at all.
* **Only cross-shard successors travel**, as batches of
  ``(digest, configuration)`` pairs encoded *together* in the compact
  codec wire format (:mod:`repro.memory.codec`) per batch.  Batch-level
  encoding matters: successor configurations share most of their
  substructure (ops sets, actions, view maps, continuations), so one
  pickle memo serialises the shared part once.  The discovering worker
  also keeps a forwarded-digest filter, so each remote state is shipped
  at most once per discovering shard.
* **Batches move over shared-memory rings** (:mod:`repro.engine.shm`):
  one SPSC ring per directed worker pair, the discovering worker
  encoding each batch *directly into the owner's mapped ring memory*
  and the owner decoding it from that same memory — no intermediate
  ``bytes`` object and no master hop.
* **The master is a control plane, nothing else.**  It only seeds the
  first configuration (over the owner's control queue), collects
  errors and detects quiescence: each worker's idle report carries its
  cumulative per-ring ``(sent, consumed)`` counter vectors, and the
  exploration is complete when every worker's *latest* report is idle
  and every directed ring's sent count equals its consumed count (plus
  every seeded control message is consumed).  FIFO rings make this
  sound — a worker flushes before it reports, so any in-flight batch
  shows up as a counter mismatch in the freshest report pair, and a
  worker that consumed anything after its last report will report
  again.  The one subtlety: a blocked flush drains inbound rings (the
  ``on_wait`` anti-deadlock hook), which can refill the frontier
  *during* ``flush_all`` — the worker must re-check the frontier after
  flushing and withhold its idle report if so, else the master would
  see matched counters while unexpanded states hide in a local
  frontier.  The master never unpickles a configuration.
* **Early stop is a worker-side broadcast.**  ``on_config`` runs in the
  owning worker at expansion (exactly the sequential loop's cadence); a
  truthy return sends one ``hit`` message and the master broadcasts
  ``finish``.  The callback must therefore be a *pure predicate* —
  worker-side mutations don't propagate — which is the
  ``reachable``/``assert_invariant`` shape.  Stateful callbacks
  (:meth:`~repro.engine.core.ExplorationEngine.find_witness`) run on
  the sequential path.
* **``max_states`` becomes per-shard budgets** summing exactly to the
  cap.  A worker that exhausts its budget reports ``trunc`` and the
  master broadcasts ``finish`` promptly.  Digest sharding is balanced,
  so a non-truncated run can only differ from sequential when the space
  is within a shard-imbalance factor of the cap; truncated results are
  lower bounds either way — the documented contract.

At ``finish`` every worker ships its result fragment (configurations as
objects — their shared substructure survives the one fragment pickle —
plus terminal/stuck digests, parents, edges and counts) and the master
merges fragments into one :class:`~repro.engine.result.ExploreResult`,
keyed by digests.  On non-truncated, non-stopped runs the merged result
is bit-identical to sequential BFS in every representation-independent
observable: ownership partitions the state space, each state is
expanded exactly once by its owner, and visited-set exploration is
order-insensitive.

Parent edges record *a* first-discovery path, valid for witness replay
but not necessarily shortest (expansion order is shard-local, not
level-global).

Each call builds its own worker set (workers are initialised with the
program, so they are per-exploration by construction).  Under fork that
costs milliseconds; under spawn, many small explorations through one
multi-worker engine pay a per-call re-import — prefer ``workers=1`` for
small state spaces.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
import traceback
from collections import deque
from queue import Empty
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.engine.fingerprint import stable_digest
from repro.engine.result import ExploreResult
from repro.obs.metrics import Metrics, activate, collecting as _collecting

if TYPE_CHECKING:
    from repro.lang.program import Program
    from repro.semantics.config import Config

#: Cross-shard batches are published once this many targets have
#: accumulated for one destination (or whenever the local frontier
#: drains — small spaces never wait).
FLUSH_TARGETS = 64

#: Expansions between opportunistic (non-blocking) inbox drains, which
#: keep incoming work and ``finish`` broadcasts flowing mid-burst.
POLL_EVERY = 32

#: Master receive timeout (seconds) between liveness checks on the
#: worker processes — only reached when the pipeline is wedged.
_MASTER_POLL = 2.0

#: Expansions between ``stat`` progress reports to the master.  Only
#: sent when a live progress reporter is attached (``report_stats``),
#: so the steady-state message traffic is untouched when telemetry is
#: off or the output is not a terminal.
_STAT_EVERY = 1024

#: Timeout (seconds) on a worker's idle wait — the
#: worker re-drains its rings and control queue at least this often, so
#: a missed event wakeup costs at most one timeout.
_IDLE_WAIT = 0.05


def _pool_context():
    """Prefer fork (cheap, no re-import) where available."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def _shard_of(digest: bytes, workers: int) -> int:
    """Deterministic shard assignment from the key digest."""
    return int.from_bytes(digest[:8], "big") % workers


def pipeline_usable(on_config) -> bool:
    """Whether the pipeline can take this ``on_config`` here.

    Workers receive their arguments by fork inheritance where fork is
    available (closures welcome); under a spawn-only start method every
    argument crosses a pickle boundary, so an unpicklable ``on_config``
    (the common closure case) sends the exploration down the sequential
    path instead.  The probe pickles at ``HIGHEST_PROTOCOL``, matching
    how ``spawn`` actually ships process arguments.
    """
    if on_config is None:
        return True
    if _pool_context().get_start_method() == "fork":
        return True
    try:
        pickle.dumps(on_config, pickle.HIGHEST_PROTOCOL)
        return True
    except Exception:
        return False


def _budgets(max_states: int, workers: int) -> List[int]:
    """Per-shard admission budgets summing exactly to ``max_states``."""
    base, extra = divmod(max_states, workers)
    return [base + (1 if w < extra else 0) for w in range(workers)]


def encoding_function(
    program: "Program", canonicalise: bool
) -> Callable[["Config"], Tuple]:
    """State identity in process-independent form, for the shard and
    initial digests: the structural canonical encoding (or the raw key
    when ``canonicalise`` is off)."""
    if canonicalise:
        from repro.semantics.canon import canonical_encoding

        return lambda cfg: canonical_encoding(program, cfg)
    from repro.engine.core import _raw_key

    return _raw_key


def _worker_main(
    wid: int,
    workers: int,
    inbox,
    out,
    program: "Program",
    canonicalise: bool,
    check_invariants: bool,
    collect_edges: bool,
    reduction: str,
    track_parents: bool,
    keep_configs: bool,
    on_config: Optional[Callable[["Config"], Optional[bool]]],
    budget: int,
    exchange,
    collect_metrics: bool = False,
    report_stats: bool = False,
) -> None:
    """One shard-owning worker: the whole exploration loop for shard
    ``wid``, from first admission to result fragment.

    Protocol (all worker→master messages share one FIFO queue):

    * in, control queue: ``("work", batch)`` — admit the seed batch
      (a list of ``(digest, config)`` or ``(digest, config,
      parent_edge)`` tuples); ``("finish",)`` — ship the result
      fragment and exit.  Cross-shard batches arrive over the inbound
      rings of ``exchange`` (the run's
      :class:`repro.engine.shm.ShmExchange`), never the queue.
    * out: ``("idle", wid, (sent, received, consumed))`` — local
      frontier drained and buffers flushed, with the cumulative
      per-destination publish counts, per-source ring consumption
      counts and control-queue consumption — the master's quiescence
      evidence; re-sent only when those counters changed since the last
      report; ``("stat", wid, states)`` — periodic progress sample,
      only under ``report_stats``; ``("hit", wid)`` / ``("trunc",
      wid)`` — request a stop broadcast; ``("done", wid, fragment)`` /
      ``("error", wid, pickled exception, traceback)``.

    The worker waits on its single inbound data event instead of a
    blocking queue get, and — crucially — keeps draining its rings even
    when halted or out of budget, so a producer blocked on a full ring
    is never deadlocked by a consumer that no longer wants the data
    (consumption just counts and discards once the budget or a hit
    closed admission).

    ``collect_metrics`` activates a private :class:`Metrics` for the
    worker's lifetime (capturing the reduction layer's counters plus
    shard/batch/ring counts); its snapshot ships inside the ``done``
    fragment under ``"metrics"`` for the master to merge.  When
    ``REPRO_PROFILE=FILE`` is set the worker runs under
    :mod:`cProfile` and dumps its stats to ``FILE.w<wid>`` on exit
    (merged master-side into ``FILE``).
    """
    profile_to = os.environ.get("REPRO_PROFILE")
    prof = None
    if profile_to:
        import cProfile

        prof = cProfile.Profile()
        prof.enable()
    try:
        import gc

        from repro.engine.core import successor_function
        from repro.engine.shm import ProducerStopped

        # A shard-owning worker accumulates an ever-growing heap of
        # *immutable, acyclic* semantic structures (configs, ops, view
        # maps) that can never become cyclic garbage — but CPython's
        # generational collector rescans that heap over and over as it
        # grows, which profiling shows costing more than a third of the
        # exploration on ≥50k-state shards.  Automatic collection is
        # disabled for the worker's (bounded, process-exit-reclaimed)
        # lifetime; refcounting still frees everything non-cyclic.
        gc.disable()

        keyf = encoding_function(program, canonicalise)
        successors = successor_function(reduction)

        # Worker processes own their collector for their whole lifetime
        # — activated once, never restored (the process exits after the
        # fragment ships).
        m = Metrics() if collect_metrics else None
        if m is not None:
            activate(m)

        visited: set = set()
        frontier: deque = deque()
        configs: Dict[bytes, "Config"] = {}  # owned states (or sinks only)
        terminal_keys: List[bytes] = []
        stuck_keys: List[bytes] = []
        parents: Optional[Dict[bytes, Optional[Tuple]]] = (
            {} if track_parents else None
        )
        edges: Optional[Dict[bytes, List]] = {} if collect_edges else None
        edge_count = 0
        truncated = False
        halted = False  # on_config hit: stop expanding, await finish
        finishing = False
        consumed = 0
        stat_countdown = _STAT_EVERY
        forwarded: set = set()  # remote digests already shipped once
        bufs: Dict[int, List] = {d: [] for d in range(workers) if d != wid}

        exchange.attach()
        out_rings = exchange.out_rings(wid)
        in_rings = exchange.in_rings(wid)
        data_event = exchange.data_events[wid]
        stopping = exchange.stop_event.is_set
        sent = [0] * workers  # cumulative batches published per dst
        received = [0] * workers  # cumulative batches drained per src
        last_report = None

        def admit(digest: bytes, payload, parent_edge) -> None:
            nonlocal truncated
            if digest in visited or halted:
                return
            if len(visited) >= budget:
                if not truncated:
                    truncated = True
                    out.put(("trunc", wid))
                return
            visited.add(digest)
            if track_parents:
                parents[digest] = parent_edge
            frontier.append((digest, payload))

        def admit_batch(batch: List) -> None:
            # One batch decode: the shared substructure of the batch's
            # configurations is reconstructed (and interned) once, not
            # per state.
            if track_parents:
                for digest, cfg, parent_edge in batch:
                    admit(digest, cfg, parent_edge)
            else:
                for digest, cfg in batch:
                    admit(digest, cfg, None)

        def handle(msg) -> None:
            nonlocal consumed, finishing
            if msg[0] == "work":
                consumed += 1
                admit_batch(msg[1])
            else:  # "finish"
                finishing = True

        def drain_rings() -> int:
            got = 0
            for src, ring in in_rings:
                n = ring.drain(admit_batch)
                if n:
                    received[src] += n
                    got += n
            return got

        def flush(dst: int, buf: List) -> None:
            ring = out_rings[dst]
            try:
                # on_wait=drain_rings: while blocked on a full peer
                # ring, keep consuming our own inbound rings so two
                # mutually-publishing workers can't deadlock.
                wire, frames, copies, waits = ring.publish(
                    buf, stop=stopping, on_wait=drain_rings
                )
            except ProducerStopped:
                # The run is shutting down and the owner stopped
                # draining: drop the batch (counts are lower bounds
                # on stopped/truncated runs by contract).
                bufs[dst] = []
                return
            sent[dst] += 1
            if m is not None:
                m.inc("pipeline.batches")
                m.inc("shm.ring.frames", frames)
                m.inc("shm.ring.bytes", wire)
                if waits:
                    m.inc("shm.ring.full_waits", waits)
                if copies:
                    m.inc("pipeline.batch_copies", copies)
                m.gauge_max(f"shm.ring.{wid}.{dst}.occupancy", ring.used())
            bufs[dst] = []

        def flush_all() -> None:
            for dst, buf in bufs.items():
                if buf:
                    flush(dst, buf)

        while not finishing:
            while True:  # opportunistic inbox drain
                try:
                    msg = inbox.get_nowait()
                except Empty:
                    break
                handle(msg)
            if not finishing:
                drain_rings()
            if finishing:
                break
            if not frontier or halted or truncated:
                # Nothing (more) to expand: flush, report, block.
                flush_all()
                if frontier and not (halted or truncated):
                    # flush_all's on_wait drain refilled the frontier:
                    # this worker is not idle.  Reporting now would hand
                    # the master a fully-matched counter matrix (the
                    # drains are counted) while unexpanded states hide
                    # in the local frontier — a false quiescence that
                    # drops states.
                    continue
                report = (tuple(sent), tuple(received), consumed)
                if report != last_report:
                    out.put(("idle", wid, report))
                    last_report = report
                # Clear-then-recheck-then-wait: a producer (or the
                # master posting a control message) sets the event
                # after publishing, so anything that arrived after the
                # clear either shows up in the drain below or re-sets
                # the event and cuts the wait short.  The timeout
                # bounds the one remaining (benign) race.
                data_event.clear()
                got = drain_rings()
                try:
                    handle(inbox.get_nowait())
                except Empty:
                    if not got:
                        data_event.wait(_IDLE_WAIT)
                continue
            if m is not None:
                # Sampled once per burst: the high-water mark of this
                # shard's local queue (merged by max across shards).
                m.gauge_max("explore.frontier_peak", len(frontier))
            if report_stats:
                stat_countdown -= POLL_EVERY
                if stat_countdown <= 0:
                    stat_countdown = _STAT_EVERY
                    out.put(("stat", wid, len(visited)))
            for _ in range(POLL_EVERY):
                if not frontier or halted or truncated:
                    break
                digest, cfg = frontier.popleft()
                if keep_configs:
                    configs[digest] = cfg
                if check_invariants:
                    cfg.gamma.check_invariants(program.tids)
                    cfg.beta.check_invariants(program.tids)
                if on_config is not None and on_config(cfg):
                    halted = True
                    out.put(("hit", wid))
                    break
                succs = successors(program, cfg)
                edge_count += len(succs)
                labels = [] if collect_edges else None
                if not succs:
                    (terminal_keys if cfg.is_terminal() else stuck_keys
                     ).append(digest)
                    if not keep_configs:
                        configs[digest] = cfg  # sinks only: verdict input
                if collect_edges:
                    edges[digest] = labels
                key_digests: Dict[Tuple, bytes] = {}  # per-expansion dedup
                for tr in succs:
                    key = keyf(tr.target)
                    tdigest = key_digests.get(key)
                    fresh = tdigest is None
                    if fresh:
                        tdigest = stable_digest(key)
                        key_digests[key] = tdigest
                    if collect_edges:
                        labels.append(
                            (tr.tid, tr.component, tr.action, tdigest)
                        )
                    if not fresh:
                        continue
                    dst = _shard_of(tdigest, workers)
                    if dst == wid:
                        admit(
                            tdigest,
                            tr.target,
                            (digest, tr.tid, tr.component, tr.action)
                            if track_parents
                            else None,
                        )
                    elif tdigest not in forwarded:
                        forwarded.add(tdigest)
                        buf = bufs[dst]
                        buf.append(
                            (
                                tdigest,
                                tr.target,
                                (digest, tr.tid, tr.component, tr.action),
                            )
                            if track_parents
                            else (tdigest, tr.target)
                        )
                        if len(buf) >= FLUSH_TARGETS:
                            flush(dst, buf)

        if m is not None:
            # The fragment carries this shard's share of the global
            # counter schema; the master merges fragments, so it must
            # not add states/edges again itself.
            m.inc("explore.states", len(visited))
            m.inc("explore.edges", edge_count)
            m.inc(f"shard.{wid}.states", len(visited))
        out.put(
            (
                "done",
                wid,
                {
                    "visited": len(visited),
                    "edge_count": edge_count,
                    "truncated": truncated,
                    "configs": configs,
                    "terminal_keys": terminal_keys,
                    "stuck_keys": stuck_keys,
                    "parents": parents,
                    "edges": edges,
                    "metrics": m.snapshot() if m is not None else None,
                },
            )
        )
    except Exception as exc:
        # Ship the exception itself where possible so the master can
        # re-raise the original type (check_invariants assertions,
        # predicate errors — matching the sequential loop); the
        # formatted traceback rides along for unpicklable ones.
        try:
            blob = pickle.dumps(exc, pickle.HIGHEST_PROTOCOL)
        except Exception:
            blob = None
        out.put(("error", wid, blob, traceback.format_exc()))
    finally:
        if prof is not None:
            prof.disable()
            try:
                prof.dump_stats(f"{profile_to}.w{wid}")
            except Exception:
                pass  # profiling must never take a worker down


def explore_pipeline(
    program: "Program",
    workers: int,
    max_states: int,
    collect_edges: bool = False,
    canonicalise: bool = True,
    check_invariants: bool = False,
    on_config: Optional[Callable[["Config"], Optional[bool]]] = None,
    reduction: str = "off",
    keep_configs: bool = True,
    track_parents: bool = False,
    metrics: Optional[Metrics] = None,
    progress=None,
    trace=None,
) -> ExploreResult:
    """Explore ``program`` with ``workers >= 2`` persistent
    shard-owning processes (see the module docstring).  Reached via
    :meth:`repro.engine.core.ExplorationEngine.explore`, which runs the
    sequential loop instead wherever this path cannot.

    ``keep_configs=False`` is the summary path: per-state payloads are
    dropped once expanded (the visited set needs only digests), and
    only terminal/stuck configurations — what a verdict actually
    consumes — are kept.  The result's ``configs`` map then holds just
    those, with ``state_total`` carrying the true visited count.

    ``track_parents`` records each state's first-discovery edge as
    ``parents[digest] = (parent digest, tid, component, action)`` —
    16-byte digests plus an edge label, never configurations.

    ``metrics``/``progress``/``trace`` are the observability sinks
    (:mod:`repro.obs`), all defaulting to None (off).  Worker metric
    fragments ride home inside the ``done`` messages and merge
    master-side; progress is fed by the workers' opt-in ``stat``
    samples; ``trace`` gains one ``explore.drain`` event per worker
    idle report.
    """
    from repro.engine.shm import ShmExchange
    from repro.semantics.config import initial_config
    from repro.semantics.reduce import get_strategy

    if collect_edges:
        # Edge consumers address states by digest: the full map is the
        # point of the exploration, so the summary path is off the table.
        keep_configs = True

    strat = get_strategy(reduction)
    if not strat.pipeline_safe:
        # Streaming shards never re-visit a state, so policies that need
        # the sleep-shrink re-expansion protocol (dpor) have no sound
        # home here; the engine routes them to the sequential loop.
        raise ValueError(
            f"reduction {reduction!r} is not supported on the pipeline "
            "(cross-shard sleep-set exchange is not implemented); "
            "explore it sequentially"
        )
    if strat.requires_canonical and not canonicalise:
        raise ValueError(
            f"reduction {reduction!r} is only sound under canonical state "
            "keys; canonicalise=False is not supported"
        )

    start = time.perf_counter()
    keyf = encoding_function(program, canonicalise)
    with _collecting(metrics):
        # Master-side, so the initial configuration's ε-closure fusions
        # are counted exactly once, as in the sequential loop.
        init = strat.normalise_initial(program, initial_config(program))
    init_key = stable_digest(keyf(init))

    ctx = _pool_context()
    exchange = ShmExchange(workers, ctx)
    inboxes = [ctx.Queue() for _ in range(workers)]
    out = ctx.Queue()
    budgets = _budgets(max_states, workers)
    procs = [
        ctx.Process(
            target=_worker_main,
            args=(
                w, workers, inboxes[w], out, program, canonicalise,
                check_invariants, collect_edges, reduction, track_parents,
                keep_configs, on_config, budgets[w], exchange,
                metrics is not None,
                progress is not None and progress.enabled,
            ),
            daemon=True,
        )
        for w in range(workers)
    ]
    for p in procs:
        p.start()

    sent = [0] * workers  # control-queue "work" messages per worker
    idle = [False] * workers
    reports: List[Optional[Tuple]] = [None] * workers  # latest counters
    owner = _shard_of(init_key, workers)
    first = (init_key, init, None) if track_parents else (init_key, init)
    inboxes[owner].put(("work", [first]))
    sent[owner] += 1
    exchange.wake(owner)

    stopped = False
    truncated = False
    finishing = False
    fragments: Dict[int, dict] = {}
    stat_tally: Dict[int, int] = {}  # latest per-worker stat samples

    def broadcast_finish() -> None:
        for q in inboxes:
            q.put(("finish",))
        # Unblock everyone: idle workers waiting on their data event,
        # and producers blocked on a full ring whose consumer already
        # stopped draining (their batch is dropped — sound, because a
        # finish broadcast before quiescence already marks the counts
        # as lower bounds).
        exchange.stop_event.set()
        exchange.wake_all()

    def quiescent() -> bool:
        """All workers idle, every seeded control message consumed and
        every directed ring's publish count matched by the consumer's
        drain count — across the *latest* report of each worker.  FIFO
        rings + cumulative counters make a false positive impossible: a
        worker only publishes after its report if it consumed something
        after its report, which its next report (mandatory, since its
        counters changed) exposes — provided idle reports are withheld
        while a frontier refilled by an ``on_wait`` drain is pending
        (see the worker loop)."""
        if not all(idle):
            return False
        for w in range(workers):
            if reports[w][2] != sent[w]:
                return False
        for s in range(workers):
            row = reports[s][0]
            for d in range(workers):
                if s != d and row[d] != reports[d][1][s]:
                    return False
        return True

    try:
        while len(fragments) < workers:
            try:
                msg = out.get(timeout=_MASTER_POLL)
            except Empty:
                dead = [
                    w
                    for w, p in enumerate(procs)
                    if not p.is_alive() and w not in fragments
                ]
                if dead:
                    raise RuntimeError(
                        f"pipeline worker(s) {dead} exited without a "
                        "result fragment"
                    )
                continue
            kind = msg[0]
            if kind == "idle":
                wid = msg[1]
                idle[wid] = True
                reports[wid] = msg[2]
                if trace is not None:
                    trace.emit(
                        "explore.drain", worker=wid, consumed=msg[2][2]
                    )
                if not finishing and quiescent():
                    finishing = True
                    broadcast_finish()
            elif kind == "stat":
                stat_tally[msg[1]] = msg[2]
                if progress is not None:
                    progress.update(
                        sum(stat_tally.values()),
                        shards=[
                            stat_tally.get(w, 0) for w in range(workers)
                        ],
                        force=True,
                    )
            elif kind == "hit":
                stopped = True
                if not finishing:
                    finishing = True
                    broadcast_finish()
            elif kind == "trunc":
                truncated = True
                if not finishing:
                    finishing = True
                    broadcast_finish()
            elif kind == "done":
                fragments[msg[1]] = msg[2]
            else:  # ("error", wid, pickled exception or None, traceback)
                _wid, blob, tb = msg[1], msg[2], msg[3]
                exc = None
                if blob is not None:
                    try:
                        exc = pickle.loads(blob)
                    except Exception:
                        exc = None
                if isinstance(exc, BaseException):
                    exc.add_note(f"(raised in pipeline worker {_wid})\n{tb}")
                    raise exc
                raise RuntimeError(
                    f"pipeline worker {_wid} failed:\n{tb}"
                )
    except BaseException:
        exchange.stop_event.set()
        exchange.wake_all()
        for p in procs:
            p.terminate()
        raise
    finally:
        for p in procs:
            p.join()
        # The master owns the slab's lifecycle: unmap and unlink now
        # that every worker has exited (their mappings die with their
        # processes) — no segment survives the run, even an unclean
        # one.
        exchange.cleanup()

    profile_to = os.environ.get("REPRO_PROFILE")
    if profile_to:
        # Merge the per-worker dumps (FILE.w<wid>) into one FILE so the
        # profile reads like the sequential loop's, regardless of
        # worker count.  Best-effort: a worker killed before its finally
        # block simply contributes nothing.
        import pstats

        parts = [
            f"{profile_to}.w{w}"
            for w in range(workers)
            if os.path.exists(f"{profile_to}.w{w}")
        ]
        if parts:
            try:
                stats = pstats.Stats(parts[0])
                for part in parts[1:]:
                    stats.add(part)
                stats.dump_stats(profile_to)
            except Exception:
                pass  # profiling must never take the run down

    configs: Dict[bytes, "Config"] = {}
    parents: Optional[Dict[bytes, Optional[Tuple]]] = (
        {} if track_parents else None
    )
    edges: Optional[Dict[bytes, List]] = {} if collect_edges else None
    terminal_keys: List[bytes] = []
    stuck_keys: List[bytes] = []
    edge_count = 0
    visited_total = 0
    for wid in range(workers):
        frag = fragments[wid]
        visited_total += frag["visited"]
        edge_count += frag["edge_count"]
        truncated = truncated or frag["truncated"]
        if metrics is not None:
            metrics.merge(frag.get("metrics"))
        configs.update(frag["configs"])
        terminal_keys.extend(frag["terminal_keys"])
        stuck_keys.extend(frag["stuck_keys"])
        if track_parents and frag["parents"]:
            parents.update(frag["parents"])
        if collect_edges and frag["edges"]:
            edges.update(frag["edges"])
    if keep_configs or init_key in configs:
        # Keep the original initial object (`initial is configs[...]`).
        configs[init_key] = init

    elapsed = time.perf_counter() - start
    if metrics is not None:
        metrics.add_time("explore.elapsed", elapsed)
    if progress is not None:
        progress.finish()
    return ExploreResult(
        program=program,
        initial=init,
        initial_key=init_key,
        configs=configs,
        terminals=[configs[d] for d in terminal_keys],
        stuck=[configs[d] for d in stuck_keys],
        edge_count=edge_count,
        truncated=truncated,
        elapsed=elapsed,
        edges=edges,
        stopped=stopped,
        state_total=visited_total,
        parents=parents,
        metrics=metrics.snapshot() if metrics is not None else None,
    )
