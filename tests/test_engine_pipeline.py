"""Parity suite for the engine's two paths at ``workers > 1``.

The sharded pipeline (:mod:`repro.engine.pipeline`) must be
bit-identical to sequential BFS in every representation-independent
observable on non-truncated runs — state and edge counts, terminal
valuations, stuck-existence, litmus verdicts — across the full litmus
catalog and the five abstract-object/lock client programs, at 2 and 4
workers, under every reduction policy, on both the full-map and the
summary (``keep_configs=False``) paths.  Policies the pipeline cannot
run (``dpor``) take the sequential path at any worker count and are
held to the same bar.  ``reachable``/``assert_invariant``-shaped
verdicts (worker-side pure predicates with a stop broadcast) must
agree with the sequential wrappers, witnesses reconstructed from
pipeline-tracked parents must replay, truncation must respect the
global cap through the per-shard budgets, and every sequential route
must report itself as such on the trace.
"""

import io
import json
import os
import subprocess
import sys

import pytest

from repro.engine import ExplorationEngine
from repro.engine.core import explore_sequential
from repro.engine.fingerprint import stable_digest
from repro.engine.shm import shm_available
from repro.litmus.catalog import LITMUS_TESTS, run_litmus
from repro.obs.trace import TraceWriter, validate_event
from repro.semantics.canon import canonical_encoding
from repro.semantics.explore import explore, reachable
from repro.semantics.reduce import REDUCTIONS, get_strategy
from repro.semantics.witness import reconstruct_witness, replay_witness
from tests.conftest import (
    abstract_lock_client,
    seqlock_client,
    spinlock_client,
    stack_program,
    ticketlock_client,
)

WORKER_COUNTS = (2, 4)
#: The policies the pipeline itself runs (the registry decides; dpor
#: takes the sequential path at any worker count).
PIPELINE_REDUCTIONS = tuple(
    r for r in REDUCTIONS if get_strategy(r).pipeline_safe
)

OBJECT_CLIENTS = (
    ("abstract-lock", abstract_lock_client),
    ("seqlock", seqlock_client),
    ("ticketlock", ticketlock_client),
    ("spinlock", spinlock_client),
    ("stack-mp", lambda: stack_program(sync=True)),
)

#: Sequential references, computed once per (builder id, reduction).
_REFS: dict = {}


def _reference(name, build, reduction):
    key = (name, reduction)
    if key not in _REFS:
        _REFS[key] = explore_sequential(build(), reduction=reduction)
    return _REFS[key]


def _terminal_valuations(result):
    return {
        tuple(
            sorted((tid, ls.items_sorted()) for tid, ls in cfg.locals.items())
        )
        for cfg in result.terminals
    }


def _assert_parity(ref, par):
    assert not par.truncated and not par.stopped
    assert par.state_count == ref.state_count
    assert par.edge_count == ref.edge_count
    assert len(par.terminals) == len(ref.terminals)
    assert len(par.stuck) == len(ref.stuck)
    assert _terminal_valuations(par) == _terminal_valuations(ref)
    assert bool(par.stuck) == bool(ref.stuck)


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("reduction", REDUCTIONS)
class TestCatalogParity:
    @pytest.mark.parametrize("test", LITMUS_TESTS, ids=lambda t: t.name)
    def test_full_litmus_catalog(self, workers, reduction, test):
        engine = ExplorationEngine(workers=workers, reduction=reduction)
        ref = _reference(test.name, test.build, reduction)
        for keep_configs in (True, False):
            par = engine.explore(test.build(), keep_configs=keep_configs)
            _assert_parity(ref, par)
            assert par.terminal_locals(*test.regs) == ref.terminal_locals(
                *test.regs
            )

    def test_litmus_verdicts_match(self, workers, reduction):
        seq_engine = ExplorationEngine(reduction=reduction)
        engine = ExplorationEngine(workers=workers, reduction=reduction)
        for test in LITMUS_TESTS:
            seq = run_litmus(test, engine=seq_engine)
            par = run_litmus(test, engine=engine)
            assert par["verdict_ok"] and seq["verdict_ok"], test.name
            assert par["outcomes"] == seq["outcomes"], test.name
            assert par["states"] == seq["states"], test.name


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("reduction", PIPELINE_REDUCTIONS)
@pytest.mark.parametrize(
    "name,build", OBJECT_CLIENTS, ids=[n for n, _ in OBJECT_CLIENTS]
)
class TestObjectClientParity:
    def test_client(self, workers, reduction, name, build):
        engine = ExplorationEngine(workers=workers, reduction=reduction)
        ref = _reference(name, build, reduction)
        for keep_configs in (True, False):
            par = engine.explore(build(), keep_configs=keep_configs)
            _assert_parity(ref, par)


class TestVerdictParity:
    """``reachable``/``assert_invariant``-shaped verdicts — a pure
    predicate passed as ``on_config``, evaluated worker-side — agree
    with the sequential wrappers under every pipeline policy."""

    @pytest.mark.parametrize("reduction", PIPELINE_REDUCTIONS)
    def test_weak_outcome_reachability(self, reduction):
        engine = ExplorationEngine(workers=2, reduction=reduction)
        by_name = {t.name: t for t in LITMUS_TESTS}
        for name in ("MP-relaxed", "MP-RA", "MP-await-RA", "SB-relaxed"):
            test = by_name[name]

            def weak(cfg, test=test):
                return cfg.is_terminal() and test.outcome_of(cfg) in test.weak

            seq_hit = reachable(
                test.build(), weak, reduction=reduction
            ) is not None
            par = engine.explore(test.build(), on_config=weak)
            assert par.stopped == seq_hit == test.weak_allowed, name
            if not seq_hit:  # exhaustive no-hit run must stay complete
                assert not par.truncated

    @pytest.mark.parametrize("reduction", PIPELINE_REDUCTIONS)
    def test_invariant_verdicts(self, reduction):
        engine = ExplorationEngine(workers=2, reduction=reduction)
        by_name = {t.name: t for t in LITMUS_TESTS}
        program = by_name["MP-ring-2-RA"].build()

        def violates_published(cfg):  # never true: the invariant holds
            if not cfg.is_terminal():
                return False
            return not (
                cfg.local("1", "r0") == 5 and cfg.local("2", "r1") == 5
            )

        held = engine.explore(program, on_config=violates_published)
        assert not held.stopped and not held.truncated

        def violates_impossible(cfg):  # any non-terminal state violates
            return not cfg.is_terminal()

        broken = engine.explore(program, on_config=violates_impossible)
        assert broken.stopped


class TestPipelineBehaviour:
    def test_explore_pipeline_rejects_non_pipeline_safe(self):
        """Called directly, the pipeline refuses policies flagged
        ``pipeline_safe=False`` (dpor) instead of degrading them; the
        engine routes those to the sequential loop (see
        :class:`TestSequentialRoutes`)."""
        from repro.engine.pipeline import explore_pipeline

        assert not get_strategy("dpor").pipeline_safe
        with pytest.raises(ValueError, match="not supported on the pipeline"):
            explore_pipeline(
                LITMUS_TESTS[0].build(), 2, 100_000, reduction="dpor"
            )

    def test_truncation_respects_global_cap(self):
        engine = ExplorationEngine(workers=2)
        result = engine.explore(LITMUS_TESTS[0].build(), max_states=3)
        assert result.truncated
        assert result.state_count <= 3

    def test_early_stop(self):
        program = {t.name: t for t in LITMUS_TESTS}["MP-ring-2-RA"].build()
        full = explore(program)
        initial_ops = len(full.initial.gamma.ops)

        def moved(cfg):  # false on the initial configuration only
            return len(cfg.gamma.ops) > initial_ops

        result = ExplorationEngine(workers=2).explore(program, on_config=moved)
        assert result.stopped
        assert result.state_count < full.state_count

    def test_collect_edges_parity(self):
        test = LITMUS_TESTS[0]
        seq = explore(test.build(), collect_edges=True)
        par = ExplorationEngine(workers=2).explore(
            test.build(), collect_edges=True
        )
        # Same graph shape modulo key representation: every node has an
        # edge list, targets resolve, and the labelled out-edge
        # multisets coincide node-for-node.
        assert set(par.edges) == set(par.configs)
        for out in par.edges.values():
            for _tid, _comp, _act, tkey in out:
                assert tkey in par.configs

        def shape(result):
            return sorted(
                sorted(
                    (tid, comp, repr(act)) for tid, comp, act, _ in out
                )
                for out in result.edges.values()
            )

        assert shape(par) == shape(seq)

    def test_invariant_checking_in_workers(self):
        # Diagnostic mode must survive the worker boundary.
        test = LITMUS_TESTS[0]
        ref = _reference(test.name, test.build, "off")
        result = ExplorationEngine(workers=2).explore(
            test.build(), check_invariants=True
        )
        _assert_parity(ref, result)

    def test_workers_one_is_the_sequential_loop(self):
        # One program object: canonical keys are scoped to it.
        program = LITMUS_TESTS[0].build()
        seq = explore(program)
        one = ExplorationEngine(workers=1).explore(program)
        # Identical including insertion order: same code path.
        assert list(one.configs) == list(seq.configs)
        assert one.edge_count == seq.edge_count

    @pytest.mark.parametrize("option", ["backend", "transport", "codec"])
    def test_removed_options_are_type_errors(self, option):
        with pytest.raises(TypeError):
            ExplorationEngine(workers=2, **{option: None})
        with pytest.raises(TypeError):
            ExplorationEngine(workers=2).explore(
                LITMUS_TESTS[0].build(), **{option: None}
            )

    def test_find_witness_is_shortest(self):
        """find_witness on a multi-worker engine searches sequentially:
        the witness length matches the workers=1 (BFS) one."""
        by_name = {t.name: t for t in LITMUS_TESTS}
        test = by_name["MP-relaxed"]

        def weak(cfg):
            return test.outcome_of(cfg) in test.weak

        seq_wit = ExplorationEngine().find_witness(
            test.build(), weak, terminal_only=True
        )
        par_wit = ExplorationEngine(workers=2).find_witness(
            test.build(), weak, terminal_only=True
        )
        assert par_wit is not None and len(par_wit) == len(seq_wit)

    @pytest.mark.parametrize("reduction", PIPELINE_REDUCTIONS)
    def test_witness_replay_from_pipeline_parents(self, reduction):
        """Parents recorded by the pipeline reconstruct into witnesses
        that replay through the raw semantics — valid discovery paths,
        even though not necessarily shortest."""
        by_name = {t.name: t for t in LITMUS_TESTS}
        test = by_name["MP-relaxed"]
        program = test.build()
        engine = ExplorationEngine(workers=2, reduction=reduction)
        result = engine.explore(program, track_parents=True)

        def key_of(cfg):
            return stable_digest(canonical_encoding(program, cfg))

        target = next(
            cfg
            for cfg in result.terminals
            if test.outcome_of(cfg) in test.weak
        )
        witness = reconstruct_witness(
            program, result.parents, key_of(target), key_of,
            reduction=reduction,
        )
        final = replay_witness(program, witness)
        assert test.outcome_of(final) in test.weak

    def test_worker_failure_surfaces(self):
        """An exception inside a worker must fail the exploration (not
        hang it) and re-raise with its original type master-side, as
        the sequential loop does."""
        engine = ExplorationEngine(workers=2)

        def boom(cfg):
            raise KeyError("probe exploded")

        with pytest.raises(KeyError, match="probe exploded"):
            engine.explore(LITMUS_TESTS[0].build(), on_config=boom)

    def test_cold_process_dedup_parity(self):
        """Shards dedup by a digest every worker computes alike.  Run in
        a fresh process on a freshly built program, so nothing explored
        earlier in the process can have warmed shared state before the
        workers fork: exactly the sequential 3,066 states / 10,508
        edges of ``wide_program(4, 2)``."""
        code = (
            "import io, json\n"
            "from benchmarks.spaces import wide_program\n"
            "from repro.engine import ExplorationEngine\n"
            "from repro.obs.trace import TraceWriter\n"
            "buf = io.StringIO()\n"
            "engine = ExplorationEngine(workers=2, trace=TraceWriter(buf))\n"
            "r = engine.explore(wide_program(4, 2))\n"
            "start = next(json.loads(line) for line in "
            "buf.getvalue().splitlines() if '\"explore.start\"' in line)\n"
            "print(start['backend'], r.state_count, r.edge_count)\n"
        )
        root = os.path.join(os.path.dirname(__file__), "..")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            os.path.abspath(p) for p in (os.path.join(root, "src"), root)
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            check=True,
            timeout=600,
        ).stdout.split()
        if shm_available():
            assert out[0] == "pipeline"
        assert out[1:] == ["3066", "10508"]

    def test_summary_path_keeps_sinks_only(self):
        engine = ExplorationEngine(workers=2)
        test = LITMUS_TESTS[0]
        full = engine.explore(test.build())
        summary = engine.explore(test.build(), keep_configs=False)
        assert summary.state_total == full.state_count
        assert len(summary.configs) == len(summary.terminals) + len(
            summary.stuck
        )
        assert summary.terminal_locals(*test.regs) == full.terminal_locals(
            *test.regs
        )


def _traced_run(workers, reduction, run):
    """``run(engine)`` on a traced engine; returns its value and the
    validated trace events."""
    buf = io.StringIO()
    engine = ExplorationEngine(
        workers=workers, reduction=reduction, trace=TraceWriter(buf)
    )
    value = run(engine)
    events = [json.loads(line) for line in buf.getvalue().splitlines()]
    for event in events:
        validate_event(event)
    return value, events


def _span(events):
    start = next(e for e in events if e["ev"] == "explore.start")
    finish = next(e for e in events if e["ev"] == "explore.finish")
    return start, finish


class TestSequentialRoutes:
    """At ``workers > 1`` the engine explores sequentially wherever the
    pipeline cannot run, with the same results as ``workers=1`` — and
    the trace's ``explore.start`` names the path that actually ran."""

    @pytest.mark.parametrize("route", ["dpor", "find_witness", "no-shm"])
    def test_route_matches_workers_one(self, route, monkeypatch):
        import repro.engine.shm as shm

        if route == "no-shm":
            monkeypatch.setattr(shm, "_AVAILABLE", False)
        test = {t.name: t for t in LITMUS_TESTS}["MP-relaxed"]
        reduction = "dpor" if route == "dpor" else "off"

        def weak(cfg):
            return test.outcome_of(cfg) in test.weak

        def run(engine):
            if route == "find_witness":
                witness = engine.find_witness(
                    test.build(), weak, terminal_only=True
                )
                return len(witness), {test.outcome_of(witness.final)}
            result = engine.explore(test.build())
            return None, result.terminal_locals(*test.regs)

        one, one_events = _traced_run(1, reduction, run)
        two, two_events = _traced_run(2, reduction, run)
        assert two == one
        start, finish = _span(two_events)
        assert start["backend"] == "sequential"
        assert start["workers"] == 2
        _, one_finish = _span(one_events)
        assert finish["states"] == one_finish["states"]
        assert finish["edges"] == one_finish["edges"]

    def test_spawn_host_with_unpicklable_callback(self, monkeypatch):
        import multiprocessing

        import repro.engine.pipeline as pipeline

        monkeypatch.setattr(
            pipeline, "_pool_context",
            lambda: multiprocessing.get_context("spawn"),
        )
        test = LITMUS_TESTS[0]
        ref = _reference(test.name, test.build, "off")

        def run(engine):
            return engine.explore(test.build(), on_config=lambda cfg: False)

        result, events = _traced_run(2, "off", run)
        _assert_parity(ref, result)
        assert _span(events)[0]["backend"] == "sequential"

    def test_pipeline_route_is_reported(self):
        test = LITMUS_TESTS[0]
        ref = _reference(test.name, test.build, "off")
        result, events = _traced_run(
            2, "off", lambda engine: engine.explore(test.build())
        )
        _assert_parity(ref, result)
        assert _span(events)[0]["backend"] == "pipeline"
