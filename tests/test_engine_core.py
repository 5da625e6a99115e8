"""Tests for the exploration engine: the observing options, the
breadth-first order, the engine API and the loop's GC policy.

``collect_edges`` and ``track_parents`` record what the loop visits,
and the ``checking_invariants`` hook (``tests/conftest.py``) checks
it; none of them steers, so with any of them on the loop must store
*exactly* the same state space in the same order —
same ``state_count``, ``edge_count``, terminal outcomes and litmus
verdicts — as the plain run.  These parity tests run the full litmus
catalog with each option.
"""

import ast
import gc
from collections import deque
from pathlib import Path

import pytest

from repro.engine import ExplorationEngine
from repro.engine.core import GC_GEN0_THRESHOLD, explore_sequential
from repro.litmus.catalog import LITMUS_TESTS, run_litmus
from repro.semantics.explore import explore
from repro.semantics.reduce import REDUCTIONS
from tests.conftest import observing

#: The loop's observing options; ``check_invariants`` is the
#: ``checking_invariants`` hook.
OPTIONS = ["collect_edges", "track_parents", "check_invariants"]

_BY_NAME = {t.name: t for t in LITMUS_TESTS}


def _signature(result, test):
    return (
        result.state_count,
        result.edge_count,
        len(result.terminals),
        len(result.stuck),
        result.terminal_locals(*test.regs),
    )


class TestOptionParity:
    @pytest.mark.parametrize("test", LITMUS_TESTS, ids=lambda t: t.name)
    @pytest.mark.parametrize("option", OPTIONS)
    def test_full_catalog(self, test, option):
        # One program object: canonical keys are scoped to it.
        program = test.build()
        reference = explore(program)
        other = ExplorationEngine().explore(
            program, **observing(program, option)
        )
        assert _signature(other, test) == _signature(reference, test)
        assert list(other.configs) == list(reference.configs)

    @pytest.mark.parametrize("reduction", REDUCTIONS)
    def test_litmus_verdicts(self, reduction):
        engine = ExplorationEngine(reduction=reduction)
        for test in LITMUS_TESTS:
            verdict = run_litmus(test, engine=engine)
            assert verdict["verdict_ok"], (reduction, test.name)

    def test_order_is_deterministic_across_builds(self):
        # Two program objects share no canonical keys; the discovery
        # order of the outcomes must still agree.
        test = _BY_NAME["MP-ring-2-RA"]
        a = explore(test.build())
        b = explore(test.build())
        assert a.state_count == b.state_count
        assert [test.outcome_of(c) for c in a.terminals] == [
            test.outcome_of(c) for c in b.terminals
        ]


def _depths(result):
    """Discovery depth of every state, read off the recorded parents."""
    depth = {result.initial_key: 0}

    def of(key):
        if key not in depth:
            depth[key] = of(result.parents[key][0]) + 1
        return depth[key]

    return {key: of(key) for key in result.configs}


class TestBreadthFirstOrder:
    """The loop visits states in breadth-first order, which is what
    makes the recorded parent paths shortest.  Under ``dpor``
    re-expansions re-enter the queue late, so only ``off`` and
    ``closure`` are held to it."""

    @pytest.mark.parametrize("reduction", ["off", "closure"])
    def test_discovery_depth_never_decreases(self, reduction):
        for name in ("MP-ring-2-RA", "IRIW-RA", "SB-relaxed"):
            result = explore_sequential(
                _BY_NAME[name].build(), reduction=reduction,
                track_parents=True,
            )
            depth = _depths(result)
            order = [depth[key] for key in result.configs]
            assert order == sorted(order), name

    @pytest.mark.parametrize("reduction", ["off", "closure"])
    def test_recorded_depth_is_graph_distance(self, reduction):
        for name in ("MP-ring-2-RA", "IRIW-RA", "SB-relaxed"):
            result = explore_sequential(
                _BY_NAME[name].build(), reduction=reduction,
                collect_edges=True, track_parents=True,
            )
            # Independent distances over the collected graph.
            dist = {result.initial_key: 0}
            queue = deque([result.initial_key])
            while queue:
                key = queue.popleft()
                for _tid, _comp, _act, tkey in result.edges[key]:
                    if tkey not in dist:
                        dist[tkey] = dist[key] + 1
                        queue.append(tkey)
            assert dist == _depths(result), name


class TestEngineAPI:
    @pytest.mark.parametrize(
        "option",
        [
            "workers", "backend", "transport", "codec", "strategy",
            "analysis", "check_invariants", "canonicalise",
        ],
    )
    def test_removed_options_are_type_errors(self, option):
        with pytest.raises(TypeError):
            ExplorationEngine(**{option: 2})
        with pytest.raises(TypeError):
            ExplorationEngine().explore(
                LITMUS_TESTS[0].build(), **{option: 2}
            )

    def test_explore_is_the_sequential_loop(self):
        assert explore is explore_sequential
        # One program object: canonical keys are scoped to it.
        program = LITMUS_TESTS[0].build()
        seq = explore(program)
        result = ExplorationEngine().explore(program)
        # Identical including insertion order: same code path.
        assert list(result.configs) == list(seq.configs)
        assert result.edge_count == seq.edge_count

    def test_engine_counts_explorations(self):
        engine = ExplorationEngine()
        test = LITMUS_TESTS[0]
        engine.explore(test.build())
        engine.explore(test.build())
        assert engine.explorations == 2

    def test_max_states_default_and_override(self):
        engine = ExplorationEngine(max_states=3)
        test = LITMUS_TESTS[0]
        assert engine.explore(test.build()).truncated
        assert not engine.explore(test.build(), max_states=500_000).truncated


class TestImportFootprint:
    def test_engine_import_leaves_process_pools_out(self):
        """``import repro, repro.engine, repro.__main__`` must not load
        :mod:`multiprocessing` or :mod:`concurrent.futures`: every
        exploration and every CLI command runs in-process, and no
        module imports a pool."""
        import os
        import subprocess
        import sys

        code = (
            "import sys, repro, repro.engine, repro.__main__\n"
            "print(sorted(m for m in ('multiprocessing', "
            "'concurrent.futures') if m in sys.modules))\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        ).stdout.strip()
        assert out == "[]"


#: A distinctive caller setting: gen-1/gen-2 differ from the defaults,
#: so a restore that rebuilt the triple from defaults would show.
CALLER = (701, 11, 12)


@pytest.fixture
def caller_gc():
    """Install ``CALLER`` as the GC thresholds for one test and put the
    process's own setting back afterwards."""
    saved = gc.get_threshold()
    gc.set_threshold(*CALLER)
    try:
        yield
    finally:
        gc.set_threshold(*saved)


def _program():
    return next(t for t in LITMUS_TESTS if t.name == "MP-RA").build()


class TestGCThreshold:
    """``explore_sequential`` raises the gen-0 threshold for the loop and
    gives the caller's exact triple back on every exit."""

    def test_raised_during_the_loop(self, caller_gc):
        seen = []
        explore_sequential(
            _program(), on_config=lambda c: seen.append(gc.get_threshold())
        )
        assert seen and set(seen) == {(GC_GEN0_THRESHOLD, 11, 12)}
        assert gc.get_threshold() == CALLER

    def test_restored_after_early_stop(self, caller_gc):
        result = explore_sequential(_program(), on_config=lambda c: True)
        assert result.stopped
        assert gc.get_threshold() == CALLER

    def test_restored_after_truncation(self, caller_gc):
        result = explore_sequential(_program(), max_states=3)
        assert result.truncated
        assert gc.get_threshold() == CALLER

    def test_restored_after_on_config_raises(self, caller_gc):
        def boom(cfg):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            explore_sequential(_program(), on_config=boom)
        assert gc.get_threshold() == CALLER

    def test_restored_after_nested_exploration(self, caller_gc):
        inner = []

        def nest(cfg):
            if not inner:
                ExplorationEngine().explore(_program())
                inner.append(gc.get_threshold())
            return False

        ExplorationEngine().explore(_program(), on_config=nest)
        # The inner run restores the outer run's raised setting, the
        # outer run the caller's.
        assert inner == [(GC_GEN0_THRESHOLD, 11, 12)]
        assert gc.get_threshold() == CALLER

    @pytest.mark.parametrize("gen0", [0, 100_000])
    def test_caller_setting_never_weakened(self, gen0):
        # 0 means automatic collection is off: raising it would switch
        # collection back on.  A higher threshold is kept as it is.
        saved = gc.get_threshold()
        gc.set_threshold(gen0, 11, 12)
        try:
            seen = []
            explore_sequential(
                _program(), on_config=lambda c: seen.append(gc.get_threshold())
            )
            assert set(seen) == {(gen0, 11, 12)}
            assert gc.get_threshold() == (gen0, 11, 12)
        finally:
            gc.set_threshold(*saved)

    def test_no_hook_without_a_metrics_sink(self):
        before = list(gc.callbacks)
        during = []
        explore_sequential(
            _program(), on_config=lambda c: during.append(len(gc.callbacks))
        )
        assert set(during) == {len(before)}
        assert gc.callbacks == before


#: The calls that change the collector's process-wide behaviour.
GC_POLICY_CALLS = {"set_threshold", "disable", "freeze"}


def _gc_policy_calls(tree: ast.AST):
    """Line numbers of GC-policy calls in a module: ``gc.set_threshold``,
    ``gc.disable``, ``gc.freeze`` and ``gc.callbacks.append``, also
    through an alias of the module or a ``from gc import``."""
    modules = {"gc"}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "gc"}
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            names |= {
                a.asname or a.name
                for a in node.names
                if a.name in GC_POLICY_CALLS | {"callbacks"}
            }
    hits = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in names:
                hits.append(node.lineno)
            continue
        if not isinstance(func, ast.Attribute):
            continue
        owner = func.value
        if func.attr in GC_POLICY_CALLS:
            flagged = isinstance(owner, ast.Name) and owner.id in modules
        elif func.attr == "append":
            flagged = (isinstance(owner, ast.Name) and owner.id in names) or (
                isinstance(owner, ast.Attribute)
                and owner.attr == "callbacks"
                and isinstance(owner.value, ast.Name)
                and owner.value.id in modules
            )
        else:
            flagged = False
        if flagged:
            hits.append(node.lineno)
    return hits


class TestGCPolicyHome:
    """The engine loop is the one place in the package that sets the
    cyclic collector's policy."""

    SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

    def test_only_the_engine_loop_sets_gc_policy(self):
        offenders = {}
        for path in sorted(self.SRC.rglob("*.py")):
            rel = path.relative_to(self.SRC).as_posix()
            if rel == "engine/core.py":
                continue
            hits = _gc_policy_calls(ast.parse(path.read_text(), str(path)))
            if hits:
                offenders[rel] = hits
        assert offenders == {}

    def test_the_engine_loop_is_found(self):
        # Guards the walker itself: the one home must register as such.
        core = self.SRC / "engine" / "core.py"
        assert _gc_policy_calls(ast.parse(core.read_text()))

    @pytest.mark.parametrize(
        "source",
        [
            "import gc\ngc.disable()",
            "import gc as g\ng.set_threshold(1)",
            "from gc import freeze\nfreeze()",
            "import gc\ngc.callbacks.append(print)",
            "from gc import callbacks\ncallbacks.append(print)",
        ],
    )
    def test_walker_flags_each_form(self, source):
        assert _gc_policy_calls(ast.parse(source)) == [2]
