"""Tests for the exploration engine: strategies and the engine API.

The visited-set exploration is order-insensitive, so every frontier
strategy must reconstruct *exactly* the same state space — same
``state_count``, ``edge_count``, terminal outcomes and litmus verdicts
— as the reference breadth-first order.  These parity tests run the
full litmus catalog through each strategy.
"""

import pytest

from repro.engine import (
    BFSFrontier,
    DFSFrontier,
    ExplorationEngine,
    SwarmFrontier,
    make_frontier,
)
from repro.litmus.catalog import LITMUS_TESTS, run_litmus
from repro.semantics.explore import explore

STRATEGIES = ["dfs", "swarm:7", "swarm:1234"]


def _signature(result, test):
    return (
        result.state_count,
        result.edge_count,
        len(result.terminals),
        len(result.stuck),
        result.terminal_locals(*test.regs),
    )


class TestStrategyParity:
    @pytest.mark.parametrize("test", LITMUS_TESTS, ids=lambda t: t.name)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_full_catalog(self, test, strategy):
        # One program object: canonical keys are scoped to it.
        program = test.build()
        reference = explore(program)
        other = ExplorationEngine(strategy=strategy).explore(program)
        assert _signature(other, test) == _signature(reference, test)
        assert set(other.configs) == set(reference.configs)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_litmus_verdicts(self, strategy):
        engine = ExplorationEngine(strategy=strategy)
        for test in LITMUS_TESTS:
            verdict = run_litmus(test, engine=engine)
            assert verdict["verdict_ok"], (strategy, test.name)

    def test_swarm_is_deterministic_per_seed(self):
        program = LITMUS_TESTS[0].build()
        a = ExplorationEngine(strategy="swarm:42").explore(program)
        b = ExplorationEngine(strategy="swarm:42").explore(program)
        assert list(a.configs) == list(b.configs)


class TestFrontiers:
    def test_bfs_fifo(self):
        f = BFSFrontier()
        f.push(("a",), "A")
        f.push(("b",), "B")
        assert f.pop() == (("a",), "A")
        assert len(f) == 1

    def test_dfs_lifo(self):
        f = DFSFrontier()
        f.push(("a",), "A")
        f.push(("b",), "B")
        assert f.pop() == (("b",), "B")

    def test_swarm_pops_everything(self):
        f = SwarmFrontier(seed=3)
        items = {(i,): str(i) for i in range(10)}
        for k, v in items.items():
            f.push(k, v)
        popped = dict(f.pop() for _ in range(len(items)))
        assert popped == items
        assert not f

    def test_make_frontier_specs(self):
        assert isinstance(make_frontier("bfs"), BFSFrontier)
        assert isinstance(make_frontier("dfs"), DFSFrontier)
        assert isinstance(make_frontier("swarm:9"), SwarmFrontier)
        assert isinstance(make_frontier(DFSFrontier), DFSFrontier)
        assert isinstance(make_frontier(lambda: BFSFrontier()), BFSFrontier)
        with pytest.raises(ValueError):
            make_frontier("bogosort")


class TestEngineAPI:
    @pytest.mark.parametrize(
        "option", ["workers", "backend", "transport", "codec"]
    )
    def test_removed_options_are_type_errors(self, option):
        with pytest.raises(TypeError):
            ExplorationEngine(**{option: 2})
        with pytest.raises(TypeError):
            ExplorationEngine().explore(
                LITMUS_TESTS[0].build(), **{option: 2}
            )

    def test_explore_is_the_sequential_loop(self):
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

    def test_run_returns_summary_without_cache(self):
        engine = ExplorationEngine()
        test = LITMUS_TESTS[0]
        summary = engine.run(test.build())
        full = explore(test.build())
        assert summary.state_count == full.state_count
        assert summary.terminal_locals(*test.regs) == full.terminal_locals(
            *test.regs
        )
        assert not summary.cached


class TestImportFootprint:
    def test_engine_import_leaves_process_pools_out(self):
        """``import repro, repro.engine`` must not load
        :mod:`multiprocessing` or :mod:`concurrent.futures`: exploration
        is in-process, and only ``batch --workers N`` needs a pool (it
        imports one when it runs)."""
        import os
        import subprocess
        import sys

        code = (
            "import sys, repro, repro.engine\n"
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
