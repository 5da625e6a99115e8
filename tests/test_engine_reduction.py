"""Engine wiring of the reduction policy: strategies, cache, parallel
summary path."""

import pytest

from repro.engine import (
    REDUCTIONS,
    ExplorationEngine,
    ResultCache,
    cache_key,
    explore_sequential,
)
from repro.litmus.catalog import LITMUS_TESTS

_BY_NAME = {t.name: t for t in LITMUS_TESTS}


def _program():
    return _BY_NAME["MP-await-RA"].build()


class TestStrategies:
    @pytest.mark.parametrize("strategy", ["bfs", "dfs", "swarm:7"])
    def test_every_strategy_honours_reduction(self, strategy):
        """Visit order never changes the reduced state space."""
        program = _program()
        reference = explore_sequential(program, reduction="closure")
        result = explore_sequential(
            program, strategy=strategy, reduction="closure"
        )
        assert result.state_count == reference.state_count
        assert result.edge_count == reference.edge_count
        assert result.terminal_locals(("2", "r2")) == {(5,)}

    @pytest.mark.parametrize("strategy", ["bfs", "dfs", "swarm:7"])
    def test_reduction_shrinks_under_every_strategy(self, strategy):
        program = _program()
        off = explore_sequential(program, strategy=strategy)
        red = explore_sequential(
            program, strategy=strategy, reduction="closure"
        )
        assert red.state_count < off.state_count


class TestEngineConfiguration:
    def test_default_is_off(self):
        assert ExplorationEngine().reduction == "off"

    def test_repr_mentions_reduction(self):
        assert "closure" in repr(ExplorationEngine(reduction="closure"))

    def test_per_call_override(self):
        engine = ExplorationEngine(reduction="closure")
        program = _program()
        red = engine.explore(program)
        off = engine.explore(program, reduction="off")
        assert red.state_count < off.state_count


class TestCacheKeying:
    def test_reduction_in_cache_key(self):
        program = _program()
        base = cache_key(program, max_states=1000)
        assert base == cache_key(program, max_states=1000, reduction="off")
        assert base != cache_key(
            program, max_states=1000, reduction="closure"
        )

    def test_policies_cached_separately(self, tmp_path):
        program_build = _BY_NAME["MP-await-RA"].build
        off_engine = ExplorationEngine(
            cache=ResultCache(tmp_path), reduction="off"
        )
        red_engine = ExplorationEngine(
            cache=ResultCache(tmp_path), reduction="closure"
        )
        off = off_engine.run(program_build())
        red = red_engine.run(program_build())
        assert not off.cached and not red.cached
        assert red.state_count < off.state_count
        # Warm hits resolve to the matching policy's summary.
        off2 = off_engine.run(program_build())
        red2 = red_engine.run(program_build())
        assert off2.cached and red2.cached
        assert off2.state_count == off.state_count
        assert red2.state_count == red.state_count


class TestSummaryPath:
    def test_keep_configs_is_accepted_and_inert(self):
        """``keep_configs=False`` stays a valid keyword, and the
        in-process loop returns the same full result with it."""
        test = _BY_NAME["MP-2-producers"]
        program = test.build()
        engine = ExplorationEngine()
        full = engine.explore(program)
        slim = engine.explore(program, keep_configs=False)
        assert list(slim.configs) == list(full.configs)
        assert slim.edge_count == full.edge_count
        assert slim.terminal_locals(*test.regs) == set(test.allowed)

    def test_engine_run_uses_summary_path(self):
        test = _BY_NAME["MP-ring-2-RA"]
        summary = ExplorationEngine().run(test.build())
        assert summary.terminal_locals(*test.regs) == set(test.allowed)
        assert summary.state_count == 52  # unreduced ring-2 space


class TestPolicyNames:
    def test_reductions_export(self):
        assert REDUCTIONS == ("off", "closure", "dpor")

    def test_engine_and_semantics_tuples_agree(self):
        from repro.semantics.reduce import REDUCTIONS as SEMANTICS_REDUCTIONS

        assert REDUCTIONS == SEMANTICS_REDUCTIONS

    def test_batch_litmus_explores_under_batch_reduction(self, monkeypatch):
        """The batch litmus job explores every test under the batch
        reduction, storing the closure's state counts."""
        from repro.engine.batch import run_job

        monkeypatch.setenv("REPRO_CACHE", "0")
        result = run_job("litmus", use_cache=False, reduction="closure")
        assert result.ok
        rows = {r["name"]: r for r in result.detail}
        assert rows["MP-await-RA"]["states"] == 5  # reduced
        engine = ExplorationEngine(reduction="closure")
        for name, row in rows.items():
            assert row["reduction"] == "closure"
            program = _BY_NAME[name].build()
            assert row["states"] == engine.explore(program).state_count
