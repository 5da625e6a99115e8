"""The metrics registry and the engine's metrics sinks.

The unit half exercises :class:`repro.obs.metrics.Metrics` (collection,
merging, the active-collector protocol); the engine half checks that
per-run snapshots stay per-run while the engine-level sink accumulates
explorations and cache outcomes.
"""

import pytest

from repro.engine import ExplorationEngine
from repro.engine.core import explore_sequential
from repro.litmus.catalog import LITMUS_TESTS
from repro.obs.metrics import Metrics, active, activate, collecting


class TestMetricsRegistry:
    def test_counters_accumulate(self):
        m = Metrics()
        m.inc("a")
        m.inc("a", 4)
        assert m.counters == {"a": 5}

    def test_timer_and_add_time(self):
        m = Metrics()
        m.add_time("t", 0.25)
        with m.timer("t"):
            pass
        assert m.timers["t"] >= 0.25

    def test_gauge_keeps_high_water(self):
        m = Metrics()
        m.gauge_max("g", 3)
        m.gauge_max("g", 1)
        assert m.gauges == {"g": 3}
        m.gauge_max("g", 7)
        assert m.gauges == {"g": 7}

    def test_merge_metrics_and_snapshot_forms(self):
        a = Metrics()
        a.inc("c", 2)
        a.add_time("t", 1.0)
        a.gauge_max("g", 5)
        b = Metrics()
        b.inc("c", 3)
        b.add_time("t", 0.5)
        b.gauge_max("g", 9)
        # Merge a live registry, then a snapshot dict (the worker
        # fragment wire format), then None (a skipped fragment).
        a.merge(b)
        a.merge(b.snapshot())
        a.merge(None)
        assert a.counters["c"] == 2 + 3 + 3
        assert a.timers["t"] == pytest.approx(2.0)
        assert a.gauges["g"] == 9

    def test_snapshot_is_json_safe_copy(self):
        import json

        m = Metrics()
        m.inc("c")
        m.add_time("t", 0.123456789)
        m.gauge_max("g", 2)
        snap = m.snapshot()
        json.dumps(snap)
        m.inc("c")
        assert snap["counters"]["c"] == 1  # a copy, not a view

    def test_states_per_sec(self):
        m = Metrics()
        assert m.states_per_sec() == 0.0
        m.inc("explore.states", 100)
        m.add_time("explore.elapsed", 2.0)
        assert m.states_per_sec() == pytest.approx(50.0)

    def test_describe_mentions_the_headline_numbers(self):
        m = Metrics()
        m.inc("explore.states", 42)
        m.inc("explore.edges", 99)
        m.inc("reduce.epsilon_fused", 5)
        m.add_time("explore.elapsed", 1.0)
        line = m.describe()
        assert "42 states" in line
        assert "99 edges" in line
        assert "ε-fused 5" in line
        assert "states/sec" in line
        assert "cache" not in line  # no cache counters collected
        m.inc("cache.hits", 3)
        assert "cache 3 hits" in m.describe()


class TestActiveCollector:
    def test_default_is_off(self):
        assert active() is None

    def test_collecting_scopes_and_restores(self):
        m = Metrics()
        with collecting(m):
            assert active() is m
            inner = Metrics()
            with collecting(inner):
                assert active() is inner
            assert active() is m
        assert active() is None

    def test_collecting_none_is_transparent(self):
        m = Metrics()
        with collecting(m):
            with collecting(None):
                assert active() is m  # outer collector keeps collecting
        assert active() is None

    def test_activate_returns_previous(self):
        m = Metrics()
        assert activate(m) is None
        try:
            assert active() is m
        finally:
            assert activate(None) is m
        assert active() is None


class TestSequentialCollection:
    def test_sequential_counts_states_edges_and_fusions(self):
        test = next(t for t in LITMUS_TESTS if t.name == "MP-ring-3-RA")
        m = Metrics()
        result = explore_sequential(
            test.build(), reduction="closure", metrics=m
        )
        c = m.counters
        assert c["explore.states"] == result.state_count
        assert c["explore.edges"] == result.edge_count
        # The ring polls flag variables: the closure must fuse silent
        # steps, and the collector must see them.
        assert c["reduce.epsilon_fused"] > 0
        assert m.timers["explore.elapsed"] == pytest.approx(
            result.elapsed, abs=1e-6
        )
        assert m.gauges["explore.frontier_peak"] >= 1
        assert result.metrics == m.snapshot()

    def test_no_sink_means_no_snapshot(self):
        result = explore_sequential(LITMUS_TESTS[0].build())
        assert result.metrics is None
        assert active() is None  # nothing leaked into the module slot


class TestEngineSink:
    def test_engine_sink_accumulates_across_explorations(self):
        sink = Metrics()
        engine = ExplorationEngine(metrics=sink)
        r1 = engine.explore(LITMUS_TESTS[0].build())
        r2 = engine.explore(LITMUS_TESTS[1].build())
        assert sink.counters["explore.states"] == (
            r1.state_count + r2.state_count
        )
        # Per-run snapshots stay per-run.
        assert r1.metrics["counters"]["explore.states"] == r1.state_count

    def test_run_counts_cache_outcomes(self, tmp_path):
        from repro.engine.cache import ResultCache

        sink = Metrics()
        engine = ExplorationEngine(
            cache=ResultCache(tmp_path), metrics=sink
        )
        program = LITMUS_TESTS[0].build()
        engine.run(program)
        engine.run(program)
        assert sink.counters["cache.misses"] == 1
        assert sink.counters["cache.hits"] == 1
