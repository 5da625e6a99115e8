"""Tests for program fingerprints and the persistent result cache."""

import os
import pickle
import subprocess
import sys

from repro.engine import (
    ExplorationEngine,
    ResultCache,
    cache_key,
    program_fingerprint,
)
from repro.lang import ast as A
from repro.lang.expr import Lit
from repro.lang.program import Program, Thread
from repro.litmus.catalog import LITMUS_TESTS, run_litmus
from repro.semantics.explore import explore


def _mp(flag_value: int = 1) -> Program:
    t1 = A.seq(A.Write("d", Lit(5)), A.Write("f", Lit(flag_value), release=True))
    t2 = A.seq(A.Read("r1", "f", acquire=True), A.Read("r2", "d"))
    return Program(
        threads={"1": Thread(t1), "2": Thread(t2)},
        client_vars={"d": 0, "f": 0},
    )


class TestFingerprint:
    def test_deterministic_within_process(self):
        assert program_fingerprint(_mp()) == program_fingerprint(_mp())

    def test_content_sensitive(self):
        assert program_fingerprint(_mp(1)) != program_fingerprint(_mp(2))
        for a, b in zip(LITMUS_TESTS, LITMUS_TESTS[1:]):
            assert program_fingerprint(a.build()) != program_fingerprint(
                b.build()
            )

    def test_parameters_enter_cache_key(self):
        p = _mp()
        base = cache_key(p, max_states=1000)
        assert cache_key(p, max_states=2000) != base
        assert cache_key(p, max_states=1000, canonicalise=False) != base
        assert cache_key(p, max_states=1000) == base

    def test_stable_across_hash_seeds(self):
        """PYTHONHASHSEED-independence: the property builtin hash lacks."""
        code = (
            "from repro.lang import ast as A\n"
            "from repro.lang.expr import Lit\n"
            "from repro.lang.program import Program, Thread\n"
            "from repro.engine import program_fingerprint\n"
            "t1 = A.seq(A.Write('d', Lit(5)), A.Write('f', Lit(1), release=True))\n"
            "t2 = A.seq(A.Read('r1', 'f', acquire=True), A.Read('r2', 'd'))\n"
            "p = Program(threads={'1': Thread(t1), '2': Thread(t2)},\n"
            "            client_vars={'d': 0, 'f': 0})\n"
            "print(program_fingerprint(p))\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        prints = []
        for seed in ("0", "424242"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                [os.path.abspath(src)]
                + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
            )
            prints.append(
                subprocess.run(
                    [sys.executable, "-c", code],
                    capture_output=True,
                    text=True,
                    env=env,
                    check=True,
                ).stdout.strip()
            )
        assert prints[0] == prints[1] == program_fingerprint(_mp())


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        engine = ExplorationEngine(cache=cache)
        p = _mp()
        cold = engine.run(p)
        assert not cold.cached and cache.misses == 1 and len(cache) == 1
        warm = engine.run(p)
        assert warm.cached and cache.hits == 1
        assert warm.state_count == cold.state_count
        assert warm.terminal_locals(("2", "r1"), ("2", "r2")) == (
            cold.terminal_locals(("2", "r1"), ("2", "r2"))
        )

    def test_warm_cache_means_zero_explorations(self, tmp_path):
        cache = ResultCache(tmp_path)
        ExplorationEngine(cache=cache).run(_mp())
        rerun = ExplorationEngine(cache=cache)
        rerun.run(_mp())
        assert rerun.explorations == 0

    def test_program_change_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path)
        engine = ExplorationEngine(cache=cache)
        engine.run(_mp(1))
        fresh = engine.run(_mp(2))
        assert not fresh.cached
        assert len(cache) == 2

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        engine = ExplorationEngine(cache=cache)
        engine.run(_mp())
        (entry,) = list(cache.root.glob("*/*.pkl"))
        entry.write_bytes(b"not a pickle")
        recovered = ExplorationEngine(cache=cache).run(_mp())
        assert not recovered.cached
        assert recovered.state_count == explore(_mp()).state_count

    def test_wrong_type_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key(_mp(), max_states=500_000)
        path = cache.root / key[:2] / f"{key}.pkl"
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps({"not": "a summary"}))
        assert cache.get(key) is None
        assert not path.exists()

    def test_truncated_results_not_cached(self, tmp_path):
        # Truncated summaries depend on visit order (the strategy),
        # which the cache key deliberately omits — they must never be
        # persisted or served.
        cache = ResultCache(tmp_path)
        capped = ExplorationEngine(cache=cache, max_states=3)
        summary = capped.run(_mp())
        assert summary.truncated
        assert len(cache) == 0
        rerun = capped.run(_mp())
        assert not rerun.cached

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        engine = ExplorationEngine(cache=cache)
        engine.run(_mp(1))
        engine.run(_mp(2))
        assert cache.clear() == 2
        assert len(cache) == 0


_CROSS_SEED_RUN = """
import json, sys
from repro.engine import ExplorationEngine, ResultCache
from repro.litmus.catalog import LITMUS_TESTS

test = {t.name: t for t in LITMUS_TESTS}["MP-relaxed"]
engine = ExplorationEngine(cache=ResultCache(sys.argv[1]))
summary = engine.run(test.build())
derived = ("_canonical_key", "_canonical_encoding")
print(json.dumps({
    "cached": summary.cached,
    "keyed": any(
        name in cfg.__dict__ for cfg in summary.terminals for name in derived
    ),
    "outcomes": sorted(summary.terminal_locals(*test.regs)),
}))
"""


class TestCrossProcessCache:
    def test_summary_served_across_hash_seeds(self, tmp_path):
        """A summary written by one process is served to another with a
        different ``PYTHONHASHSEED``: its pickled configurations rebuild
        from their defining fields, with no cached canonical key."""
        import json

        test = {t.name: t for t in LITMUS_TESTS}["MP-relaxed"]
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        runs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.path.abspath(src)
            env.pop("REPRO_CACHE", None)
            out = subprocess.run(
                [sys.executable, "-c", _CROSS_SEED_RUN, str(tmp_path)],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            ).stdout
            runs.append(json.loads(out))
        written, served = runs
        assert not written["cached"]
        assert served["cached"]
        assert {tuple(o) for o in served["outcomes"]} == set(test.allowed)
        assert not served["keyed"]


class TestCachedLitmus:
    def test_run_litmus_served_from_cache(self, tmp_path):
        engine = ExplorationEngine(cache=ResultCache(tmp_path))
        test = LITMUS_TESTS[0]
        cold = run_litmus(test, engine=engine, use_cache=True)
        warm = run_litmus(test, engine=engine, use_cache=True)
        assert not cold["cached"] and warm["cached"]
        assert warm["outcomes"] == cold["outcomes"]
        assert warm["verdict_ok"] and cold["verdict_ok"]
        assert warm["states"] == cold["states"]

    def test_catalog_warm_pass_explores_nothing(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = ExplorationEngine(cache=cache)
        for test in LITMUS_TESTS:
            run_litmus(test, engine=first, use_cache=True)
        assert first.explorations == len(LITMUS_TESTS)
        second = ExplorationEngine(cache=cache)
        for test in LITMUS_TESTS:
            verdict = run_litmus(test, engine=second, use_cache=True)
            assert verdict["verdict_ok"] and verdict["cached"]
        assert second.explorations == 0
