"""Engine wiring of the reduction policy: the loop's options, engine
configuration, the summary path and the CLI's litmus rows."""

import pytest

from repro.engine import ExplorationEngine, explore_sequential
from repro.litmus.catalog import LITMUS_TESTS, run_litmus
from repro.semantics.reduce import REDUCTIONS
from tests.conftest import observing

_BY_NAME = {t.name: t for t in LITMUS_TESTS}


def _program():
    return _BY_NAME["MP-await-RA"].build()


class TestOptions:
    @pytest.mark.parametrize(
        "option", ["collect_edges", "track_parents", "check_invariants"]
    )
    def test_every_option_honours_reduction(self, option):
        """Recording or checking never changes the reduced state space."""
        program = _program()
        reference = explore_sequential(program, reduction="closure")
        result = explore_sequential(
            program, **observing(program, option, reduction="closure")
        )
        assert result.state_count == reference.state_count
        assert result.edge_count == reference.edge_count
        assert result.terminal_locals(("2", "r2")) == {(5,)}

    @pytest.mark.parametrize(
        "option", ["collect_edges", "track_parents", "check_invariants"]
    )
    def test_reduction_shrinks_with_every_option(self, option):
        program = _program()
        off = explore_sequential(program, **observing(program, option))
        red = explore_sequential(
            program, **observing(program, option, reduction="closure")
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

    def test_run_litmus_uses_summary_path(self):
        test = _BY_NAME["MP-ring-2-RA"]
        result = run_litmus(test)
        assert result["outcomes"] == set(test.allowed)
        assert result["states"] == 52  # unreduced ring-2 space


class TestPolicyNames:
    def test_reductions_export(self):
        assert REDUCTIONS == ("off", "closure", "dpor")

    def test_cli_litmus_explores_under_its_reduction(self, capsys, tmp_path):
        """``repro litmus --json`` explores every test under the
        command's reduction, recording the closure's state counts."""
        import json

        from repro.__main__ import main

        path = tmp_path / "r.json"
        argv = ["repro", "litmus", "--reduction", "closure"]
        assert main([*argv, "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["ok"] and data["meta"]["reduction"] == "closure"
        rows = {r["name"]: r for r in data["litmus"]}
        assert rows["MP-await-RA"]["states"] == 5  # reduced
        engine = ExplorationEngine(reduction="closure")
        for name, row in rows.items():
            program = _BY_NAME[name].build()
            assert row["states"] == engine.explore(program).state_count
