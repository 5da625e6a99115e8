"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main, run_figures, run_litmus, run_refine
from repro.litmus.catalog import LITMUS_TESTS


class TestJobs:
    def test_run_litmus(self, capsys):
        assert run_litmus() is True
        out = capsys.readouterr().out
        assert "MP-relaxed" in out and "OK" in out

    def test_run_figures(self, capsys):
        assert run_figures() is True
        out = capsys.readouterr().out
        assert "Figure 7" in out and "Lemma 4" in out

    def test_run_refine(self, capsys):
        assert run_refine() is True
        out = capsys.readouterr().out
        assert "seqlock_fill" in out and "PASS" in out

    def test_run_refine_explores_each_program_once(self, capsys):
        # 3 locks x 3 battery clients x 2 programs, each explored once
        # and shared by the simulation game and trace inclusion.
        assert run_refine() is True
        assert "engine: 18 explorations" in capsys.readouterr().out


class TestMain:
    def test_single_command(self, capsys):
        assert main(["repro", "figures"]) == 0
        assert "ALL CHECKS PASS" in capsys.readouterr().out

    def test_unknown_command_shows_help(self, capsys):
        assert main(["repro", "bogus"]) == 2
        assert "Commands" in capsys.readouterr().out

    def test_default_is_all(self, capsys):
        assert main(["repro"]) == 0
        out = capsys.readouterr().out
        assert "litmus" in out or "MP-relaxed" in out
        assert "refinement report" in out

    @pytest.mark.parametrize("command", ["litmus", "all"])
    def test_profile_flag_is_usage_error(self, capsys, command, tmp_path):
        # Profiling is `python -m cProfile -o FILE -m repro ...`.
        profile = tmp_path / "p.prof"
        assert main(["repro", command, "--profile", str(profile)]) == 2
        assert not profile.exists()


class TestFigureChecks:
    """The ``figures`` table and the ``--json`` report read one set of
    rows."""

    @pytest.fixture
    def failing_row(self, monkeypatch):
        import repro.figures

        rows = [{"check": "figure-1", "ok": False, "measured": "[(7,)]"}]
        monkeypatch.setattr(repro.figures, "figure_checks", lambda: rows)
        return rows

    def test_cli_fails_on_a_failing_row(self, capsys, failing_row):
        assert main(["repro", "figures"]) == 1
        out = capsys.readouterr().out
        assert "Figure 1: outcomes [(7,)]  MISMATCH" in out
        assert "SOME CHECKS FAILED" in out

    def test_json_report_fails_on_a_failing_row(
        self, capsys, failing_row, tmp_path
    ):
        import json

        path = tmp_path / "r.json"
        assert main(["repro", "all", "--json", str(path), "-q"]) == 1
        data = json.loads(path.read_text())
        assert data["ok"] is False
        assert data["figures"] == failing_row
        assert all(r["verdict_ok"] for r in data["litmus"])


class TestReductionFlag:
    def test_litmus_reduction_off(self, capsys):
        assert main(["repro", "litmus", "--reduction", "off"]) == 0
        out = capsys.readouterr().out
        assert "ALL CHECKS PASS" in out
        # Unreduced exploration of MP-ring-3-RA stores the full space.
        assert "MP-ring-3-RA             368" in out

    def test_litmus_reduction_closure_default(self, capsys):
        assert main(["repro", "litmus"]) == 0
        out = capsys.readouterr().out
        assert "ALL CHECKS PASS" in out
        assert "MP-ring-3-RA              65" in out
        # The committed benchmark baseline supplies the unreduced
        # per-test counts without re-running them.
        assert "368" in out

    def test_unknown_reduction_rejected(self, capsys):
        assert main(["repro", "litmus", "--reduction", "bogus"]) == 2
        assert "unknown reduction" in capsys.readouterr().out

    def test_figures_rejects_reduction(self, capsys):
        assert main(["repro", "figures", "--reduction", "off"]) == 2
        assert "not supported" in capsys.readouterr().out


class TestJsonReport:
    def _report(self, tmp_path, *argv):
        import json

        path = tmp_path / "r.json"
        assert main(["repro", *argv, "--json", str(path)]) == 0
        return json.loads(path.read_text())

    def test_all_report_agrees_with_the_tables(self, capsys, tmp_path):
        data = self._report(tmp_path, "all")
        out = capsys.readouterr().out
        assert "ALL CHECKS PASS" in out
        assert data["ok"] is True and data["schema"] == 8
        assert len(data["litmus"]) == 30
        assert len(data["figures"]) == 6
        assert len(data["refine"]) == 3
        for row in data["litmus"]:
            name, states, full = row["name"], row["states"], row["full_states"]
            assert f"{name:20s} {states:7d} {full:7d}" in out
        for row in data["refine"]:
            impl = row["implementation"]
            assert f"refinement report for {impl}: PASS" in out
            assert all(c["ok"] for c in row["clients"])

    def test_litmus_rows_and_meta(self, capsys, tmp_path):
        data = self._report(tmp_path, "litmus")
        assert set(data) == {"schema", "ok", "meta", "metrics", "litmus"}
        meta = data["meta"]
        assert set(meta) == {"python", "platform", "cpu_count", "reduction"}
        assert meta["python"] and meta["platform"]
        assert meta["cpu_count"] >= 1
        assert meta["reduction"] == "closure"
        ring = {r["name"]: r for r in data["litmus"]}["MP-ring-3-RA"]
        # states: explored (reduced); full_states: from the committed
        # baseline, not a re-run.
        assert ring["states"] == 65
        assert ring["full_states"] == 368
        # Passing rows embed no witness schedule.
        assert all("witness" not in r for r in data["litmus"])
        # The litmus engine's telemetry rides with the rows.
        assert data["metrics"]["counters"]["explore.states"] == sum(
            r["states"] for r in data["litmus"]
        )

    def test_failing_litmus_row_keeps_its_witness(
        self, capsys, monkeypatch, tmp_path
    ):
        import dataclasses
        import json

        import repro.litmus.catalog as catalog

        mp = next(t for t in catalog.LITMUS_TESTS if t.name == "MP-relaxed")
        # Claim the weak outcome is forbidden: the explorer observes it.
        wrong = dataclasses.replace(
            mp, allowed=mp.allowed - mp.weak, weak_allowed=False
        )
        monkeypatch.setattr(catalog, "LITMUS_TESTS", [wrong])
        path = tmp_path / "r.json"
        assert main(["repro", "litmus", "--json", str(path), "-q"]) == 1
        (row,) = json.loads(path.read_text())["litmus"]
        assert not row["verdict_ok"] and row["witness"]
        out = capsys.readouterr().out
        assert "violating schedule:" in out
        assert all(f"    {line}" in out for line in row["witness"])

    def test_refine_report_has_no_litmus_metrics(self, capsys, tmp_path):
        data = self._report(tmp_path, "refine")
        assert set(data) == {"schema", "ok", "meta", "metrics", "refine"}
        assert data["metrics"] is None

    def test_every_run_explores(self, capsys, tmp_path):
        # Nothing is kept between runs: a repeated battery explores
        # every test again.
        first = self._report(tmp_path, "litmus", "-q")
        second = self._report(tmp_path, "litmus", "-q")
        assert second["metrics"]["counters"]["explore.states"] == (
            first["metrics"]["counters"]["explore.states"]
        ) > 0

    def test_rejected_on_witness_and_lint(self, capsys, tmp_path):
        path = tmp_path / "r.json"
        assert main(["repro", "lint", "--json", str(path)]) == 2
        assert main(
            ["repro", "witness", "MP-relaxed", "--json", str(path)]
        ) == 2
        assert not path.exists()

    def test_rows_are_the_same_on_every_run(self, capsys, tmp_path):
        # One exploration order: under dpor, where the sleep sets make
        # state counts order-dependent, two runs still agree row for row.
        first = self._report(tmp_path, "litmus", "-q", "--reduction", "dpor")
        second = self._report(tmp_path, "litmus", "-q", "--reduction", "dpor")
        assert first["litmus"] == second["litmus"]
        assert first["meta"] == second["meta"]

    def test_figures_report_has_one_row_per_check(self, capsys, tmp_path):
        from repro.__main__ import _FIGURE_LINES

        data = self._report(tmp_path, "figures")
        assert set(data) == {"schema", "ok", "meta", "metrics", "figures"}
        assert data["ok"] is True and data["metrics"] is None
        assert [r["check"] for r in data["figures"]] == list(_FIGURE_LINES)
        assert all(r["ok"] and r["measured"] for r in data["figures"])

    def test_refine_rows_cover_every_lock_and_client(self, capsys, tmp_path):
        from repro.impls import LOCKS

        data = self._report(tmp_path, "refine", "-q")
        rows = {r["implementation"]: r for r in data["refine"]}
        assert set(rows) == {fill.__name__ for fill, _ in LOCKS.values()}
        for row in rows.values():
            assert row["ok"] and len(row["clients"]) == 3
            for client in row["clients"]:
                assert client["ok"] and client["simulation_found"]
                assert client["relation_size"] > 0
                assert client["traces_ok"] is True

    def test_nothing_is_written_but_the_report(
        self, capsys, monkeypatch, tmp_path
    ):
        # No result is kept between runs: with the home and cache
        # directories pointed at an empty tree, a full run leaves only
        # the report there.
        home = tmp_path / "home"
        home.mkdir()
        monkeypatch.setenv("HOME", str(home))
        monkeypatch.setenv("XDG_CACHE_HOME", str(home / ".cache"))
        monkeypatch.chdir(home)
        assert main(["repro", "all", "-q", "--json", "r.json"]) == 0
        assert sorted(p.name for p in home.rglob("*")) == ["r.json"]


class TestJsonRowsMatchTheLibrary:
    """Each ``repro litmus --json`` row, under every reduction, gives the
    verdict :func:`repro.litmus.catalog.run_litmus` gives for that test
    on an engine with the same reduction."""

    @pytest.fixture(scope="class")
    def reports(self, tmp_path_factory):
        import json

        from repro.semantics.reduce import REDUCTIONS

        out = {}
        for reduction in REDUCTIONS:
            path = tmp_path_factory.mktemp("report") / f"{reduction}.json"
            argv = ["repro", "litmus", "-q", "--reduction", reduction]
            assert main([*argv, "--json", str(path)]) == 0
            data = json.loads(path.read_text())
            assert data["meta"]["reduction"] == reduction
            out[reduction] = {r["name"]: r for r in data["litmus"]}
        return out

    @pytest.mark.parametrize("test", LITMUS_TESTS, ids=lambda t: t.name)
    def test_row(self, reports, test):
        from repro.engine import ExplorationEngine
        from repro.litmus.catalog import run_litmus as library_run

        for reduction, rows in reports.items():
            row = rows[test.name]
            result = library_run(
                test, engine=ExplorationEngine(reduction=reduction)
            )
            assert row["verdict_ok"] is result["verdict_ok"] is True
            assert row["weak_observed"] is result["weak_observed"]
            assert row["states"] == result["states"]
            assert result["outcomes"] == set(test.allowed)


class TestRemovedFlags:
    """The batch runner's flags are gone with it, ``--strategy`` with
    the single exploration order and ``--analysis`` with the engine's
    pre-exploration static analysis: each is now unknown."""

    @pytest.mark.parametrize(
        "name, value",
        [
            ("workers", ["2"]),
            ("jobs", ["litmus"]),
            ("no-cache", []),
            ("strategy", ["dfs"]),
            ("analysis", ["warn"]),
        ],
        ids=["workers", "jobs", "no-cache", "strategy", "analysis"],
    )
    @pytest.mark.parametrize("command", ["litmus", "refine", "witness", "all"])
    def test_is_usage_error(self, capsys, command, name, value):
        test = ["MP-relaxed"] if command == "witness" else []
        assert main(["repro", command, *test, "--" + name, *value]) == 2
        assert "Commands" in capsys.readouterr().out

    def test_batch_is_not_a_command(self, capsys):
        assert main(["repro", "batch"]) == 2


class TestWitnessCommand:
    def test_allowed_weak_outcome_prints_schedule(self, capsys):
        assert main(["repro", "witness", "MP-relaxed"]) == 0
        out = capsys.readouterr().out
        assert "witness execution" in out
        assert "schedule:" in out
        assert "verdict OK" in out

    def test_forbidden_weak_outcome_is_unreachable(self, capsys):
        assert main(["repro", "witness", "LB"]) == 0
        out = capsys.readouterr().out
        assert "unreachable" in out
        assert "verdict OK" in out

    def test_closure_search_yields_concrete_silent_steps(self, capsys):
        # The polling loop's silent bookkeeping must reappear in the
        # schedule even though the (default) closure search fused it.
        assert (
            main(
                [
                    "repro", "witness", "MP-await-relaxed",
                    "--reduction", "closure",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "ε" in out and "verdict OK" in out

    def test_schedule_is_the_same_on_every_run(self, capsys):
        def schedule():
            assert main(["repro", "witness", "MP-relaxed"]) == 0
            out = capsys.readouterr().out
            return [
                line for line in out.splitlines()
                if not line.startswith("telemetry:")
            ]

        first = schedule()
        assert any(line.startswith("schedule:") for line in first)
        assert schedule() == first

    def test_unknown_test_is_usage_error(self, capsys):
        assert main(["repro", "witness", "bogus"]) == 2
        assert "unknown litmus test" in capsys.readouterr().out

    def test_missing_test_is_usage_error(self, capsys):
        assert main(["repro", "witness"]) == 2
        assert "usage" in capsys.readouterr().out


class TestTelemetryOutput:
    def test_litmus_prints_metrics_summary(self, capsys):
        assert main(["repro", "litmus"]) == 0
        out = capsys.readouterr().out
        assert "telemetry:" in out
        assert "states/sec" in out
        assert "ε-fused" in out and "covering-read pruned" in out

    def test_quiet_suppresses_telemetry(self, capsys):
        assert main(["repro", "litmus", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "telemetry:" not in out
        assert "MP-relaxed" in out  # the verdict table stays

    def test_witness_prints_telemetry(self, capsys):
        assert main(["repro", "witness", "MP-relaxed"]) == 0
        assert "telemetry:" in capsys.readouterr().out

    def test_verbose_flag_parses(self, capsys):
        assert main(["repro", "litmus", "-v"]) == 0
        assert "ALL CHECKS PASS" in capsys.readouterr().out

    def test_figures_rejects_quiet(self, capsys):
        assert main(["repro", "figures", "--quiet"]) == 2
        assert "not supported" in capsys.readouterr().out


class TestTraceFlag:
    def _validate(self, path):
        import json

        from repro.obs import validate_event

        events = [
            validate_event(json.loads(line))
            for line in path.read_text().splitlines()
        ]
        assert events
        return events

    def test_litmus_trace_stream_is_schema_valid(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        assert main(["repro", "litmus", "--trace", str(trace)]) == 0
        events = self._validate(trace)
        kinds = [e["ev"] for e in events]
        assert kinds[0] == "litmus.start"
        assert kinds[-1] == "litmus.finish"
        assert kinds.count("explore.start") == kinds.count("explore.finish")
        assert kinds.count("explore.start") == 30  # one span per test
        finishes = [e for e in events if e["ev"] == "explore.finish"]
        table = capsys.readouterr().out
        # Spans and the printed table report the same state counts.
        assert sum(e["states"] for e in finishes) > 0
        assert "telemetry:" in table

    def test_witness_trace_stream(self, capsys, tmp_path):
        trace = tmp_path / "w.jsonl"
        argv = ["repro", "witness", "MP-relaxed", "--trace", str(trace)]
        assert main(argv) == 0
        kinds = [e["ev"] for e in self._validate(trace)]
        assert "explore.start" in kinds and "explore.finish" in kinds

    def test_all_trace_and_dpor_report(self, capsys, tmp_path):
        import json

        trace = tmp_path / "a.jsonl"
        report = tmp_path / "r.json"
        argv = [
            "repro", "all", "--reduction", "dpor",
            "--json", str(report), "--trace", str(trace),
        ]
        assert main(argv) == 0
        kinds = [e["ev"] for e in self._validate(trace)]
        assert kinds[0] == "litmus.start"
        assert kinds[-1] == "litmus.finish"
        data = json.loads(report.read_text())
        assert data["ok"] and data["meta"]["reduction"] == "dpor"
        assert data["metrics"]["counters"]["reduce.dpor.sleep_blocked"] > 0


class TestLintCommand:
    def test_exit_zero_on_shipped_corpus(self, capsys):
        # Everything in the repo lints without error-severity findings.
        assert main(["repro", "lint"]) == 0
        out = capsys.readouterr().out
        assert "programs analysed" in out
        assert "0 error(s)" in out

    def test_lists_every_target(self, capsys):
        main(["repro", "lint"])
        out = capsys.readouterr().out
        assert "litmus/MP-relaxed" in out
        assert "figures/fig1" in out
        assert "examples/" in out

    def test_quiet_hides_clean_lines(self, capsys):
        main(["repro", "lint", "--quiet"])
        quiet = capsys.readouterr().out
        main(["repro", "lint"])
        full = capsys.readouterr().out
        assert len(quiet.splitlines()) < len(full.splitlines())
        assert "programs analysed" in quiet

    def test_findings_show_codes(self, capsys):
        main(["repro", "lint"])
        out = capsys.readouterr().out
        # The relaxed MP shape is annotated racy in the catalog and the
        # detector prints the code inline.
        assert "race" in out

    def test_rejects_foreign_flags(self, capsys):
        assert main(["repro", "lint", "--reduction", "off"]) == 2
        assert "not supported" in capsys.readouterr().out

    def test_fails_on_an_error_severity_finding(self, capsys, monkeypatch):
        import repro.__main__ as cli
        from repro.lang import ast as A
        from repro.lang.expr import Lit, Reg
        from repro.lang.program import Program

        unbound = Program(
            threads={"1": A.Write("x", Reg("q"))}, client_vars={"x": 0}
        )
        # Warnings alone (a dead write) pass.
        warned = Program(
            threads={"1": A.Write("x", Lit(1))}, client_vars={"x": 0}
        )
        monkeypatch.setattr(cli, "lint_targets", lambda: [("ok", warned)])
        assert main(["repro", "lint"]) == 0
        monkeypatch.setattr(
            cli, "lint_targets", lambda: [("bad", unbound), ("ok", warned)]
        )
        capsys.readouterr()
        assert main(["repro", "lint"]) == 1
        out = capsys.readouterr().out
        assert "error[unbound-register]" in out
        assert "lint: 2 programs analysed, 0 clean, 1 error(s)" in out
        assert "SOME CHECKS FAILED" in out
