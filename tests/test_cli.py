"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main, run_figures, run_litmus, run_refine


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

    @pytest.mark.parametrize("command", ["litmus", "batch"])
    def test_profile_flag_is_usage_error(self, capsys, command, tmp_path):
        # Profiling is `python -m cProfile -o FILE -m repro ...`.
        profile = tmp_path / "p.prof"
        assert main(["repro", command, "--profile", str(profile)]) == 2
        assert not profile.exists()

    def test_malformed_strategy_is_usage_error(self, capsys):
        assert main(["repro", "litmus", "--strategy", "bfs:7"]) == 2
        assert "unknown exploration strategy" in capsys.readouterr().out


class TestFigureChecks:
    """``figures`` and the batch ``figures`` job read one set of rows."""

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

    def test_batch_job_fails_on_a_failing_row(self, failing_row):
        from repro.engine.batch import run_job

        result = run_job("figures")
        assert not result.ok
        assert result.detail == failing_row


class TestReductionFlag:
    def test_litmus_reduction_off(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert main(["repro", "litmus", "--reduction", "off"]) == 0
        out = capsys.readouterr().out
        assert "ALL CHECKS PASS" in out
        # Unreduced exploration of MP-ring-3-RA stores the full space.
        assert "MP-ring-3-RA             368" in out

    def test_litmus_reduction_closure_default(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
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


class TestWorkersFlag:
    @pytest.mark.parametrize(
        "argv",
        [
            ["litmus"], ["refine"], ["witness", "MP-relaxed"], ["all"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_exploring_commands_reject_workers(self, capsys, argv):
        # Explorations always run in-process; only batch has workers.
        assert main(["repro", *argv, "--workers", "2"]) == 2
        assert "--workers not supported" in capsys.readouterr().out

    def test_batch_workers_runs_jobs_in_processes(
        self, capsys, monkeypatch, tmp_path
    ):
        import json

        monkeypatch.setenv("REPRO_CACHE", "0")
        report = tmp_path / "report.json"
        argv = [
            "repro", "batch", "--workers", "2", "--jobs", "litmus,figures",
            "--json", str(report), "--quiet",
        ]
        assert main(argv) == 0
        assert "ALL CHECKS PASS" in capsys.readouterr().out
        data = json.loads(report.read_text())
        assert data["ok"] and data["workers"] == 2
        assert [j["name"] for j in data["jobs"]] == ["litmus", "figures"]

    def test_batch_reduction_json(self, capsys, monkeypatch, tmp_path):
        import json

        monkeypatch.setenv("REPRO_CACHE", "0")
        report = tmp_path / "report.json"
        assert (
            main(
                [
                    "repro", "batch", "--jobs", "litmus",
                    "--json", str(report),
                ]
            )
            == 0
        )
        data = json.loads(report.read_text())
        assert data["ok"]
        rows = data["jobs"][0]["detail"]
        assert all(r["reduction"] == "closure" for r in rows)
        by_name = {r["name"]: r for r in rows}
        ring = by_name["MP-ring-3-RA"]
        # states: explored (reduced); full_states: from the committed
        # baseline, not a re-run.
        assert ring["states"] == 65
        assert ring["full_states"] == 368
        # Passing rows embed no witness schedule.
        assert all("witness" not in r for r in rows)


class TestWitnessCommand:
    def test_allowed_weak_outcome_prints_schedule(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert main(["repro", "witness", "MP-relaxed"]) == 0
        out = capsys.readouterr().out
        assert "witness execution" in out
        assert "schedule:" in out
        assert "verdict OK" in out

    def test_forbidden_weak_outcome_is_unreachable(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert main(["repro", "witness", "LB"]) == 0
        out = capsys.readouterr().out
        assert "unreachable" in out
        assert "verdict OK" in out

    def test_closure_search_yields_concrete_silent_steps(
        self, capsys, monkeypatch
    ):
        # The polling loop's silent bookkeeping must reappear in the
        # schedule even though the (default) closure search fused it.
        monkeypatch.setenv("REPRO_CACHE", "0")
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

    def test_unknown_test_is_usage_error(self, capsys):
        assert main(["repro", "witness", "bogus"]) == 2
        assert "unknown litmus test" in capsys.readouterr().out

    def test_missing_test_is_usage_error(self, capsys):
        assert main(["repro", "witness"]) == 2
        assert "usage" in capsys.readouterr().out


class TestTelemetryOutput:
    def test_litmus_prints_metrics_summary(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert main(["repro", "litmus"]) == 0
        out = capsys.readouterr().out
        assert "telemetry:" in out
        assert "states/sec" in out
        assert "ε-fused" in out and "covering-read pruned" in out

    def test_litmus_warm_run_prints_structured_cache_stats(
        self, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["repro", "litmus"]) == 0
        capsys.readouterr()
        assert main(["repro", "litmus"]) == 0  # warm: zero explorations
        out = capsys.readouterr().out
        assert "engine: 0 explorations" in out
        assert "cache 30 hits / 0 misses" in out  # on the telemetry line
        assert "30 hits, 0 misses" in out  # the structured cache line
        assert "entries on disk" in out

    def test_quiet_suppresses_telemetry(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert main(["repro", "litmus", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "telemetry:" not in out
        assert "MP-relaxed" in out  # the verdict table stays

    def test_witness_prints_telemetry(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert main(["repro", "witness", "MP-relaxed"]) == 0
        assert "telemetry:" in capsys.readouterr().out

    def test_verbose_flag_parses(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
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

    def test_litmus_trace_stream_is_schema_valid(
        self, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_CACHE", "0")
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

    def test_witness_trace_stream(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE", "0")
        trace = tmp_path / "w.jsonl"
        argv = ["repro", "witness", "MP-relaxed", "--trace", str(trace)]
        assert main(argv) == 0
        kinds = [e["ev"] for e in self._validate(trace)]
        assert "explore.start" in kinds and "explore.finish" in kinds

    def test_batch_trace_and_report_blocks(
        self, capsys, monkeypatch, tmp_path
    ):
        import json

        monkeypatch.setenv("REPRO_CACHE", "0")
        trace = tmp_path / "b.jsonl"
        report = tmp_path / "report.json"
        assert (
            main(
                [
                    "repro", "batch", "--jobs", "litmus,figures",
                    "--json", str(report), "--trace", str(trace),
                ]
            )
            == 0
        )
        kinds = [e["ev"] for e in self._validate(trace)]
        assert kinds[0] == "batch.start" and kinds[-1] == "batch.finish"
        assert kinds.count("batch.job.start") == 2
        assert kinds.count("batch.job.finish") == 2
        data = json.loads(report.read_text())
        # Satellite: the meta block makes archived reports
        # self-describing.
        meta = data["meta"]
        assert meta["schema"] == 5
        assert meta["python"] and meta["platform"]
        assert meta["cpu_count"] >= 1
        assert meta["workers"] == 1
        assert "engine_workers" not in meta
        assert meta["reduction"] == "closure"
        # The litmus job carries telemetry; the aggregate mirrors it.
        litmus_job = next(j for j in data["jobs"] if j["name"] == "litmus")
        counters = litmus_job["metrics"]["counters"]
        assert counters["explore.states"] > 0
        assert data["metrics"]["counters"]["explore.states"] == (
            counters["explore.states"]
        )
        figures_job = next(j for j in data["jobs"] if j["name"] == "figures")
        assert figures_job["metrics"] is None


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


class TestAnalysisFlag:
    def test_litmus_accepts_warn(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert main(["repro", "litmus", "--analysis", "warn", "--quiet"]) == 0
        assert "ALL CHECKS PASS" in capsys.readouterr().out

    def test_unknown_policy_rejected(self, capsys):
        assert main(["repro", "litmus", "--analysis", "bogus"]) == 2
        out = capsys.readouterr().out
        assert "analysis" in out

    def test_figures_reject_analysis(self, capsys):
        assert main(["repro", "figures", "--analysis", "warn"]) == 2
        assert "not supported" in capsys.readouterr().out
