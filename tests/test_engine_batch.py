"""Tests for the batch job runner and its JSON report."""

import json

import pytest

from repro.engine import ResultCache
from repro.engine.batch import JOB_NAMES, BatchReport, JobResult, run_batch, run_job


class TestRunJob:
    def test_litmus_job(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        result = run_job("litmus")
        assert result.ok
        assert result.name == "litmus"
        assert len(result.detail) > 0
        assert all("verdict_ok" in row for row in result.detail)

    def test_figures_job(self):
        result = run_job("figures", use_cache=False)
        assert result.ok
        names = {row["check"] for row in result.detail}
        assert {"figure-1", "figure-7", "lemma-4-outline"} <= names

    def test_unknown_job_rejected(self):
        with pytest.raises(ValueError, match="unknown job"):
            run_job("frobnicate")

    def test_job_detail_is_json_safe(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        result = run_job("litmus")
        json.dumps(result.to_dict())


class TestRunBatch:
    def test_sequential_subset(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        report = run_batch(jobs=["litmus", "figures"], workers=1)
        assert report.ok
        assert [j.name for j in report.jobs] == ["litmus", "figures"]

    def test_parallel_jobs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        report = run_batch(jobs=["litmus", "figures"], workers=2)
        assert report.ok
        assert report.workers == 2
        assert {j.name for j in report.jobs} == {"litmus", "figures"}

    def test_json_report_written(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        out = tmp_path / "report.json"
        report = run_batch(jobs=["litmus"], json_path=str(out))
        data = json.loads(out.read_text())
        assert data["ok"] is report.ok
        assert data["jobs"][0]["name"] == "litmus"
        assert isinstance(data["jobs"][0]["elapsed"], float)

    def test_meta_records_per_job_reduction(self, tmp_path, monkeypatch):
        """The meta block states each job's *effective*
        reduction policy: the batch-level policy applies to the litmus
        battery only — figures/refinements always explore unreduced."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        out = tmp_path / "report.json"
        report = run_batch(
            jobs=["litmus", "figures"],
            json_path=str(out),
            reduction="dpor",
        )
        assert report.ok
        meta = json.loads(out.read_text())["meta"]
        assert meta["schema"] == 5
        assert meta["reduction"] == "dpor"
        assert meta["jobs"] == {
            "litmus": {"reduction": "dpor"},
            "figures": {"reduction": "off"},
        }
        # Default job list: every registered job gets an entry.
        from repro.engine.batch import batch_meta

        full = batch_meta(1, True, "closure")
        assert set(full["jobs"]) == set(JOB_NAMES)
        assert full["jobs"]["refine-spinlock"] == {"reduction": "off"}

    def test_unknown_job_rejected_up_front(self):
        with pytest.raises(ValueError, match="unknown job"):
            run_batch(jobs=["litmus", "nope"])

    def test_default_runs_all_jobs_names(self):
        assert set(JOB_NAMES) == {
            "litmus",
            "figures",
            "refine-seqlock",
            "refine-ticketlock",
            "refine-spinlock",
        }

    def test_batch_uses_shared_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        run_batch(jobs=["litmus"], workers=1)
        report = run_batch(jobs=["litmus"], workers=1)
        assert report.ok
        assert all(row["cached"] for row in report.jobs[0].detail)
        assert len(ResultCache(tmp_path)) > 0


class TestReportShapes:
    def test_describe_mentions_all_jobs(self):
        report = BatchReport(
            jobs=[
                JobResult(name="litmus", ok=True, elapsed=0.5),
                JobResult(name="figures", ok=False, elapsed=1.0, error="Boom: x"),
            ],
            workers=2,
            elapsed=1.5,
        )
        text = report.describe()
        assert "litmus" in text and "figures" in text
        assert "FAIL" in text and "ERROR" in text
        assert not report.ok

    def test_to_json_round_trips(self):
        report = BatchReport(
            jobs=[JobResult(name="litmus", ok=True, elapsed=0.1, detail=[])],
            workers=1,
            elapsed=0.1,
        )
        assert json.loads(report.to_json())["jobs"][0]["ok"] is True


class TestDiagnosticsBlock:
    def test_litmus_job_carries_diagnostics(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.litmus.catalog import LITMUS_TESTS

        result = run_job("litmus")
        diag = result.diagnostics
        assert diag is not None
        assert diag["analysed"] == len(LITMUS_TESTS)
        assert diag["errors"] == 0  # corpus contract: warnings only
        assert diag["warnings"] > 0
        # by_test maps annotated entries to their sorted finding codes.
        assert diag["by_test"]["MP-relaxed"] == ["race"]
        assert "MP-await-RA" not in diag["by_test"]

    def test_by_test_matches_catalog_annotations(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.litmus.catalog import LITMUS_TESTS

        diag = run_job("litmus").diagnostics
        expected = {
            t.name: sorted(t.expect_lint)
            for t in LITMUS_TESTS
            if t.expect_lint
        }
        assert diag["by_test"] == expected

    def test_other_jobs_have_none(self):
        result = run_job("figures", use_cache=False)
        assert result.diagnostics is None
        assert "diagnostics" not in result.to_dict() or result.to_dict()[
            "diagnostics"
        ] is None

    def test_diagnostics_survive_json_round_trip(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        result = run_job("litmus")
        encoded = json.loads(json.dumps(result.to_dict()))
        assert encoded["diagnostics"]["analysed"] > 0
