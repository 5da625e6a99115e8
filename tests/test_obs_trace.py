"""The JSONL trace stream: writer mechanics, schema validation, and the
events the engine layers actually emit."""

import io
import json

import pytest

from repro.engine import ExplorationEngine
from repro.engine.cache import ResultCache
from repro.litmus.catalog import LITMUS_TESTS
from repro.obs.trace import (
    EVENTS,
    SCHEMA_VERSION,
    TraceWriter,
    trace_from_env,
    validate_event,
)


def _lines(buf: io.StringIO):
    return [json.loads(line) for line in buf.getvalue().splitlines()]


class TestTraceWriter:
    def test_stream_target_one_json_object_per_line(self):
        buf = io.StringIO()
        tw = TraceWriter(buf)
        tw.emit("litmus.start", tests=3)
        tw.emit("litmus.finish", ok=True)
        events = _lines(buf)
        assert [e["ev"] for e in events] == ["litmus.start", "litmus.finish"]
        for e in events:
            assert e["v"] == SCHEMA_VERSION
            assert isinstance(e["ts"], float)
            validate_event(e)

    def test_path_target_appends_across_writers(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TraceWriter(str(path)) as tw:
            tw.emit("litmus.start", tests=1)
        with TraceWriter(str(path)) as tw:
            tw.emit("litmus.finish", ok=False)
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert [e["ev"] for e in events] == ["litmus.start", "litmus.finish"]

    def test_emit_after_close_is_a_noop(self):
        buf = io.StringIO()
        tw = TraceWriter(buf)
        tw.close()
        tw.emit("litmus.start", tests=1)
        assert buf.getvalue() == ""

    def test_non_json_fields_are_stringified(self):
        buf = io.StringIO()
        TraceWriter(buf).emit("explore.cached", key=b"\x01\x02")
        assert isinstance(_lines(buf)[0]["key"], str)

    def test_trace_from_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert trace_from_env() is None
        path = tmp_path / "env.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(path))
        tw = trace_from_env()
        assert tw is not None
        tw.emit("litmus.start", tests=1)
        tw.close()
        validate_event(json.loads(path.read_text()))


class TestValidateEvent:
    def _ok(self, **overrides):
        base = {"v": SCHEMA_VERSION, "ts": 1.0, "ev": "explore.start",
                "reduction": "off", "max_states": 3}
        base.update(overrides)
        return base

    def test_accepts_valid_and_extra_fields(self):
        validate_event(self._ok())
        validate_event(self._ok(extra="fine"))  # forward compatible

    def test_rejects_non_object(self):
        with pytest.raises(ValueError, match="object"):
            validate_event([1, 2])

    def test_rejects_wrong_version(self):
        with pytest.raises(ValueError, match="version"):
            validate_event(self._ok(v=99))
        # Version 1 guaranteed explore.start's backend/workers fields,
        # which version 2 dropped: old streams are refused, not misread.
        with pytest.raises(ValueError, match="version"):
            validate_event(self._ok(v=1))

    def test_rejects_bad_timestamp(self):
        with pytest.raises(ValueError, match="ts"):
            validate_event(self._ok(ts="now"))
        with pytest.raises(ValueError, match="ts"):
            validate_event(self._ok(ts=True))

    def test_rejects_unknown_event(self):
        with pytest.raises(ValueError, match="unknown event"):
            validate_event(self._ok(ev="explore.bogus"))

    def test_rejects_missing_field(self):
        bad = self._ok()
        del bad["max_states"]
        with pytest.raises(ValueError, match="max_states"):
            validate_event(bad)

    def test_bool_is_not_an_int(self):
        # isinstance(True, int) holds in Python; the schema must not
        # let a boolean masquerade as a count.
        with pytest.raises(ValueError, match="max_states"):
            validate_event(self._ok(max_states=True))

    def test_int_is_a_float(self):
        # JSON has one number type: integral elapsed values are fine.
        ev = {
            "v": SCHEMA_VERSION, "ts": 1, "ev": "batch.finish", "ok": True,
            "elapsed": 2,
        }
        validate_event(ev)
        with pytest.raises(ValueError, match="elapsed"):
            validate_event({**ev, "elapsed": False})

    def test_every_documented_event_has_a_spec(self):
        assert set(EVENTS) == {
            "explore.start", "explore.finish", "explore.cached",
            "metrics.sample", "analysis.report",
            "litmus.start", "litmus.finish",
            "batch.start", "batch.finish",
            "batch.job.start", "batch.job.finish",
        }


class TestEngineEmission:
    def _explore(self, **engine_kwargs):
        buf = io.StringIO()
        engine = ExplorationEngine(trace=TraceWriter(buf), **engine_kwargs)
        result = engine.explore(LITMUS_TESTS[0].build())
        events = _lines(buf)
        for e in events:
            validate_event(e)
        return result, events

    def test_sequential_span_events(self):
        result, events = self._explore()
        kinds = [e["ev"] for e in events]
        assert kinds == ["explore.start", "explore.finish", "metrics.sample"]
        start, finish, sample = events
        assert start["reduction"] == "off"
        assert "backend" not in start and "workers" not in start
        assert finish["states"] == result.state_count
        assert finish["edges"] == result.edge_count
        assert finish["states_per_sec"] > 0
        counters = sample["metrics"]["counters"]
        assert counters["explore.states"] == result.state_count

    def test_cached_run_emits_cached_event(self, tmp_path):
        buf = io.StringIO()
        engine = ExplorationEngine(
            cache=ResultCache(tmp_path), trace=TraceWriter(buf)
        )
        program = LITMUS_TESTS[0].build()
        engine.run(program)
        engine.run(program)
        events = _lines(buf)
        for e in events:
            validate_event(e)
        kinds = [e["ev"] for e in events]
        # Cold: a full exploration span.  Warm: one cached event, no
        # exploration at all.
        assert kinds == [
            "explore.start", "explore.finish", "metrics.sample",
            "explore.cached",
        ]

    def test_trace_without_metrics_sink_still_samples(self):
        # A trace-only engine must still collect per-run metrics to
        # fill its samples (the engine-level sink is simply absent).
        _result, events = self._explore()
        sample = next(e for e in events if e["ev"] == "metrics.sample")
        assert sample["metrics"]["counters"]["explore.states"] > 0


class TestBatchEmission:
    def test_batch_lifecycle_events(self, monkeypatch, tmp_path):
        from repro.engine.batch import run_batch

        monkeypatch.setenv("REPRO_CACHE", "0")
        buf = io.StringIO()
        report = run_batch(jobs=["figures"], trace=TraceWriter(buf))
        events = _lines(buf)
        for e in events:
            validate_event(e)
        assert [e["ev"] for e in events] == [
            "batch.start", "batch.job.start", "batch.job.finish",
            "batch.finish",
        ]
        assert events[0]["jobs"] == ["figures"]
        assert events[2]["job"] == "figures"
        assert events[2]["ok"] is report.ok is True
        assert events[3]["elapsed"] >= events[2]["elapsed"]
