"""The JSONL trace stream: timestamped span + sample events.

A :class:`TraceWriter` appends one JSON object per line to a file (or
any writable stream).  The stream is the machine-readable counterpart
of the CLI's progress line — and the substrate the planned
``repro serve`` mode will stream to clients — so its schema is stable
and versioned.

Wire format (schema version 2)
------------------------------
Every line is one JSON object with three envelope fields::

    {"v": 2, "ts": 1717171717.123, "ev": "explore.start", ...}

``v``
    schema version (integer, currently :data:`SCHEMA_VERSION`);
``ts``
    event time as a Unix timestamp (float seconds);
``ev``
    event name, one of the keys of :data:`EVENTS`.

Event payloads (additional fields may be appended in later versions —
consumers must ignore unknown fields; the fields below are guaranteed):

``explore.start``
    an engine exploration began — ``reduction``, ``max_states``;
``explore.finish``
    its span end — ``states``, ``edges``, ``elapsed`` (seconds),
    ``truncated``, ``stopped``, ``states_per_sec``;
``explore.cached``
    an ``engine.run()`` served from the persistent result cache
    (no exploration span) — ``key`` (the cache fingerprint);
``metrics.sample``
    a metrics snapshot — ``metrics`` (the
    :meth:`repro.obs.metrics.Metrics.snapshot` dict); emitted by the
    engine after each exploration's ``explore.finish``;
``analysis.report``
    the engine's pre-exploration static analysis ran (``analysis=``
    policies other than ``"off"``) — ``policy``, ``errors``,
    ``warnings`` (finding counts by severity);
``litmus.start`` / ``litmus.finish``
    CLI litmus battery span — ``tests`` / ``ok``;
``batch.start`` / ``batch.finish``
    batch-runner span — ``jobs`` (names), ``workers`` / ``ok``,
    ``elapsed``;
``batch.job.start`` / ``batch.job.finish``
    one batch job's lifecycle — ``job`` / ``job``, ``ok``,
    ``elapsed``.  With ``workers > 1`` the jobs run in a process pool:
    start events are emitted at submission and finish events as
    results arrive, all from the coordinating process.

Events are emitted by the coordinating process only — batch job
processes never touch the trace file, so no interleaving or locking
concerns arise.  :func:`validate_event` checks one decoded line against
the schema; the test-suite validates every stream the CLI produces.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, Optional

#: Trace schema version, the ``v`` field of every event.  2 dropped
#: ``explore.start``'s ``backend``/``workers`` fields and the
#: ``explore.drain`` event (the engine explores in-process only).
SCHEMA_VERSION = 2

#: Environment variable naming a JSONL trace file the CLI appends to
#: (the ``--trace FILE`` flag wins when both are given).
TRACE_ENV = "REPRO_TRACE"

#: The event schema: event name -> required payload fields and their
#: JSON types.  ``float`` accepts ints (JSON has one number type);
#: ``int`` rejects booleans (a common JSON-typing footgun).
EVENTS: Dict[str, Dict[str, type]] = {
    "explore.start": {"reduction": str, "max_states": int},
    "explore.finish": {
        "states": int, "edges": int, "elapsed": float,
        "truncated": bool, "stopped": bool, "states_per_sec": float,
    },
    "explore.cached": {"key": str},
    "metrics.sample": {"metrics": dict},
    "analysis.report": {"policy": str, "errors": int, "warnings": int},
    "litmus.start": {"tests": int},
    "litmus.finish": {"ok": bool},
    "batch.start": {"jobs": list, "workers": int},
    "batch.finish": {"ok": bool, "elapsed": float},
    "batch.job.start": {"job": str},
    "batch.job.finish": {"job": str, "ok": bool, "elapsed": float},
}


def validate_event(obj: object) -> Dict:
    """Check one decoded JSONL line against the schema.

    Returns the object unchanged; raises :class:`ValueError` naming the
    first problem.  Unknown *fields* are allowed (forward
    compatibility); unknown *events* are not.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"trace event must be an object, got {type(obj)}")
    if obj.get("v") != SCHEMA_VERSION:
        raise ValueError(f"unsupported trace schema version {obj.get('v')!r}")
    ts = obj.get("ts")
    if not isinstance(ts, (int, float)) or isinstance(ts, bool):
        raise ValueError(f"bad ts {ts!r}")
    ev = obj.get("ev")
    if ev not in EVENTS:
        raise ValueError(f"unknown event {ev!r}")
    for field, ftype in EVENTS[ev].items():
        if field not in obj:
            raise ValueError(f"{ev}: missing field {field!r}")
        value = obj[field]
        if ftype is float:
            ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        elif ftype is int:
            ok = isinstance(value, int) and not isinstance(value, bool)
        elif ftype is bool:
            ok = isinstance(value, bool)
        else:
            ok = isinstance(value, ftype)
        if not ok:
            raise ValueError(
                f"{ev}: field {field!r} should be {ftype.__name__}, "
                f"got {value!r}"
            )
    return obj


class TraceWriter:
    """An append-only JSONL event sink (see the module docstring).

    ``target`` is a path (opened in append mode, so successive commands
    pointed at one file accumulate a session log) or any object with a
    ``write`` method.  Lines are flushed per event: a crashed run's
    trace is complete up to the crash.
    """

    def __init__(self, target) -> None:
        if hasattr(target, "write"):
            self._fh = target
            self._own = False
            self.path = getattr(target, "name", None)
        else:
            self._fh = open(target, "a", encoding="utf-8")
            self._own = True
            self.path = str(target)

    def __repr__(self) -> str:
        state = "closed" if self._fh is None else "open"
        return f"TraceWriter({self.path!r}, {state})"

    def emit(self, ev: str, **fields) -> None:
        """Append one event; no-op after :meth:`close`."""
        if self._fh is None:
            return
        record = {"v": SCHEMA_VERSION, "ts": time.time(), "ev": ev}
        record.update(fields)
        self._fh.write(json.dumps(record, sort_keys=True, default=str) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None and self._own:
            self._fh.close()
        self._fh = None

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def trace_from_env() -> Optional[TraceWriter]:
    """A :class:`TraceWriter` on the ``REPRO_TRACE`` file, or None."""
    path = os.environ.get(TRACE_ENV, "").strip()
    return TraceWriter(path) if path else None
