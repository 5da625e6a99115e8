"""Compact on-wire codec for configurations crossing process boundaries.

The sharded pipeline (:mod:`repro.engine.pipeline`) ships
configurations between processes as pickled batches, and on a large
state space those batches *are* the inter-process traffic: every byte
is encoded once by the discovering worker and decoded once by the
owning worker.  Python's default
dataclass pickling is wasteful for this workload — each
:class:`~repro.memory.actions.Action` travels as an 8-entry ``__dict__``
(key strings and default-valued fields included), each timestamp as a
``Fraction`` class reference plus a decimal string — so the semantic
value classes define ``__reduce__`` in terms of the reconstructors in
this module:

* **positional encoding** — an object is reduced to ``(reconstructor,
  field values)``, no attribute-name keys and no state dict;
* **trailing-default truncation** — an ``Action``'s unset kind-specific
  fields (``rdval``/``method``/``index``/``sync`` for a plain write, …)
  are simply omitted and restored from the dataclass defaults;
* **numeric timestamps** — an :class:`~repro.memory.actions.Op` carries
  its timestamp as a ``(numerator, denominator)`` integer pair instead
  of a pickled ``Fraction``;
* **decode-side interning** — the reconstructors intern repeated
  actions and timestamps in per-process tables, so the configurations a
  worker decodes share one object per distinct action/timestamp.
  Beyond memory, interning restores the *identity* sharing that makes
  pickle's memoisation effective when the worker re-encodes successor
  states, and it lets the cached ``Action``/``Op`` hashes be computed
  once per distinct value rather than once per decoded occurrence.

The format changes how objects are written, not what they mean: a
round-trip is value-identical (bit-identical canonical keys — property-
tested).

For the shared-memory rings (:mod:`repro.engine.shm`) the module
exposes a *buffer-direct* form of the wire format:
:func:`encode_batch_into` streams the pickle straight into a caller-
provided ``memoryview`` (ring-buffer memory) so a cross-shard batch is
serialised without ever materialising an intermediate ``bytes`` blob —
raising :class:`BufferFull` when the batch does not fit, so the caller
can fall back to chunked frames — and :func:`decode_batch_from`
deserialises from a buffer without copying it out first, raising the
typed :class:`CodecError` on a corrupt frame.  When a metrics collector
is active both record their time as ``codec.encode_ns`` /
``codec.decode_ns``.
"""

from __future__ import annotations

import pickle
import time
from fractions import Fraction
from itertools import islice
from typing import Tuple

from repro.memory.actions import Action, Op
from repro.memory.state import ComponentState
from repro.obs import metrics as _metrics
from repro.semantics.config import Config

#: Per-process intern tables (decode side).  Bounded by half-eviction
#: (see :func:`_evict_half`) — the distinct-value populations (action
#: field tuples, timestamp rationals) grow with the program, not the
#: state count, so the caps exist only as a backstop against
#: pathological workloads (very long multi-program batch runs).
_ACTIONS: dict = {}
_TIMESTAMPS: dict = {}
_INTERN_MAX = 1 << 20


def _evict_half(table: dict) -> None:
    """Drop the oldest-inserted half of an intern table.

    Same discipline as the fingerprint module's ``_SUB_DIGESTS`` memo:
    dicts preserve insertion order, and the live working set — the
    actions/timestamps of the *current* program's batches — is by
    construction the recently inserted half, so a long run sheds dead
    entries from earlier programs without ever dropping (and re-building,
    losing the identity sharing of) the entries it is actively using,
    which a full ``clear()`` forced.
    """
    drop = len(table) // 2
    for key in list(islice(table, drop)):
        del table[key]

#: ``Action`` dataclass defaults, positionally aligned with its fields
#: ``(kind, var, tid, val, rdval, method, index, sync)``.  ``kind`` and
#: ``var`` have no defaults and are always encoded.
_ACTION_DEFAULTS = (None, None, None, None, None, None, None, False)


def clear_intern_tables() -> None:
    """Drop both intern tables (test isolation / memory pressure)."""
    _ACTIONS.clear()
    _TIMESTAMPS.clear()


# -- reduce (encode side) ---------------------------------------------------


def reduce_action(act: Action) -> Tuple:
    """``Action`` → ``(_act, non-default field prefix)``."""
    args = (
        act.kind, act.var, act.tid, act.val, act.rdval, act.method,
        act.index, act.sync,
    )
    n = 8
    while n > 2 and args[n - 1] == _ACTION_DEFAULTS[n - 1]:
        n -= 1
    return (_act, args[:n])


def reduce_op(op: Op) -> Tuple:
    """``Op`` → ``(_op, (action, ts numerator, ts denominator))``."""
    ts = op.ts
    return (_op, (op.act, ts.numerator, ts.denominator))


def reduce_component_state(state: ComponentState) -> Tuple:
    """``ComponentState`` → its four defining fields, positionally.

    Derived data (indices, view-map caches) is never encoded.
    Subclasses (the naive reference state) carry their class so they
    decode as themselves.
    """
    cls = type(state)
    if cls is ComponentState:
        return (_cstate, (state.ops, state.tview, state.mview, state.cvd))
    return (
        _cstate_of, (cls, state.ops, state.tview, state.mview, state.cvd)
    )


def reduce_config(cfg: Config) -> Tuple:
    """``Config`` → ``(P, ls, γ, β)`` positionally, dropping any cached
    canonical data (process-specific derived state)."""
    return (_config, (cfg.cmds, cfg.locals, cfg.gamma, cfg.beta))


# -- reconstructors (decode side) -------------------------------------------


def _act(*args) -> Action:
    """Rebuild (and intern) an ``Action`` from its non-default prefix."""
    try:
        cached = _ACTIONS.get(args)
    except TypeError:  # unhashable value field: rebuild without interning
        return Action(*args)
    if cached is None:
        if len(_ACTIONS) >= _INTERN_MAX:
            _evict_half(_ACTIONS)
        cached = _ACTIONS[args] = Action(*args)
    return cached


def _op(act: Action, num: int, den: int) -> Op:
    """Rebuild an ``Op``, interning its timestamp rational."""
    key = (num, den)
    ts = _TIMESTAMPS.get(key)
    if ts is None:
        if len(_TIMESTAMPS) >= _INTERN_MAX:
            _evict_half(_TIMESTAMPS)
        ts = _TIMESTAMPS[key] = Fraction(num, den)
    return Op(act, ts)


def _cstate(ops, tview, mview, cvd) -> ComponentState:
    return ComponentState(ops=ops, tview=tview, mview=mview, cvd=cvd)


def _cstate_of(cls, ops, tview, mview, cvd) -> ComponentState:
    return cls(ops=ops, tview=tview, mview=mview, cvd=cvd)


def _config(cmds, locals_, gamma, beta) -> Config:
    return Config(cmds=cmds, locals=locals_, gamma=gamma, beta=beta)


# -- buffer-direct batch form (shared-memory rings) -------------------------


class BufferFull(Exception):
    """Raised by :func:`encode_batch_into` when the batch's encoding
    does not fit in the buffer the caller provided."""


class _ViewWriter:
    """Minimal write-only file object over a fixed ``memoryview``.

    ``pickle.Pickler`` needs only ``write``; each call lands the chunk
    directly in the target buffer (ring memory), raising
    :class:`BufferFull` the moment the encoding would overrun it.
    """

    __slots__ = ("_buf", "pos")

    def __init__(self, buf: memoryview):
        self._buf = buf
        self.pos = 0

    def write(self, data) -> int:
        n = len(data)
        end = self.pos + n
        if end > len(self._buf):
            raise BufferFull(end)
        self._buf[self.pos:end] = data
        self.pos = end
        return n


def encode_batch_into(batch, buf: memoryview) -> int:
    """Encode a cross-shard batch straight into ``buf``; return the
    number of bytes written.

    This is the same compact wire format as ``pickle.dumps(batch,
    HIGHEST_PROTOCOL)`` — the pickler picks up the value classes'
    ``__reduce__`` methods — but streamed through a writer over the
    caller's buffer, so no intermediate ``bytes`` object is ever
    built.  Raises :class:`BufferFull` (buffer unmodified in any way
    the caller observes — the write position is discarded) when the
    encoding exceeds ``len(buf)``.
    """
    t0 = time.perf_counter_ns()
    writer = _ViewWriter(buf)
    try:
        pickle.Pickler(writer, pickle.HIGHEST_PROTOCOL).dump(batch)
    finally:
        m = _metrics._ACTIVE
        if m is not None:
            m.inc("codec.encode_ns", time.perf_counter_ns() - t0)
    return writer.pos


class CodecError(ValueError):
    """A batch frame that does not decode (truncated or corrupted)."""


def decode_batch_from(buf) -> list:
    """Decode a batch from a buffer (``memoryview``/``bytes``) without
    requiring the caller to copy it out first; every decode failure
    surfaces as :class:`CodecError`."""
    t0 = time.perf_counter_ns()
    try:
        batch = pickle.loads(buf)
    except Exception as exc:
        raise CodecError(f"corrupt batch frame: {exc}") from exc
    m = _metrics._ACTIVE
    if m is not None:
        m.inc("codec.decode_ns", time.perf_counter_ns() - t0)
    return batch
