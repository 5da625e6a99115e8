"""Shared-memory SPSC ring buffers: the pipeline's zero-copy data plane.

The pipeline's cross-shard traffic (:mod:`repro.engine.pipeline`)
moves over one **single-producer / single-consumer byte ring per
ordered worker pair**, laid out in a single
``multiprocessing.shared_memory`` slab.  A batch is encoded exactly
once, *directly into the consumer's mapped memory*
(:func:`repro.memory.codec.encode_batch_into`), and decoded exactly
once from that same memory — no intermediate ``bytes`` object exists
on the default path, and the master never touches a batch.

Ring layout (one region of the slab per directed pair ``s → d``)::

    ┌──────────── 16-byte header ────────────┬──── capacity bytes ────┐
    │ head u32 │ tail u32 │ waiting u32 │ ── │ frame | frame | …      │
    └──────────┴──────────┴─────────────┴────┴────────────────────────┘

``head``/``tail`` are *monotonic* u32 counters (positions are
``counter & (capacity - 1)`` — capacity is forced to a power of two so
the modulus survives the u32 wrap); ``tail`` is written only by the
producer, ``head`` only by the consumer, and each store is a single
aligned 32-bit write (via a ``memoryview.cast("I")``), which is atomic
on every platform CPython runs on.  The producer publishes a frame by
writing payload *then* tail, so ``tail - head > 0`` implies at least
one complete frame is readable.

Frame format (lengths little-endian)::

    flag:u8  length:u32  payload[length]

* ``FLAG_BATCH`` — payload is one complete codec-encoded batch;
* ``FLAG_CHUNK`` / ``FLAG_LAST`` — consecutive pieces of one oversized
  batch (a batch whose encoding cannot fit the ring is encoded to
  bytes once — the single copy on this fallback — and split; SPSC
  FIFO order makes reassembly trivial);
* ``FLAG_WRAP`` — a 1-byte marker meaning "this frame would not fit
  contiguously; skip to offset 0".  Frames are therefore always
  contiguous, which is what lets both the encoder and
  ``pickle.loads`` run over a plain slice of ring memory.

Backpressure is bounded spin → event wait: a producer that finds the
ring full spins briefly on ``head``, then sets the ``waiting`` word,
clears the ring's space event, re-checks, and sleeps on the event with
a timeout; the consumer sets the event after advancing ``head`` iff
``waiting`` is up.  The producer waits for ``head`` to move past the
value it read *before* its failed attempt, so a drain landing between
the attempt and the wait still counts; the timeout covers a missed
event set.
All of a worker's inbound rings share one ``data`` event (set by every
producer after publishing, and by the master alongside control-queue
messages), so an idle worker blocks on a single primitive.

A run-wide ``stop`` event aborts producers blocked on a full ring whose
consumer has stopped draining (early stop / truncation) — dropped
batches are sound there because a stop broadcast already marks the
run's counts as lower bounds, and quiescence termination can never
coincide with a blocked producer (a producer flushes *before* it
reports idle, so its unconsumed traffic shows up as a counter
mismatch).
"""

from __future__ import annotations

import os
import pickle
from typing import Callable, List, Optional, Tuple

from repro.memory.codec import BufferFull, decode_batch_from, encode_batch_into


#: Ring header: head u32 @0, tail u32 @4, waiting u32 @8, reserved @12.
HEADER_SIZE = 16

#: Frame header: flag byte + u32 little-endian payload length.
FRAME_HEADER = 5

FLAG_BATCH = 0x00
FLAG_CHUNK = 0x01
FLAG_LAST = 0x02
FLAG_WRAP = 0xFF

_MASK = 0xFFFFFFFF

#: Default per-ring data capacity (bytes); override with
#: ``REPRO_SHM_RING_CAP``.  Must be (rounded up to) a power of two.
DEFAULT_RING_CAPACITY = 1 << 20

#: Producer-side bounded spin before arming the event wait.
_SPIN = 200

#: Event-wait timeout (seconds) — bounds any missed-wakeup window.
_WAIT = 0.05


def _pow2(n: int) -> int:
    """Round ``n`` up to the next power of two (min 64)."""
    p = 64
    while p < n:
        p <<= 1
    return p


def ring_capacity_from_env() -> int:
    raw = os.environ.get("REPRO_SHM_RING_CAP", "")
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    return _pow2(cap) if cap > 0 else DEFAULT_RING_CAPACITY


_AVAILABLE: Optional[bool] = None


def shm_available() -> bool:
    """Whether ``multiprocessing.shared_memory`` actually works here
    (importable *and* a segment can be created — e.g. /dev/shm exists
    and is writable).  Probed once per process."""
    global _AVAILABLE
    if _AVAILABLE is None:
        try:
            from multiprocessing.shared_memory import SharedMemory

            seg = SharedMemory(create=True, size=64)
            try:
                seg.buf[:4] = b"ping"
                ok = bytes(seg.buf[:4]) == b"ping"
            finally:
                seg.close()
                seg.unlink()
            _AVAILABLE = bool(ok)
        except Exception:
            _AVAILABLE = False
    return _AVAILABLE


class ProducerStopped(Exception):
    """Raised by :meth:`Ring.publish` when the run's stop flag went up
    while the producer was blocked on a full ring."""


class Ring:
    """One SPSC byte ring over a shared-memory region.

    The two sides are asymmetric by construction — exactly one process
    may call the producer methods (:meth:`publish`) and exactly one the
    consumer methods (:meth:`drain`).  ``space_event`` is this ring's
    producer wakeup; ``data_event`` is the *consumer's* shared inbound
    wakeup (one per worker, spanning all its rings).
    """

    __slots__ = (
        "capacity", "_idx", "_data", "space_event", "data_event", "_mask",
        "_chunks",
    )

    def __init__(self, region: memoryview, capacity: int,
                 space_event, data_event) -> None:
        if capacity & (capacity - 1):
            raise ValueError(f"ring capacity must be a power of two: {capacity}")
        self.capacity = capacity
        self._mask = capacity - 1
        self._idx = region[:HEADER_SIZE].cast("I")
        self._data = region[HEADER_SIZE:HEADER_SIZE + capacity]
        self.space_event = space_event
        self.data_event = data_event
        self._chunks = bytearray()  # consumer-side oversize reassembly

    def release(self) -> None:
        """Release the underlying memory views so the backing
        ``SharedMemory`` mapping can close without exported pointers."""
        self._idx.release()
        self._data.release()

    # -- shared ------------------------------------------------------------

    def used(self) -> int:
        """Bytes currently occupied (complete frames only)."""
        return (self._idx[1] - self._idx[0]) & _MASK

    def free(self) -> int:
        return self.capacity - self.used()

    # -- producer side -----------------------------------------------------

    def _commit(self, pos: int, flag: int, length: int, tail: int) -> None:
        """Backfill a frame header at ``pos`` and publish the new tail."""
        data = self._data
        data[pos] = flag
        data[pos + 1:pos + FRAME_HEADER] = length.to_bytes(4, "little")
        self._idx[1] = (tail) & _MASK
        self.data_event.set()

    def try_publish(self, batch) -> int:
        """One attempt at a zero-copy single-frame publish.

        Encodes ``batch`` straight into the largest contiguous free
        region (in place, or after a wrap marker when the region at the
        buffer start is bigger), backfills the frame header, publishes.
        Returns bytes-on-wire; raises :class:`BufferFull` untouched
        (tail not advanced — speculative writes are invisible) when the
        encoding does not fit the region.
        """
        idx = self._idx
        head = idx[0]
        tail = idx[1]
        free = self.capacity - ((tail - head) & _MASK)
        pos = tail & self._mask
        contig = self.capacity - pos
        here = min(contig, free) - FRAME_HEADER
        # Payload room at offset 0 after spending ``contig`` bytes on a
        # wrap marker (the free region wraps at the capacity boundary,
        # so the remainder is contiguous from 0).
        there = free - contig - FRAME_HEADER
        if here < 0 and there < 0:
            raise BufferFull(max(here, there))
        if here >= there:
            n = encode_batch_into(
                batch, self._data[pos + FRAME_HEADER:pos + FRAME_HEADER + here]
            )
            self._commit(pos, FLAG_BATCH, n, tail + FRAME_HEADER + n)
            return FRAME_HEADER + n
        # Wrap first: the marker byte sits in the skipped region, which
        # is free by ``free >= contig`` (implied by there >= 0).
        self._data[pos] = FLAG_WRAP
        n = encode_batch_into(
            batch, self._data[FRAME_HEADER:FRAME_HEADER + there]
        )
        self._commit(0, FLAG_BATCH, n, tail + contig + FRAME_HEADER + n)
        return contig + FRAME_HEADER + n

    def _try_frame_bytes(self, flag: int, payload) -> int:
        """One attempt at writing a pre-encoded frame (chunk path)."""
        need = FRAME_HEADER + len(payload)
        idx = self._idx
        head = idx[0]
        tail = idx[1]
        free = self.capacity - ((tail - head) & _MASK)
        pos = tail & self._mask
        contig = self.capacity - pos
        if contig < need:
            if free < contig + need:
                raise BufferFull(need)
            self._data[pos] = FLAG_WRAP
            tail += contig
            pos = 0
        elif free < need:
            raise BufferFull(need)
        self._data[pos + FRAME_HEADER:pos + FRAME_HEADER + len(payload)] = (
            payload
        )
        self._commit(pos, flag, len(payload), tail + need)
        return need

    def _wait_space(self, seen_head: int,
                    stop: Optional[Callable[[], bool]],
                    on_wait: Optional[Callable[[], None]] = None) -> bool:
        """Block until the consumer moves ``head`` past ``seen_head``;
        False if stopped.

        ``seen_head`` must be read *before* the failed publish attempt:
        a consumer that drains the ring between that attempt and this
        wait has already moved ``head``, so the wait returns at once.
        Re-reading ``head`` here instead would wait for an advance that
        never comes once the ring is empty — a hang the stop flag
        cannot break, because the run is not quiescent while this
        producer holds an unpublished batch.

        ``on_wait`` runs on every blocked iteration.  The pipeline
        workers pass their inbound-ring drain here: two workers whose
        rings fill simultaneously would otherwise deadlock, each
        blocked publishing while the batches the other needs consumed
        sit in its own inbound rings.
        """
        idx = self._idx
        for _ in range(_SPIN):
            if idx[0] != seen_head:
                return True
        idx[2] = 1  # waiting — consumer will set space_event on advance
        try:
            while idx[0] == seen_head:
                if stop is not None and stop():
                    return False
                if on_wait is not None:
                    on_wait()
                    if idx[0] != seen_head:
                        break
                self.space_event.clear()
                if idx[0] != seen_head:
                    break
                self.space_event.wait(_WAIT)
        finally:
            idx[2] = 0
        return True

    def publish(self, batch,
                stop: Optional[Callable[[], bool]] = None,
                on_wait: Optional[Callable[[], None]] = None,
                ) -> Tuple[int, int, int, int]:
        """Publish one batch, blocking on a full ring.

        Returns ``(wire_bytes, frames, copies, full_waits)`` where
        ``copies`` counts intermediate batch materialisations (0 on the
        zero-copy path, 1 when the batch had to be chunked).  Raises
        :class:`ProducerStopped` if ``stop()`` went truthy while
        blocked — the caller is shutting down and the batch is dropped.
        ``on_wait`` runs on every blocked iteration (see
        :meth:`_wait_space`).
        """
        waits = 0
        while True:
            seen = self._idx[0]
            try:
                wire = self.try_publish(batch)
                return wire, 1, 0, waits
            except BufferFull:
                pass
            if self.used() == 0:
                # Even an empty ring cannot hold the encoding in one
                # contiguous frame: fall back to chunked frames.
                return self._publish_chunked(batch, stop, on_wait, waits)
            waits += 1
            if not self._wait_space(seen, stop, on_wait):
                raise ProducerStopped

    def _publish_chunked(self, batch, stop, on_wait, waits: int
                         ) -> Tuple[int, int, int, int]:
        # The one copy on this path: the oversized batch is encoded to
        # an intermediate bytes object, then streamed as CHUNK*, LAST.
        blob = pickle.dumps(batch, pickle.HIGHEST_PROTOCOL)
        # Quarter-capacity pieces: a frame plus the wrap it may need
        # (under one frame's worth) always fits an empty ring, so every
        # chunk is eventually publishable at any capacity.
        piece = self.capacity // 4
        view = memoryview(blob)
        offsets = range(0, len(blob), piece)
        last = offsets[-1]
        wire = 0
        frames = 0
        for off in offsets:
            flag = FLAG_LAST if off == last else FLAG_CHUNK
            part = view[off:off + piece]
            while True:
                seen = self._idx[0]
                try:
                    wire += self._try_frame_bytes(flag, part)
                    frames += 1
                    break
                except BufferFull:
                    waits += 1
                    if not self._wait_space(seen, stop, on_wait):
                        raise ProducerStopped from None
        return wire, frames, 1, waits

    # -- consumer side -----------------------------------------------------

    def _advance(self, new_head: int) -> None:
        idx = self._idx
        idx[0] = new_head & _MASK
        if idx[2]:  # producer armed the wait — wake it
            self.space_event.set()

    def drain(self, sink: Callable[[list], None]) -> int:
        """Decode every complete batch currently in the ring, calling
        ``sink(batch)`` for each; returns the number of batches.

        Decoding happens *before* ``head`` advances — ``pickle.loads``
        reads the ring memory directly (no copy-out), and the region
        only becomes writable to the producer once ``head`` moves past
        it.
        """
        batches = 0
        idx = self._idx
        data = self._data
        mask = self._mask
        while True:
            head = idx[0]
            if ((idx[1] - head) & _MASK) == 0:
                return batches
            pos = head & mask
            flag = data[pos]
            if flag == FLAG_WRAP:
                self._advance(head + (self.capacity - pos))
                continue
            length = int.from_bytes(data[pos + 1:pos + FRAME_HEADER], "little")
            payload = data[pos + FRAME_HEADER:pos + FRAME_HEADER + length]
            if flag == FLAG_BATCH:
                batch = decode_batch_from(payload)
                self._advance(head + FRAME_HEADER + length)
                sink(batch)
                batches += 1
            else:  # CHUNK / LAST — reassemble, then decode
                self._chunks += payload
                self._advance(head + FRAME_HEADER + length)
                if flag == FLAG_LAST:
                    batch = decode_batch_from(bytes(self._chunks))
                    self._chunks.clear()
                    sink(batch)
                    batches += 1


class ShmExchange:
    """All ``workers × (workers - 1)`` rings in one shared-memory slab,
    plus the event plumbing: one ``data`` event per worker (inbound
    wakeup), one ``space`` event per ring (producer wakeup), one
    run-wide ``stop`` event.

    Created master-side; workers receive the exchange by fork
    inheritance or pickle (the slab travels as its name and is
    re-attached lazily — see ``__getstate__``).  The master must call
    :meth:`cleanup` when the run ends; workers call :meth:`attach`
    (idempotent) before building their ring views.
    """

    def __init__(self, workers: int, ctx,
                 capacity: Optional[int] = None) -> None:
        from multiprocessing.shared_memory import SharedMemory

        cap = _pow2(capacity) if capacity else ring_capacity_from_env()
        self.workers = workers
        self.capacity = cap
        self._stride = HEADER_SIZE + cap
        n_rings = workers * (workers - 1)
        self._slab = SharedMemory(create=True, size=n_rings * self._stride)
        self.name = self._slab.name
        self._owner = True
        self.data_events = [ctx.Event() for _ in range(workers)]
        self.space_events = [ctx.Event() for _ in range(n_rings)]
        self.stop_event = ctx.Event()
        self._rings: List[Ring] = []  # views handed out in this process
        # SharedMemory segments are born zero-filled, so every ring
        # header (head = tail = waiting = 0) is already initialised.

    # -- process transfer --------------------------------------------------

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_slab"] = None  # re-attached by name in the new process
        state["_owner"] = False
        state["_rings"] = []  # views are per-process
        return state

    def attach(self) -> None:
        """Map the slab in this process (no-op when already mapped)."""
        if self._slab is not None:
            return
        from multiprocessing import resource_tracker
        from multiprocessing.shared_memory import SharedMemory

        self._slab = SharedMemory(name=self.name)
        try:
            # Pre-3.13 resource_tracker registers every attach and then
            # unlinks the segment when *any* attaching process exits —
            # the master owns the lifecycle, so detach the tracker here.
            resource_tracker.unregister(self._slab._name, "shared_memory")
        except Exception:
            pass

    # -- ring construction -------------------------------------------------

    def _ring_index(self, src: int, dst: int) -> int:
        return src * (self.workers - 1) + (dst if dst < src else dst - 1)

    def ring(self, src: int, dst: int) -> Ring:
        """The ``src → dst`` ring, viewed over this process's mapping."""
        if src == dst:
            raise ValueError("no self-ring: same-shard successors stay local")
        self.attach()
        i = self._ring_index(src, dst)
        region = self._slab.buf[i * self._stride:(i + 1) * self._stride]
        ring = Ring(
            region, self.capacity,
            space_event=self.space_events[i],
            data_event=self.data_events[dst],
        )
        self._rings.append(ring)
        return ring

    def out_rings(self, wid: int) -> dict:
        """Producer views for worker ``wid``: ``{dst: Ring}``."""
        return {
            d: self.ring(wid, d) for d in range(self.workers) if d != wid
        }

    def in_rings(self, wid: int) -> List[Tuple[int, Ring]]:
        """Consumer views for worker ``wid``: ``[(src, Ring), ...]``."""
        return [
            (s, self.ring(s, wid)) for s in range(self.workers) if s != wid
        ]

    def wake(self, wid: int) -> None:
        """Wake worker ``wid``'s inbound wait (used by the master when
        posting control-queue messages)."""
        self.data_events[wid].set()

    def wake_all(self) -> None:
        for ev in self.data_events:
            ev.set()
        for ev in self.space_events:
            ev.set()

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        for ring in self._rings:
            try:
                ring.release()
            except Exception:
                pass
        self._rings = []
        if self._slab is not None:
            try:
                self._slab.close()
            except Exception:
                pass
            self._slab = None

    def cleanup(self) -> None:
        """Master-side teardown: unmap and unlink the slab.  Safe to
        call more than once and after worker exits."""
        from multiprocessing.shared_memory import SharedMemory

        self.close()
        if self._owner:
            self._owner = False
            try:
                seg = SharedMemory(name=self.name)
                seg.close()
                seg.unlink()
            except FileNotFoundError:
                pass
            except Exception:
                pass
