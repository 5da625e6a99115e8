"""Unit tests for the shared-memory ring transport
(:mod:`repro.engine.shm`).

The ring layer is exercised directly — frame round-trips, wraparound,
oversize-batch chunking, backpressure wait/wake, producer death — plus
the exchange lifecycle guarantees the pipeline builds on: no leaked
``SharedMemory`` segments after clean *or* unclean runs.
"""

import glob
import multiprocessing
import os
import threading
import time

import pytest

from repro.engine.shm import (
    DEFAULT_RING_CAPACITY,
    FLAG_WRAP,
    HEADER_SIZE,
    ProducerStopped,
    Ring,
    ShmExchange,
    shm_available,
)
from repro.memory.codec import (
    BufferFull,
    CodecError,
    decode_batch_from,
    encode_batch_into,
)

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="SharedMemory unavailable on this host"
)


def _ctx():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def _local_ring(capacity=1024):
    """A ring over plain process-local memory (the ring logic never
    cares where the buffer lives), with thread events."""
    buf = memoryview(bytearray(HEADER_SIZE + capacity))
    return Ring(
        buf, capacity,
        space_event=threading.Event(), data_event=threading.Event(),
    )


def _shm_segments():
    return set(glob.glob("/dev/shm/psm_*"))


class TestRing:
    def test_publish_drain_round_trip(self):
        ring = _local_ring()
        batch = [(b"d1", ("cfg", 1)), (b"d2", ("cfg", 2))]
        wire, frames, copies, waits = ring.publish(batch)
        assert frames == 1 and copies == 0 and waits == 0
        assert ring.used() == wire
        got = []
        assert ring.drain(got.append) == 1
        assert got == [batch]
        assert ring.used() == 0

    def test_fifo_order_across_wraparound(self):
        # Capacity small enough that the sequence laps the buffer many
        # times; every batch must come out once, in order, intact.
        ring = _local_ring(capacity=256)
        got = []
        for i in range(200):
            ring.publish([(i, "x" * (i % 23))])
            ring.drain(got.append)
        assert got == [[(i, "x" * (i % 23))] for i in range(200)]

    def test_wrap_marker_consumes_tail_slack(self):
        ring = _local_ring(capacity=256)
        # Leave the write position near the end of the buffer, then
        # publish something that cannot fit contiguously there.
        ring.publish([("pad", "y" * 150)])
        got = []
        ring.drain(got.append)
        ring.publish([("wrapped", "z" * 100)])
        assert ring.drain(got.append) == 1
        assert got[-1] == [("wrapped", "z" * 100)]

    def test_oversize_batch_falls_back_to_chunks(self):
        ring = _local_ring(capacity=512)
        batch = [("big", "q" * 4000)]
        consumed = []
        done = threading.Event()

        def consume():
            while not consumed:
                ring.drain(consumed.append)
                time.sleep(0.001)
            done.set()

        t = threading.Thread(target=consume)
        t.start()
        wire, frames, copies, waits = ring.publish(batch)
        assert done.wait(5.0)
        t.join()
        assert copies == 1  # the one intermediate blob of the fallback
        assert frames > 1  # CHUNK*, LAST
        assert consumed == [batch]

    def test_chunks_fit_the_smallest_ring(self):
        # At the 64-byte minimum capacity an oversize batch still
        # streams through: every chunk frame (plus any wrap) fits an
        # empty ring.  The consumer is the producer's own on_wait.
        ring = _local_ring(capacity=64)
        batch = [("big", "q" * 1000)]
        got = []
        deadline = time.monotonic() + 5.0

        def stop():  # bounds the test if a frame can never fit
            return time.monotonic() > deadline

        wire, frames, copies, waits = ring.publish(
            batch, stop=stop, on_wait=lambda: ring.drain(got.append)
        )
        ring.drain(got.append)
        assert copies == 1 and frames > 1
        assert got == [batch]

    def test_drain_before_the_wait_is_not_a_lost_wakeup(self, monkeypatch):
        # The consumer empties the ring after the producer's failed
        # attempt but before it arms its wait: that head advance must
        # count, or the producer waits forever on an empty ring.
        ring = _local_ring(capacity=512)
        filler = [("fill", "f" * 300)]
        ring.publish(filler)
        got = []
        used = Ring.used

        def used_then_drain(self):
            n = used(self)
            if not got:
                self.drain(got.append)
            return n

        monkeypatch.setattr(Ring, "used", used_then_drain)
        # stop is always up: a wait that does not see the drain raises.
        wire, frames, copies, waits = ring.publish(filler, stop=lambda: True)
        monkeypatch.setattr(Ring, "used", used)
        assert waits == 1
        ring.drain(got.append)
        assert got == [filler, filler]

    def test_chunk_drain_before_the_wait_is_not_a_lost_wakeup(
        self, monkeypatch
    ):
        # Same race on the chunked path, between two chunk frames.
        ring = _local_ring(capacity=256)
        batch = [("big", "q" * 1000)]
        got = []
        try_frame = Ring._try_frame_bytes

        def drain_on_full(self, flag, payload):
            try:
                return try_frame(self, flag, payload)
            except BufferFull:
                self.drain(got.append)
                raise

        monkeypatch.setattr(Ring, "_try_frame_bytes", drain_on_full)
        wire, frames, copies, waits = ring.publish(batch, stop=lambda: True)
        monkeypatch.setattr(Ring, "_try_frame_bytes", try_frame)
        assert copies == 1 and waits >= 1
        ring.drain(got.append)
        assert got == [batch]

    def test_backpressure_blocks_until_consumer_drains(self):
        ring = _local_ring(capacity=512)
        filler = [("fill", "f" * 300)]
        ring.publish(filler)  # ring now too full for a second batch
        published = threading.Event()

        def produce():
            ring.publish(filler)
            published.set()

        t = threading.Thread(target=produce)
        t.start()
        assert not published.wait(0.1)  # genuinely blocked on full
        got = []
        ring.drain(got.append)
        assert published.wait(5.0)
        t.join()
        ring.drain(got.append)
        assert got == [filler, filler]

    def test_blocked_producer_aborts_on_stop(self):
        ring = _local_ring(capacity=512)
        ring.publish([("fill", "f" * 300)])
        stop = threading.Event()
        raised = threading.Event()

        def produce():
            try:
                ring.publish([("more", "g" * 300)], stop=stop.is_set)
            except ProducerStopped:
                raised.set()

        t = threading.Thread(target=produce)
        t.start()
        assert not raised.wait(0.1)
        stop.set()
        assert raised.wait(5.0)
        t.join()

    def test_buffer_full_is_not_destructive(self):
        ring = _local_ring(capacity=256)
        ring.publish([("keep", 1)])
        with pytest.raises(BufferFull):
            ring.try_publish([("nope", "w" * 1000)])
        got = []
        assert ring.drain(got.append) == 1
        assert got == [[("keep", 1)]]

    def test_capacity_must_be_power_of_two(self):
        buf = memoryview(bytearray(HEADER_SIZE + 100))
        with pytest.raises(ValueError, match="power of two"):
            Ring(buf, 100, threading.Event(), threading.Event())


class TestRingConfigs:
    def test_real_configs_round_trip(self):
        from repro.engine.fingerprint import stable_digest
        from repro.litmus.catalog import LITMUS_TESTS
        from repro.semantics.explore import explore

        result = explore(LITMUS_TESTS[0].build())
        batch = [
            (stable_digest(repr(i).encode()), cfg)
            for i, cfg in enumerate(list(result.configs.values())[:8])
        ]
        ring = _local_ring(capacity=1 << 16)
        ring.publish(batch)
        got = []
        assert ring.drain(got.append) == 1
        assert got == [batch]


class TestEncodeInto:
    def test_matches_codec_wire_format(self):
        import pickle

        batch = [(b"digest", {"k": [1, 2, 3]})]
        buf = memoryview(bytearray(4096))
        n = encode_batch_into(batch, buf)
        assert 0 < n <= 4096
        assert decode_batch_from(buf[:n]) == batch
        assert pickle.loads(bytes(buf[:n])) == batch

    def test_raises_when_too_small(self):
        batch = [("x" * 100, "y" * 100)]
        with pytest.raises(BufferFull):
            encode_batch_into(batch, memoryview(bytearray(16)))

    def test_corrupt_frames_raise_codec_error(self):
        batch = [(b"digest", ("cfg", 1))]
        buf = memoryview(bytearray(4096))
        n = encode_batch_into(batch, buf)
        frame = bytes(buf[:n])
        for bad in (b"", frame[: n // 2], b"\x00" + frame[1:]):
            with pytest.raises(CodecError):
                decode_batch_from(bad)


def _producer_then_crash(exchange, batches):
    ring = exchange.ring(0, 1)
    for b in batches:
        ring.publish(b)
    os._exit(3)  # no cleanup, no fragment: simulated crash


class TestExchange:
    def test_rings_cross_process(self):
        ctx = _ctx()
        exchange = ShmExchange(2, ctx, capacity=4096)
        try:
            batches = [[(i, "payload" * i)] for i in range(5)]
            p = ctx.Process(
                target=_producer_then_crash, args=(exchange, batches)
            )
            p.start()
            consumer = exchange.ring(0, 1)
            got = []
            deadline = time.monotonic() + 10.0
            while len(got) < 5 and time.monotonic() < deadline:
                consumer.drain(got.append)
                exchange.data_events[1].wait(0.01)
                exchange.data_events[1].clear()
            p.join()
            assert got == batches
        finally:
            exchange.cleanup()

    def test_producer_crash_leaves_consumer_unblocked(self):
        # A producer that dies mid-run publishes only complete frames
        # (tail moves after payload), so the consumer sees a clean
        # prefix and its bounded waits keep it live — never a hang.
        ctx = _ctx()
        exchange = ShmExchange(2, ctx, capacity=4096)
        try:
            p = ctx.Process(
                target=_producer_then_crash,
                args=(exchange, [[("only", 1)]]),
            )
            p.start()
            p.join()
            assert p.exitcode == 3
            consumer = exchange.ring(0, 1)
            got = []
            consumer.drain(got.append)
            assert got == [[("only", 1)]]
            assert consumer.used() == 0  # nothing half-written left
        finally:
            exchange.cleanup()

    def test_cleanup_unlinks_segment_and_is_idempotent(self):
        before = _shm_segments()
        ctx = _ctx()
        exchange = ShmExchange(3, ctx)
        assert len(_shm_segments()) == len(before) + 1
        exchange.cleanup()
        exchange.cleanup()
        assert _shm_segments() == before

    def test_default_capacity_env_override(self, monkeypatch):
        from repro.engine.shm import ring_capacity_from_env

        assert ring_capacity_from_env() == DEFAULT_RING_CAPACITY
        monkeypatch.setenv("REPRO_SHM_RING_CAP", "5000")
        assert ring_capacity_from_env() == 8192  # next power of two
        monkeypatch.setenv("REPRO_SHM_RING_CAP", "junk")
        assert ring_capacity_from_env() == DEFAULT_RING_CAPACITY


class TestPipelineShutdown:
    def test_clean_run_leaks_no_segments(self):
        from repro.engine import ExplorationEngine
        from repro.litmus.catalog import LITMUS_TESTS

        before = _shm_segments()
        engine = ExplorationEngine(workers=2)
        result = engine.explore(LITMUS_TESTS[0].build())
        assert result.state_count > 0
        assert _shm_segments() == before

    def test_unclean_run_leaks_no_segments(self):
        # A worker-side exception aborts the run through the error
        # path (terminate + join); the slab must still be unlinked.
        from repro.engine import ExplorationEngine
        from repro.litmus.catalog import LITMUS_TESTS

        before = _shm_segments()
        engine = ExplorationEngine(workers=2)

        def boom(cfg):
            raise RuntimeError("worker detonated")

        with pytest.raises(RuntimeError, match="worker detonated"):
            engine.explore(LITMUS_TESTS[0].build(), on_config=boom)
        assert _shm_segments() == before

    def test_tiny_rings_still_reach_parity(self, monkeypatch):
        # Force every batch through backpressure and chunking and the
        # result must still match the sequential reference exactly.
        from repro.engine import ExplorationEngine
        from repro.engine.core import explore_sequential
        from repro.litmus.catalog import LITMUS_TESTS

        monkeypatch.setenv("REPRO_SHM_RING_CAP", "256")
        test = next(t for t in LITMUS_TESTS if t.name == "MP-ring-3-RA")
        ref = explore_sequential(test.build())
        par = ExplorationEngine(workers=2).explore(
            test.build()
        )
        assert par.state_count == ref.state_count
        assert par.edge_count == ref.edge_count
