"""The compact config codec: round-trip exactness and interning.

The codec (:mod:`repro.memory.codec`) changes how configurations are
written, never what they mean: a pickle round-trip must be
value-identical — bit-identical canonical keys, equal raw fields — on
hypothesis-random configurations and across the litmus catalog; the
decode side must intern repeated actions and timestamps.
"""

import pickle
from fractions import Fraction

from hypothesis import given, settings

from repro.litmus.catalog import LITMUS_TESTS
from repro.memory import codec
from repro.memory.actions import Action, Op, mk_method, mk_update, mk_write
from repro.memory.naive import NaiveComponentState
from repro.semantics.canon import canonical_key
from repro.semantics.explore import explore
from tests.test_property_semantics import programs


def _roundtrip(obj):
    return pickle.loads(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))


class TestRoundTrip:
    def test_litmus_configs_bit_identical(self):
        for test in LITMUS_TESTS[:8]:
            program = test.build()
            result = explore(program)
            for cfg in result.configs.values():
                back = _roundtrip(cfg)
                assert back == cfg
                assert canonical_key(program, back) == canonical_key(
                    program, cfg
                )

    @settings(max_examples=30, deadline=None)
    @given(p=programs())
    def test_random_configs_bit_identical(self, p):
        result = explore(p, max_states=300)
        for cfg in result.configs.values():
            back = _roundtrip(cfg)
            assert back == cfg
            assert canonical_key(p, back) == canonical_key(p, cfg)

    def test_naive_state_decodes_as_itself(self):
        """Subclasses of ComponentState survive the codec as their own
        class (the naive reference state stays naive)."""
        from repro.memory.naive import naive_initial_config

        cfg = naive_initial_config(LITMUS_TESTS[0].build())
        back = _roundtrip(cfg)
        assert type(back.gamma) is NaiveComponentState
        assert back == cfg


class TestActionEncoding:
    def test_trailing_defaults_truncated(self):
        plain = mk_write("x", 1, "1")
        _fn, args = codec.reduce_action(plain)
        assert args == ("wr", "x", "1", 1)  # rdval/method/index/sync gone
        assert Action(*args) == plain

    def test_all_fields_preserved(self):
        for act in (
            mk_write("x", 0, "2", release=True),
            mk_update("y", 1, 2, "1"),
            mk_method("lock", "acquire", tid="1", index=3, sync=True),
            Action(kind="wr", var="x", tid=None, val=None),
        ):
            assert _roundtrip(act) == act

    def test_op_timestamp_numeric_pair(self):
        op = Op(mk_write("x", 1, "1"), Fraction(3, 2))
        _fn, args = codec.reduce_op(op)
        assert args[1:] == (3, 2)
        back = _roundtrip(op)
        assert back == op and back.ts == Fraction(3, 2)


class TestInterning:
    def test_actions_and_timestamps_interned_on_decode(self):
        codec.clear_intern_tables()
        op = Op(mk_write("x", 1, "1"), Fraction(5, 4))
        a = _roundtrip(op)
        b = _roundtrip(op)
        assert a.act is b.act  # one Action object per distinct value
        assert a.ts is b.ts  # one Fraction object per distinct rational

    def test_intern_tables_bounded(self, monkeypatch):
        codec.clear_intern_tables()
        monkeypatch.setattr(codec, "_INTERN_MAX", 8)
        ops = [
            Op(mk_write("x", v, "1"), Fraction(v + 1, 1)) for v in range(50)
        ]
        for op in ops:
            back = _roundtrip(op)
            assert back == op  # overflow flushes, never corrupts
        assert len(codec._TIMESTAMPS) <= 8

    def test_eviction_keeps_the_newest_half(self, monkeypatch):
        """Overflow evicts the *oldest* half: entries interned recently
        must still be shared after the table hits its bound (a clear()
        would drop them all and cost every hot op its sharing)."""
        codec.clear_intern_tables()
        monkeypatch.setattr(codec, "_INTERN_MAX", 8)
        for v in range(8):  # fill to the bound
            _roundtrip(Op(mk_write("x", v, "1"), Fraction(v + 1, 1)))
        recent = _roundtrip(Op(mk_write("x", 7, "1"), Fraction(8, 1)))
        # Trigger eviction with one fresh value...
        _roundtrip(Op(mk_write("x", 99, "1"), Fraction(100, 1)))
        assert len(codec._TIMESTAMPS) <= 8
        # ...and the newest pre-eviction entries survive as the same
        # objects, while the oldest were dropped.
        again = _roundtrip(Op(mk_write("x", 7, "1"), Fraction(8, 1)))
        assert again.act is recent.act
        assert again.ts is recent.ts
        assert ("wr", "x", "1", 7) in codec._ACTIONS
        assert ("wr", "x", "1", 0) not in codec._ACTIONS
        assert (8, 1) in codec._TIMESTAMPS
        assert (1, 1) not in codec._TIMESTAMPS


class TestEncodeInto:
    """The buffer-direct entry points used by the shm ring transport."""

    def test_round_trip_matches_dumps_format(self):
        program = LITMUS_TESTS[0].build()
        result = explore(program)
        batch = [
            (bytes(8), cfg) for cfg in list(result.configs.values())[:6]
        ]
        buf = memoryview(bytearray(1 << 20))
        n = codec.encode_batch_into(batch, buf)
        blob = pickle.dumps(batch, pickle.HIGHEST_PROTOCOL)
        assert n == len(blob)  # same pickler, same wire format
        assert bytes(buf[:n]) == blob
        assert codec.decode_batch_from(buf[:n]) == batch

    def test_buffer_full_when_encoding_overruns(self):
        import pytest

        batch = [("digest" * 10, "payload" * 10)]
        with pytest.raises(codec.BufferFull):
            codec.encode_batch_into(batch, memoryview(bytearray(32)))

    def test_partial_write_does_not_escape_buffer(self):
        """An overrun must stop at the buffer boundary, never write
        past it."""
        import pytest

        backing = bytearray(64 + 16)
        canary = b"\xAA" * 16
        backing[64:] = canary
        batch = [("x" * 200, "y" * 200)]
        with pytest.raises(codec.BufferFull):
            codec.encode_batch_into(batch, memoryview(backing)[:64])
        assert bytes(backing[64:]) == canary
