"""Pickling the semantic values: round-trip exactness, derived data left behind.

A pickled :class:`~repro.semantics.config.Config` may be loaded by
another process, possibly with a different ``PYTHONHASHSEED``.
``Config``, ``ComponentState`` (naive subclass included), ``Action``
and ``Op`` therefore rebuild from their defining fields only: a round
trip must be value-identical (bit-identical canonical keys, equal raw
fields), and nothing process-specific — cached hashes, interned
canonical ids, indices, view caches — may cross.
"""

import pickle
from fractions import Fraction

from hypothesis import given, settings

from repro.litmus.catalog import LITMUS_TESTS
from repro.memory.actions import Action, Op, mk_method, mk_update, mk_write
from repro.memory.naive import NaiveComponentState
from repro.semantics.canon import canonical_encoding, canonical_key
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
        """Subclasses of ComponentState survive the round trip as their
        own class (the naive reference state stays naive)."""
        from repro.memory.naive import naive_initial_config

        cfg = naive_initial_config(LITMUS_TESTS[0].build())
        back = _roundtrip(cfg)
        assert type(back.gamma) is NaiveComponentState
        assert back == cfg

    def test_actions_and_ops(self):
        for act in (
            mk_write("x", 0, "2", release=True),
            mk_update("y", 1, 2, "1"),
            mk_method("lock", "acquire", tid="1", index=3, sync=True),
            Action(kind="wr", var="x", tid=None, val=None),
        ):
            assert _roundtrip(act) == act
        op = Op(mk_write("x", 1, "1"), Fraction(3, 2))
        back = _roundtrip(op)
        assert back == op and back.ts == Fraction(3, 2)


class TestDerivedDataStaysBehind:
    def test_config_drops_cached_keys_and_state_caches(self):
        program = LITMUS_TESTS[0].build()
        result = explore(program)
        cfg = result.terminals[0]
        canonical_key(program, cfg)
        canonical_encoding(program, cfg)
        cfg.gamma.index  # noqa: B018 — materialise the lazy index
        assert "_canonical_key" in cfg.__dict__
        assert "_component_id" in cfg.gamma.__dict__

        back = _roundtrip(cfg)
        assert back == cfg
        assert not {"_canonical_key", "_canonical_encoding"} & set(
            back.__dict__
        )
        for state in (back.gamma, back.beta):
            assert set(state.__dict__) == {"ops", "tview", "mview", "cvd"}

    def test_action_and_op_drop_cached_hashes(self):
        act = mk_write("x", 1, "1")
        op = Op(act, Fraction(1, 1))
        hash(op)
        assert "_hash" in act.__dict__ and op._hash is not None
        back = _roundtrip(op)
        assert back._hash is None
        assert "_hash" not in back.act.__dict__
