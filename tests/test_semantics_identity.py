"""Interned state identity: :func:`canonical_key` against its structural
form :func:`canonical_encoding`, and the scope of the intern tables.

* **Parity.**  Over reachable configurations — every successor target
  of every reachable state, so each canonical state shows up under
  several distinct configuration objects — two keys are equal exactly
  when the two encodings are: the quotient is unchanged.
* **Scope.**  Ids are drawn from per-program tables: keys of two
  program objects never compare equal, a configuration keyed under one
  program is re-keyed under another, and nothing of the tables or of a
  cached id crosses a pickle.
"""

import pickle
from collections import deque

import pytest
from hypothesis import given, settings

from repro.litmus.catalog import LITMUS_TESTS
from repro.semantics.canon import canonical_encoding, canonical_key
from repro.semantics.config import initial_config
from repro.semantics.explore import explore
from repro.semantics.step import successors
from tests.conftest import (
    abstract_lock_client,
    mp_relaxed,
    seqlock_client,
    spinlock_client,
    stack_program,
    ticketlock_client,
)
from tests.test_property_state_index import programs

OBJECT_CLIENTS = (
    ("abstract-lock", abstract_lock_client),
    ("seqlock", seqlock_client),
    ("ticketlock", ticketlock_client),
    ("spinlock", spinlock_client),
    ("stack-mp", lambda: stack_program(sync=True)),
)

#: Names of the attributes the canonical layer caches on programs,
#: configurations and component states.
_CACHED = (
    "_interner",
    "_canonical_key",
    "_canonical_encoding",
    "_mem_ident",
    "_component_id",
    "_enc_table",
    "_enc_key",
)


def successor_targets(program, max_states=20_000):
    """Every successor target of every reachable configuration (BFS
    deduplicated by canonical key), plus the initial configuration."""
    init = initial_config(program)
    seen = {canonical_key(program, init)}
    out = [init]
    queue = deque([init])
    while queue:
        cfg = queue.popleft()
        for tr in successors(program, cfg):
            out.append(tr.target)
            key = canonical_key(program, tr.target)
            if key not in seen:
                assert len(seen) < max_states, "space unexpectedly large"
                seen.add(key)
                queue.append(tr.target)
    return out


def assert_identity_parity(program, configs):
    """``canonical_key`` equality ⇔ ``canonical_encoding`` equality over
    ``configs``: both partition them into the same classes."""
    keys = [canonical_key(program, cfg) for cfg in configs]
    encs = [canonical_encoding(program, cfg) for cfg in configs]
    classes = len(set(zip(keys, encs)))
    assert len(set(keys)) == classes == len(set(encs))


class TestParity:
    @pytest.mark.parametrize("test", LITMUS_TESTS, ids=lambda t: t.name)
    def test_litmus_catalog(self, test):
        program = test.build()
        assert_identity_parity(program, successor_targets(program))

    @pytest.mark.parametrize(
        "build", [b for _, b in OBJECT_CLIENTS], ids=[n for n, _ in OBJECT_CLIENTS]
    )
    def test_object_clients(self, build):
        program = build()
        configs = successor_targets(program)
        assert_identity_parity(program, configs)
        # Library states whose modification views reach into the client
        # component are exercised (the "foreign" memory parts).
        assert any(
            any(
                o.act.var in program.client_var_names
                for view in cfg.beta.mview.values()
                for o in view.values()
            )
            for cfg in configs
        )

    @settings(max_examples=25, deadline=None)
    @given(p=programs())
    def test_random_programs(self, p):
        assert_identity_parity(p, successor_targets(p))

    def test_state_counts_unchanged(self):
        for name, build in OBJECT_CLIENTS:
            program = build()
            r = explore(program)
            encodings = {
                canonical_encoding(program, cfg) for cfg in r.configs.values()
            }
            assert len(encodings) == r.state_count, name


class TestScope:
    def test_keys_of_two_programs_never_equal(self):
        p1, p2 = mp_relaxed(), mp_relaxed()
        assert p1 == p2
        r1, r2 = explore(p1), explore(p2)
        assert r1.state_count == r2.state_count
        assert not set(r1.configs) & set(r2.configs)
        assert canonical_key(p1, initial_config(p1)) != canonical_key(
            p2, initial_config(p2)
        )

    def test_rekeyed_under_second_program(self):
        p1, p2 = mp_relaxed(), mp_relaxed()
        cfg = initial_config(p1)
        for _ in range(3):
            cfg = successors(p1, cfg)[-1].target
        k1 = canonical_key(p1, cfg)
        k2 = canonical_key(p2, cfg)
        assert k1[0] is not k2[0]
        assert k1 != k2
        # The id under p2 is p2's own: equal to the key of a
        # configuration that was never keyed under p1.
        fresh = initial_config(p2)
        for _ in range(3):
            fresh = successors(p2, fresh)[-1].target
        assert canonical_key(p2, fresh) == k2
        # And p1 still recognises its own.
        assert canonical_key(p1, cfg) == k1

    def test_pickles_carry_no_table_or_cached_id(self):
        program = seqlock_client()
        r = explore(program)
        cfg = next(iter(r.configs.values()))
        canonical_encoding(program, cfg)
        for obj in (program, cfg, cfg.gamma, cfg.beta):
            blob = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
            for attr in _CACHED + ("KeyScope",):
                assert attr.encode() not in blob, (type(obj), attr)
            back = pickle.loads(blob)
            assert back == obj
            assert not set(vars(back)) & set(_CACHED)
        back = pickle.loads(pickle.dumps(program))
        assert explore(back).state_count == r.state_count
