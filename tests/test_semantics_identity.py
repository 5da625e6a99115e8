"""Interned state identity: :func:`canonical_key` against its structural
form :func:`canonical_encoding`, and the scope of the intern tables.

* **Parity.**  Over reachable configurations — every successor target
  of every reachable state, so each canonical state shows up under
  several distinct configuration objects — two keys are equal exactly
  when the two encodings are: the quotient is unchanged.
* **Edge keys.**  Every edge tuple the explorer receives carries its
  target's key, read off the visible-step memo; it equals the key of a
  cache-free rebuild of the target from the edge's ``γ'``, ``β'`` and
  the thread rows on every edge.
* **Key-built configurations.**  An admitted configuration built from
  its key derives ``cmds``/``locals`` equal to an eager rebuild from its
  parent, compares equal to and hashes like that rebuild, survives a
  pickle round trip, and a cache-free copy keys back to its key.
* **The configurations mapping.**  ``result.configs`` keeps breadth-first
  admission order, serves the mapping interface, returns the same
  object on every lookup and builds entries equal to eager rebuilds.
* **Scope.**  Ids are drawn from per-program tables: keys of two
  program objects never compare equal, a configuration keyed under one
  program is re-keyed under another, nothing of the tables or of a
  cached id crosses a pickle, and nothing cached per thread state
  outlives the program.
"""

import dataclasses
import gc
import pickle
import weakref
from collections import deque
from unittest import mock

import pytest
from hypothesis import given, settings

from benchmarks.spaces import wide_program
from repro.engine.core import explore_sequential
from repro.litmus.catalog import LITMUS_TESTS
from repro.semantics import reduce as reduce_mod
from repro.semantics import step as step_mod
from repro.semantics.canon import canonical_encoding, canonical_key
from repro.semantics.config import Config, initial_config
from repro.semantics.explore import explore
from repro.semantics.reduce import _close_chain, close_config, get_strategy
from repro.semantics.step import StepMemo, Transition, transitions
from repro.util.fmap import FMap
from tests.conftest import (
    abstract_lock_client,
    edge_target,
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
    "_thread_ids",
    "_canonical_encoding",
    "_mem_ident",
    "_component_id",
    "_enc_table",
    "_enc_key",
)


def _bfs_targets(program, init, expand, max_states):
    """``init`` plus every target of ``expand`` from every configuration
    reachable through it, BFS deduplicated by canonical key."""
    seen = {canonical_key(program, init)}
    out = [init]
    queue = deque([init])
    while queue:
        cfg = queue.popleft()
        for tr in expand(cfg):
            out.append(tr.target)
            key = canonical_key(program, tr.target)
            if key not in seen:
                assert len(seen) < max_states, "space unexpectedly large"
                seen.add(key)
                queue.append(tr.target)
    return out


def successor_targets(program, max_states=20_000):
    """Every successor target of every reachable configuration, plus
    the initial configuration: under the plain relation, and under the
    ε-closed macro-step relation from the closed initial
    configuration."""
    init = initial_config(program)
    return _bfs_targets(
        program, init, lambda cfg: transitions(program, cfg), max_states
    ) + _bfs_targets(
        program,
        close_config(program, init),
        lambda cfg: transitions(
            program, cfg, prune=True, close=_close_chain
        ),
        max_states,
    )


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


class TestInheritedKeys:
    """A successor arrives with its parent's thread ids, one slot
    replaced: the key of a target built from its edge equals the key of
    a cache-free copy of it."""

    @pytest.mark.parametrize("reduction", ["off", "closure", "dpor"])
    @pytest.mark.parametrize(
        "build",
        [t.build for t in LITMUS_TESTS] + [b for _, b in OBJECT_CLIENTS],
        ids=[t.name for t in LITMUS_TESTS] + [n for n, _ in OBJECT_CLIENTS],
    )
    def test_matches_cache_free_copy(self, build, reduction):
        program = build()
        strategy = get_strategy(reduction)
        init = strategy.normalise_initial(program, initial_config(program))
        memo = StepMemo(program, init)
        if strategy.sleep_expand is None:
            edges = lambda cfg: strategy.successors(program, cfg, memo=memo)
        else:
            edges = lambda cfg: [
                edge
                for edge, _sleep in strategy.sleep_expand(
                    program, cfg, frozenset(), memo=memo
                )
            ]

        def expand(cfg):
            return [
                Transition(e[0], e[1], e[2], edge_target(program, e))
                for e in edges(cfg)
            ]

        targets = _bfs_targets(program, init, expand, 20_000)[1:]
        assert targets
        for t in targets:
            assert "_thread_ids" in vars(t)
            fresh = Config(t.cmds, t.locals, t.gamma, t.beta)
            assert canonical_key(program, t) == canonical_key(program, fresh)


class TestTransitionKeys:
    """The key an edge tuple carries is its target's key: equal to the
    key of a cache-free rebuild of the target from the edge's ``γ'`` and
    ``β'`` and the thread rows its key's thread ids stand for.  Checked
    on every edge ``successors`` returns during an exploration — edges
    to new and to visited states alike and, under dpor, the edges of
    threads the persistent sets leave out, which the loop never
    tests."""

    @pytest.mark.parametrize("reduction", ["off", "closure", "dpor"])
    @pytest.mark.parametrize(
        "build",
        [t.build for t in LITMUS_TESTS] + [b for _, b in OBJECT_CLIENTS],
        ids=[t.name for t in LITMUS_TESTS] + [n for n, _ in OBJECT_CLIENTS],
    )
    def test_key_of_every_transition(self, build, reduction):
        program = build()
        made = []
        successors = step_mod.successors

        def recorded(*args, **kwargs):
            edges = successors(*args, **kwargs)
            made.extend(edges)
            return edges

        off = dataclasses.replace(
            reduce_mod._REGISTRY["off"], successors=recorded
        )
        with mock.patch.object(reduce_mod, "successors", recorded), \
                mock.patch.dict(reduce_mod._REGISTRY, {"off": off}):
            result = explore_sequential(program, 20_000, reduction=reduction)
        assert not result.truncated
        assert all(type(edge) is tuple and len(edge) == 6 for edge in made)
        keys = {edge[3] for edge in made}
        assert set(result.configs) - {result.initial_key} <= keys
        if reduction != "dpor":
            assert len(made) == result.edge_count
            assert keys <= set(result.configs)
        rows = program._interner.rows
        for _tid, _comp, _action, key, gamma, beta in made:
            threads = [rows[i] for i in key[1]]
            fresh = Config(
                FMap({tid: cmd for tid, cmd, _ls in threads}),
                FMap({tid: ls for tid, _cmd, ls in threads}),
                gamma,
                beta,
            )
            assert key == canonical_key(program, fresh)


class TestKeyBuiltConfigs:
    """An admitted configuration is built from its canonical key, its
    ``cmds``/``locals`` derived from the thread rows on first read.
    Checked on every admitted configuration of complete explorations
    against an eager rebuild: its first-discovery parent's maps with
    the stepping thread's slot replaced by its successor thread state,
    the thread state its key's thread id stands for."""

    @pytest.mark.parametrize("reduction", ["off", "closure", "dpor"])
    @pytest.mark.parametrize(
        "build",
        [t.build for t in LITMUS_TESTS] + [b for _, b in OBJECT_CLIENTS],
        ids=[t.name for t in LITMUS_TESTS] + [n for n, _ in OBJECT_CLIENTS],
    )
    def test_matches_eager_rebuild(self, build, reduction):
        program = build()
        result = explore_sequential(
            program, 20_000, reduction=reduction, track_parents=True
        )
        assert not result.truncated
        rows = program._interner.rows
        slot = {tid: i for i, tid in enumerate(program.tids)}
        for key, cfg in result.configs.items():
            parent = result.parents[key]
            if parent is None:
                continue
            parent_key, tid, _component, _action = parent
            source = result.configs[parent_key]
            i = slot[tid]
            assert key[1][:i] + key[1][i + 1:] == (
                parent_key[1][:i] + parent_key[1][i + 1:]
            )
            row_tid, cmd, ls = rows[key[1][i]]
            assert row_tid == tid
            eager = Config(
                source.cmds.set(tid, cmd),
                source.locals.set(tid, ls),
                cfg.gamma,
                cfg.beta,
            )
            assert (cfg.cmds, cfg.locals) == (eager.cmds, eager.locals)
            assert cfg == eager and hash(cfg) == hash(eager)
            assert repr(cfg) == repr(eager)
            copy = pickle.loads(pickle.dumps(cfg))
            assert copy == cfg and hash(copy) == hash(cfg)
            fresh = Config(cfg.cmds, cfg.locals, cfg.gamma, cfg.beta)
            assert canonical_key(program, fresh) == key


def bfs_order(program):
    """The canonical keys of ``program``'s states in breadth-first
    admission order, from a search over eagerly built transitions that
    dedups on keys and keeps every configuration."""
    init = initial_config(program)
    order = [canonical_key(program, init)]
    seen = set(order)
    queue = deque([init])
    while queue:
        for tr in transitions(program, queue.popleft()):
            key = canonical_key(program, tr.target)
            if key not in seen:
                seen.add(key)
                order.append(key)
                queue.append(tr.target)
    return order


class TestConfigsMapping:
    """``result.configs`` is a read-only key → configuration mapping in
    breadth-first admission order, built on first access and kept: the
    mapping interface works, lookups are identity-stable, and every
    entry equals, hashes like and pickles like an eager rebuild from its
    first-discovery parent (as in :class:`TestKeyBuiltConfigs`)."""

    PROGRAMS = [
        ("wide-3x2", lambda: wide_program(3, reads=2)),
        ("MP-await-RA", {t.name: t for t in LITMUS_TESTS}["MP-await-RA"].build),
        ("seqlock", seqlock_client),
    ]

    @pytest.mark.parametrize(
        "build", [b for _, b in PROGRAMS], ids=[n for n, _ in PROGRAMS]
    )
    def test_mapping(self, build):
        program = build()
        result = explore_sequential(program, 20_000, track_parents=True)
        assert not result.truncated
        configs = result.configs
        order = bfs_order(program)
        assert list(configs) == list(configs.keys()) == order
        assert len(configs) == result.state_count == len(order)
        assert order[0] == result.initial_key
        assert configs[result.initial_key] is result.initial
        assert all(key in configs for key in order)
        assert canonical_key(program, initial_config(program)) in configs
        assert ("not", "a", "key") not in configs
        with pytest.raises(KeyError):
            configs[("not", "a", "key")]
        items = list(configs.items())
        assert [key for key, _cfg in items] == order
        slot = {tid: i for i, tid in enumerate(program.tids)}
        rows = program._interner.rows
        for key, cfg in items:
            assert configs[key] is cfg and configs.get(key) is cfg
            assert canonical_key(program, cfg) == key
            parent = result.parents[key]
            if parent is None:
                continue
            parent_key, tid, _component, _action = parent
            source = configs[parent_key]
            _tid, cmd, ls = rows[key[1][slot[tid]]]
            eager = Config(
                source.cmds.set(tid, cmd),
                source.locals.set(tid, ls),
                cfg.gamma,
                cfg.beta,
            )
            assert cfg == eager and hash(cfg) == hash(eager)
            copy = pickle.loads(pickle.dumps(cfg))
            assert copy == eager and hash(copy) == hash(eager)
        assert [cfg for _key, cfg in items] == list(configs.values())


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
            cfg = transitions(p1, cfg)[-1].target
        k1 = canonical_key(p1, cfg)
        k2 = canonical_key(p2, cfg)
        assert k1[0] is not k2[0]
        assert k1 != k2
        # The id under p2 is p2's own: equal to the key of a
        # configuration that was never keyed under p1.
        fresh = initial_config(p2)
        for _ in range(3):
            fresh = transitions(p2, fresh)[-1].target
        assert canonical_key(p2, fresh) == k2
        # And p1 still recognises its own.
        assert canonical_key(p1, cfg) == k1

    def test_nothing_outlives_the_program(self):
        def explore_all():
            program = {t.name: t for t in LITMUS_TESTS}["MP-await-RA"].build()
            bodies = [
                weakref.ref(program.body_of(tid)) for tid in program.tids
            ]
            for reduction in ("off", "closure", "dpor"):
                result = explore(program, reduction=reduction)
                for cfg in result.configs.values():
                    for tid in program.tids:
                        cfg.pc(tid, program)
            return bodies

        bodies = explore_all()
        gc.collect()
        # Every cache of a thread state dies with its program: no
        # process-wide table keeps the program's AST alive.
        assert [ref for ref in bodies if ref() is not None] == []

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
