"""The visible-step memo against unmemoised successor generation.

:func:`~repro.semantics.step.successors` with ``memo=`` serves a repeated
``(γ-id, β-id, thread, orientation, rule, operands)`` visible step from
the exploration's :class:`~repro.semantics.step.StepMemo`: the stored
successor component states were built from the *first* configuration
with those ids, which may differ from the current one in its numeric
timestamps.  The explorer runs the memo under every canonically keyed
policy.  Over the litmus catalog, the abstract-object clients and random
programs:

* **step parity** — at every reachable configuration the memoised edges
  and the unmemoised, eagerly built transitions
  (:func:`~repro.semantics.step.transitions`) agree label for label
  ``(tid, component, action)``, each edge's key equal to the canonical
  key of the eager target, for the plain relation and for the ε-closed,
  covering-pruned one (``successors(prune=True, close=_close_chain)``);
* **exploration parity** — under ``off`` the engine's state count, edge
  count, terminal valuations and stuck set equal those of a raw BFS over
  the unmemoised ``successors`` (the
  :func:`~repro.semantics.witness.find_path` loop), and those of the
  naive-representation explorer (:func:`repro.memory.naive.explore_naive`);
  under ``closure`` and ``dpor`` they equal an unmemoised run of the
  same policy through the same loop, whose memo stores nothing;
* **witnesses** — engine witnesses of the catalog's weak outcomes, under
  ``off`` and ``closure``, replay step by step through the unmemoised
  relation;
* **the bound** — after a complete ``off`` or ``closure`` exploration
  every component state the memo references is, by identity, the ``γ``
  or ``β`` of a stored configuration; under ``dpor`` only the threads
  left outside a persistent set leave a few unstored ones;
* **configuration builds** — a complete exploration whose result
  nobody reads builds only its terminal and stuck configurations, and
  reading ``result.configs`` builds one per other admitted state.

The ``explore.memo.*`` counters are pinned on small ``wide_program``
spaces, and ``reduce.covering_pruned`` on a space where pruned reads
are memo hits.
"""

from collections import deque
from unittest import mock

import pytest
from hypothesis import given, settings

from benchmarks.spaces import wide_program
from repro.engine import ExplorationEngine
from repro.engine.core import explore_sequential
from repro.lang import ast as A
from repro.lang.expr import Lit
from repro.lang.program import Program, Thread
from repro.litmus.catalog import LITMUS_TESTS
from repro.memory.naive import explore_naive
from repro.obs.metrics import Metrics
from repro.semantics import config as config_mod
from repro.semantics import step as step_mod
from repro.semantics.canon import canonical_key
from repro.semantics.config import initial_config
from repro.semantics.reduce import _close_chain, close_config
from repro.semantics.step import StepMemo, successors, transitions
from repro.semantics.witness import replay_witness
from tests.test_property_state_index import programs
from tests.test_semantics_identity import OBJECT_CLIENTS

PROGRAMS = [(t.name, t.build) for t in LITMUS_TESTS] + list(OBJECT_CLIENTS)

#: Safety cap: every space below is explored exhaustively well within it.
MAX_STATES = 30_000

#: The successor relations of the step-parity check: ``(mode kwargs,
#: initial-configuration normalisation)``.
RELATIONS = {
    "plain": ({}, lambda program, cfg: cfg),
    "closed": ({"prune": True, "close": _close_chain}, close_config),
}


def _locals_of(cfg):
    return tuple(
        (tid, cfg.locals[tid].items_sorted()) for tid in sorted(cfg.locals)
    )


def assert_step_parity(program, relation="plain"):
    """BFS over canonical states sharing one memo; at every expanded
    configuration the memoised edges match the unmemoised transitions.
    The queue holds the *unmemoised* targets, so memo hits meet states
    whose timestamps differ numerically from the stored representative.
    Returns the memo."""
    mode, normalise = RELATIONS[relation]
    init = normalise(program, initial_config(program))
    memo = StepMemo(program, init)
    seen = {canonical_key(program, init)}
    queue = deque([init])
    while queue:
        cfg = queue.popleft()
        plain = transitions(program, cfg, **mode)
        memoised = successors(program, cfg, memo=memo, **mode)
        assert len(plain) == len(memoised)
        for p, (tid, component, action, mkey, _g, _b) in zip(
            plain, memoised
        ):
            assert (p.tid, p.component, p.action) == (tid, component, action)
            key = canonical_key(program, p.target)
            assert key == mkey
            if key not in seen:
                assert len(seen) < MAX_STATES, "space unexpectedly large"
                seen.add(key)
                queue.append(p.target)
    return memo


def raw_bfs(program):
    """``(states, edges, terminal valuations, stuck keys)`` of a BFS
    over unmemoised transitions, deduplicated by canonical key."""
    init = initial_config(program)
    seen = {canonical_key(program, init)}
    queue = deque([init])
    edges = 0
    terminals, stuck = set(), set()
    while queue:
        cfg = queue.popleft()
        succs = transitions(program, cfg)
        if not succs:
            if cfg.is_terminal():
                terminals.add(_locals_of(cfg))
            else:
                stuck.add(canonical_key(program, cfg))
            continue
        for tr in succs:
            edges += 1
            key = canonical_key(program, tr.target)
            if key not in seen:
                assert len(seen) < MAX_STATES, "space unexpectedly large"
                seen.add(key)
                queue.append(tr.target)
    return len(seen), edges, terminals, stuck


def _summary(program, result):
    assert not result.truncated
    return (
        result.state_count,
        result.edge_count,
        {_locals_of(cfg) for cfg in result.terminals},
        {canonical_key(program, cfg) for cfg in result.stuck},
    )


class _Unstored(dict):
    """A memo table that keeps no entry: every lookup misses."""

    __slots__ = ()

    def __setitem__(self, key, value):
        pass


class StoreNothing(StepMemo):
    """A :class:`StepMemo` that stores no step, so every rule runs
    afresh."""

    __slots__ = ()

    def __init__(self, program, init):
        super().__init__(program, init)
        self.steps = _Unstored()

    def settle(self):
        self.fresh.clear()


def unmemoised(program, reduction, **kwargs):
    """``explore_sequential`` under ``reduction`` with a memo that
    stores nothing: the same loop and policy, every rule run afresh."""
    with mock.patch.object(step_mod, "StepMemo", StoreNothing):
        return explore_sequential(
            program, MAX_STATES, reduction=reduction, **kwargs
        )


def shared_writes_program(n):
    """``n`` threads, each writing 1 to the shared ``s``, then 1 to its
    own ``x<i>``, then reading ``s`` last: the read meets several
    writes of one value, so the covering-read prune skips candidates,
    and configurations differing only in locals share memo entries."""
    threads = {}
    for i in range(n):
        threads[str(i + 1)] = Thread(
            A.seq(
                A.Write("s", Lit(1)),
                A.Write(f"x{i}", Lit(1)),
                A.Read(f"r{i}", "s"),
            )
        )
    return Program(
        threads=threads,
        client_vars={"s": 0, **{f"x{i}": 0 for i in range(n)}},
    )


def explore_keeping_memo(program, reduction, **kwargs):
    """``(result, memo)``: an exploration and the memo it ran with."""
    memos = []

    class Kept(StepMemo):
        __slots__ = ()

        def __init__(self, program, init):
            super().__init__(program, init)
            memos.append(self)

    with mock.patch.object(step_mod, "StepMemo", Kept):
        result = explore_sequential(
            program, MAX_STATES, reduction=reduction, **kwargs
        )
    (memo,) = memos
    return result, memo


def assert_exploration_parity(program, reduction="off"):
    engine = _summary(
        program, explore_sequential(program, MAX_STATES, reduction=reduction)
    )
    if reduction == "off":
        assert engine == raw_bfs(program)
        assert engine[:3] == explore_naive(program)
    else:
        assert engine == _summary(program, unmemoised(program, reduction))


def unstored_references(program, reduction):
    """``(references, unstored)``: the component states the memo of a
    complete exploration references — one per state of every memoised
    step and of every representative pair — and how many of them are
    neither the ``γ`` nor the ``β`` of a stored configuration."""
    result, memo = explore_keeping_memo(program, reduction)
    assert not result.truncated
    stored = set()
    for cfg in result.configs.values():
        stored.add(id(cfg.gamma))
        stored.add(id(cfg.beta))
    refs = [
        state
        for steps in memo.steps.values()
        for _action, _value, g2, b2, _gid, _bid in steps
        for state in (g2, b2)
    ]
    refs += [state for pair in memo.pairs.values() for state in pair]
    return len(refs), sum(id(state) not in stored for state in refs)


class TestStepParity:
    @pytest.mark.parametrize("relation", sorted(RELATIONS))
    @pytest.mark.parametrize(
        "build", [b for _, b in PROGRAMS], ids=[n for n, _ in PROGRAMS]
    )
    def test_catalog_and_object_clients(self, build, relation):
        assert_step_parity(build(), relation)

    @pytest.mark.parametrize("relation", sorted(RELATIONS))
    @settings(max_examples=25, deadline=None)
    @given(p=programs())
    def test_random_programs(self, p, relation):
        assert_step_parity(p, relation)

    def test_memo_is_hit(self):
        # Configurations whose memories are equal up to timestamp
        # relabelling share their component ids, whatever their
        # continuations and locals: the memo serves them.
        memo = assert_step_parity(wide_program(2, reads=1))
        metrics = Metrics()
        explore_sequential(wide_program(2, reads=1), metrics=metrics)
        counters = metrics.snapshot()["counters"]
        assert counters["explore.memo.entries"] == len(memo.steps)
        assert counters["explore.memo.lookups"] > len(memo.steps)


class TestExplorationParity:
    @pytest.mark.parametrize("reduction", ["off", "closure", "dpor"])
    @pytest.mark.parametrize(
        "build", [b for _, b in PROGRAMS], ids=[n for n, _ in PROGRAMS]
    )
    def test_catalog_and_object_clients(self, build, reduction):
        assert_exploration_parity(build(), reduction)

    @pytest.mark.parametrize("reduction", ["off", "closure", "dpor"])
    @settings(max_examples=25, deadline=None)
    @given(p=programs())
    def test_random_programs(self, p, reduction):
        assert_exploration_parity(p, reduction)


@pytest.mark.parametrize("reduction", ["off", "closure"])
@pytest.mark.parametrize(
    "test", [t for t in LITMUS_TESTS if t.weak_allowed], ids=lambda t: t.name
)
def test_witness_replays_unmemoised(test, reduction):
    program = test.build()
    witness = ExplorationEngine().find_witness(
        program,
        lambda cfg: test.outcome_of(cfg) in test.weak,
        reduction=reduction,
        terminal_only=True,
    )
    assert witness is not None
    final = replay_witness(program, witness)
    assert final.is_terminal()
    assert test.outcome_of(final) in test.weak


class TestBound:
    """The memo holds the visited set's own component states."""

    BOUND_PROGRAMS = [("wide-2x1", lambda: wide_program(2, reads=1))] + [
        (t.name, t.build) for t in LITMUS_TESTS
    ]

    @pytest.mark.parametrize("reduction", ["off", "closure"])
    @pytest.mark.parametrize(
        "build",
        [b for _, b in BOUND_PROGRAMS],
        ids=[n for n, _ in BOUND_PROGRAMS],
    )
    def test_every_reference_is_stored(self, build, reduction):
        refs, unstored = unstored_references(build(), reduction)
        assert refs
        assert unstored == 0

    def test_dpor_leaves_few_unstored(self):
        # dpor memoises the threads outside each persistent set, whose
        # targets it never admits, so a step whose ids are never
        # admitted keeps the rule's states: 48 of 2,926 references
        # (1.6%) over wide_program(2, reads=1) and the catalog.  Bound
        # them at 10%.
        refs = unstored = 0
        for _name, build in self.BOUND_PROGRAMS:
            r, u = unstored_references(build(), "dpor")
            refs += r
            unstored += u
        assert refs
        assert unstored * 10 <= refs

    def test_duplicates_are_not_held(self):
        # Every memoised successor pair is its ids' representative, and
        # the representatives are the pairs of distinct stored states.
        result, memo = explore_keeping_memo(
            wide_program(3, reads=2), "off"
        )
        pairs = {
            (id(cfg.gamma), id(cfg.beta)) for cfg in result.configs.values()
        }
        assert {(id(g), id(b)) for g, b in memo.pairs.values()} == pairs
        assert all(
            (id(g2), id(b2)) in pairs
            for steps in memo.steps.values()
            for _action, _value, g2, b2, _gid, _bid in steps
        )


class TestTargetBuilds:
    """The loop runs on keys and builds no configuration of its own: a
    complete exploration whose result nobody reads builds only its
    terminal and stuck configurations (the initial one is built field
    by field), under every policy, and reading every ``result.configs``
    entry builds one per other admitted state.  A configuration is
    built from its key alone, so its ``cmds``/``locals`` maps wait for
    a reader."""

    @pytest.mark.parametrize("reduction", ["off", "closure", "dpor"])
    def test_builds_only_what_is_read(self, reduction):
        built = [0]
        keyed_config = config_mod.keyed_config

        def counted(*args):
            built[0] += 1
            return keyed_config(*args)

        with mock.patch.object(config_mod, "keyed_config", counted):
            result = explore_sequential(
                wide_program(3, reads=2), reduction=reduction
            )
            assert not result.truncated
            if reduction != "dpor":
                assert (result.state_count, result.edge_count) == (
                    413, 1_062
                )
            sinks = len(result.terminals) + len(result.stuck)
            assert sinks and built[0] == sinks
            for key in result.configs:
                result.configs[key]
            assert built[0] == result.state_count - 1

    def test_unread_result_builds_no_thread_map(self):
        # Plans, memo keys, dedup and the terminal test read thread ids:
        # no admitted configuration gets a cmds or locals map until
        # something reads one.  Only the initial one is built field by
        # field.
        result = explore_sequential(wide_program(3, reads=2))
        assert (result.state_count, len(result.terminals)) == (413, 64)
        mapped = [
            key for key, cfg in result.configs.items()
            if {"cmds", "locals"} & vars(cfg).keys()
        ]
        assert mapped == [result.initial_key]


class TestCounters:
    def test_pinned_on_wide_program(self):
        # wide_program(3, reads=2): 594 visible steps, of which 201 are
        # distinct up to timestamp relabelling.
        metrics = Metrics()
        result = explore_sequential(wide_program(3, reads=2), metrics=metrics)
        counters = metrics.snapshot()["counters"]
        assert result.state_count == 413
        assert counters["explore.memo.lookups"] == 594
        assert counters["explore.memo.entries"] == 201

    @pytest.mark.parametrize(
        "reduction, counts",
        [("off", (14, 10)), ("closure", (14, 10)), ("dpor", (13, 9))],
    )
    def test_pinned_per_policy(self, reduction, counts):
        # Every canonically keyed policy memoises: (lookups, entries) on
        # wide_program(2, reads=1).
        metrics = Metrics()
        explore_sequential(
            wide_program(2, reads=1), reduction=reduction, metrics=metrics
        )
        counters = metrics.snapshot()["counters"]
        assert (
            counters["explore.memo.lookups"],
            counters["explore.memo.entries"],
        ) == counts

    @pytest.mark.parametrize(
        "reduction, states, pruned", [("closure", 226, 180), ("dpor", 196, 138)]
    )
    def test_covering_pruned_replayed_on_hits(self, reduction, states, pruned):
        # A memo hit skips the rule, so it replays the read candidates
        # the covering-read prune skipped when the step was stored: the
        # count equals an unmemoised run's.
        memoised, plain = Metrics(), Metrics()
        result = explore_sequential(
            shared_writes_program(3), reduction=reduction, metrics=memoised
        )
        assert result.state_count == states
        result = unmemoised(
            shared_writes_program(3), reduction, metrics=plain
        )
        assert result.state_count == states
        counters = memoised.counters
        assert counters["explore.memo.lookups"] > counters[
            "explore.memo.entries"
        ]
        assert counters["reduce.covering_pruned"] == pruned
        assert plain.counters["reduce.covering_pruned"] == pruned
