"""Parity suite for the exploration loop's observing options under
every reduction policy.

``collect_edges`` and ``track_parents`` only record what the
breadth-first loop already visits, and the ``on_config`` hook
``checking_invariants`` (``tests/conftest.py``) only asserts
component-state coherence at each expanded configuration: with any
of them on, the loop must visit the very same configurations in the
very same order as the plain loop, under every policy.  So each option
is held to exact agreement with the plain run — state and edge
counts, the discovery order of the stored configurations, terminal
valuations, stuck-existence and litmus verdicts — and the option's own
record must cover exactly the explored states.

The reduction-``off`` catalog sweep lives in
``test_engine_core.py::TestOptionParity``; this file covers the
reduced policies on the catalog, the abstract-object/lock clients
under every policy, ``reachable``/``assert_invariant``-shaped
verdicts, the ``run_litmus`` rows, and the search behaviours (cap,
early stop, a raising ``on_config``, edges, invariants, parents) with
each option on.
"""

import pytest

from repro.engine import ExplorationEngine
from repro.engine.core import explore_sequential
from repro.litmus.catalog import LITMUS_TESTS, run_litmus
from repro.semantics.explore import explore, reachable
from repro.semantics.reduce import REDUCTIONS
from repro.semantics.witness import reconstruct_witness, replay_witness
from tests.conftest import (
    abstract_lock_client,
    checking_invariants,
    observing,
    seqlock_client,
    spinlock_client,
    stack_program,
    ticketlock_client,
)

#: The loop's observing options: each records or checks, none steers.
#: ``check_invariants`` is the ``checking_invariants`` hook.
OPTIONS = ("collect_edges", "track_parents", "check_invariants")
#: The policies that change the explored system (``off`` is swept by
#: ``test_engine_core.py``).
REDUCED = tuple(r for r in REDUCTIONS if r != "off")

OBJECT_CLIENTS = (
    ("abstract-lock", abstract_lock_client),
    ("seqlock", seqlock_client),
    ("ticketlock", ticketlock_client),
    ("spinlock", spinlock_client),
    ("stack-mp", lambda: stack_program(sync=True)),
)

_BY_NAME = {t.name: t for t in LITMUS_TESTS}


def _terminal_valuations(result):
    return {
        tuple(
            sorted((tid, ls.items_sorted()) for tid, ls in cfg.locals.items())
        )
        for cfg in result.terminals
    }


def _explore_with(program, option, reduction="off", **kw):
    """One engine exploration of ``program`` with ``option`` on."""
    engine = ExplorationEngine(reduction=reduction)
    return engine.explore(program, **observing(program, option, **kw))


def _assert_records(result, option, reduction):
    """The option's own record covers exactly the explored states."""
    if option == "collect_edges":
        assert set(result.edges) == set(result.configs)
        recorded = sum(len(out) for out in result.edges.values())
        if reduction == "dpor":
            # A re-expanded state keeps its last expansion's edges,
            # while ``edge_count`` counts every expansion.
            assert recorded <= result.edge_count
        else:
            assert recorded == result.edge_count
    elif option == "track_parents":
        assert set(result.parents) == set(result.configs)
    else:
        assert result.edges is None and result.parents is None


def _assert_parity(ref, other):
    """``other`` visited exactly what the plain run ``ref`` visited."""
    assert not other.truncated and not other.stopped
    assert other.state_count == ref.state_count
    assert other.edge_count == ref.edge_count
    assert list(other.configs) == list(ref.configs)
    assert len(other.terminals) == len(ref.terminals)
    assert len(other.stuck) == len(ref.stuck)
    assert _terminal_valuations(other) == _terminal_valuations(ref)


@pytest.mark.parametrize("option", OPTIONS)
@pytest.mark.parametrize("reduction", REDUCED)
class TestCatalogParity:
    @pytest.mark.parametrize("test", LITMUS_TESTS, ids=lambda t: t.name)
    def test_full_litmus_catalog(self, option, reduction, test):
        # One program object: canonical keys are scoped to it.
        program = test.build()
        ref = explore_sequential(program, reduction=reduction)
        other = _explore_with(program, option, reduction)
        _assert_parity(ref, other)
        _assert_records(other, option, reduction)
        outcomes = ref.terminal_locals(*test.regs)
        assert other.terminal_locals(*test.regs) == outcomes
        # The reduction is invisible at the register level.
        assert explore(program).terminal_locals(*test.regs) == outcomes

    def test_litmus_rows_match(self, option, reduction):
        # run_litmus reads state_count and terminal_locals off the
        # plain engine run; the optioned run gives the same row data.
        engine = ExplorationEngine(reduction=reduction)
        for test in LITMUS_TESTS:
            row = run_litmus(test, engine=engine)
            other = _explore_with(test.build(), option, reduction)
            assert row["verdict_ok"], test.name
            assert other.terminal_locals(*test.regs) == row["outcomes"], (
                test.name
            )
            assert other.state_count == row["states"], test.name


@pytest.mark.parametrize("option", OPTIONS)
@pytest.mark.parametrize("reduction", REDUCTIONS)
@pytest.mark.parametrize(
    "name,build", OBJECT_CLIENTS, ids=[n for n, _ in OBJECT_CLIENTS]
)
class TestObjectClientParity:
    def test_client(self, option, reduction, name, build):
        program = build()
        ref = explore_sequential(program, reduction=reduction)
        other = _explore_with(program, option, reduction)
        _assert_parity(ref, other)
        _assert_records(other, option, reduction)
        if reduction != "off":
            off = explore_sequential(program)
            assert _terminal_valuations(other) == _terminal_valuations(off)
            assert bool(other.stuck) == bool(off.stuck)


@pytest.mark.parametrize("option", OPTIONS)
@pytest.mark.parametrize("reduction", REDUCTIONS)
class TestVerdictParity:
    """``reachable``/``assert_invariant``-shaped verdicts — a pure
    predicate passed as ``on_config`` — agree with the plain wrappers
    with every option on, under every policy."""

    def test_weak_outcome_reachability(self, option, reduction):
        for name in ("MP-relaxed", "MP-RA", "MP-await-RA", "SB-relaxed"):
            test = _BY_NAME[name]

            def weak(cfg, test=test):
                return cfg.is_terminal() and test.outcome_of(cfg) in test.weak

            plain_hit = reachable(
                test.build(), weak, reduction=reduction
            ) is not None
            other = _explore_with(
                test.build(), option, reduction, on_config=weak
            )
            assert other.stopped == plain_hit == test.weak_allowed, name
            if not plain_hit:  # exhaustive no-hit run must stay complete
                assert not other.truncated

    def test_invariant_verdicts(self, option, reduction):
        program = _BY_NAME["MP-ring-2-RA"].build()

        def violates_published(cfg):  # never true: the invariant holds
            if not cfg.is_terminal():
                return False
            return not (
                cfg.local("1", "r0") == 5 and cfg.local("2", "r1") == 5
            )

        held = _explore_with(
            program, option, reduction, on_config=violates_published
        )
        assert not held.stopped and not held.truncated

        def violates_impossible(cfg):  # any non-terminal state violates
            return not cfg.is_terminal()

        broken = _explore_with(
            program, option, reduction, on_config=violates_impossible
        )
        assert broken.stopped


@pytest.mark.parametrize("option", OPTIONS)
class TestSearchBehaviour:
    def test_truncation_respects_cap(self, option):
        result = _explore_with(LITMUS_TESTS[0].build(), option, max_states=3)
        assert result.truncated
        assert result.state_count <= 3

    def test_early_stop(self, option):
        program = _BY_NAME["MP-ring-2-RA"].build()
        full = explore(program)
        initial_ops = len(full.initial.gamma.ops)

        def moved(cfg):  # false on the initial configuration only
            return len(cfg.gamma.ops) > initial_ops

        result = _explore_with(program, option, on_config=moved)
        assert result.stopped
        assert result.state_count < full.state_count

    def test_on_config_failure_surfaces(self, option):
        def boom(cfg):
            raise KeyError("probe exploded")

        with pytest.raises(KeyError, match="probe exploded"):
            _explore_with(LITMUS_TESTS[0].build(), option, on_config=boom)

    def test_collect_edges_parity(self, option):
        # One program object: both runs share its canonical keys, so
        # the labelled graphs compare node for node.
        program = LITMUS_TESTS[0].build()
        ref = explore(program, collect_edges=True)
        other = _explore_with(program, option, collect_edges=True)
        assert set(other.edges) == set(other.configs)
        for out in other.edges.values():
            for _tid, _comp, _act, tkey in out:
                assert tkey in other.configs

        def shape(result):
            return {
                key: sorted(
                    (tid, comp, repr(act), tkey)
                    for tid, comp, act, tkey in out
                )
                for key, out in result.edges.items()
            }

        assert shape(other) == shape(ref)

    def test_invariant_checking(self, option):
        # The hook re-derives every state's caches and compares.
        program = LITMUS_TESTS[0].build()
        ref = explore_sequential(program)
        seen = []
        hook = checking_invariants(program, seen.append)
        result = _explore_with(program, option, on_config=hook)
        _assert_parity(ref, result)
        assert len(seen) == result.state_count

    @pytest.mark.parametrize("reduction", REDUCTIONS)
    def test_witness_replay_from_parents(self, option, reduction):
        """Parents recorded alongside each option reconstruct into
        witnesses that replay through the raw semantics."""
        test = _BY_NAME["MP-relaxed"]
        program = test.build()
        result = _explore_with(
            program, option, reduction, track_parents=True
        )
        assert set(result.parents) == set(result.configs)
        target = next(
            cfg
            for cfg in result.terminals
            if test.outcome_of(cfg) in test.weak
        )
        witness = reconstruct_witness(
            program, result.parents, target, reduction=reduction
        )
        final = replay_witness(program, witness)
        assert test.outcome_of(final) in test.weak
