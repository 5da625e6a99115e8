"""Parity suite for the engine's frontier strategies under every
reduction policy.

The visited-set exploration is order-insensitive, so a DFS or swarm
engine must agree with the reference breadth-first loop on every
representation-independent observable of a non-truncated run.  Under
``reduction="off"`` and ``"closure"`` that is the whole graph — state
and edge counts, terminal valuations, stuck-existence, litmus
verdicts.  Under ``"dpor"`` the sleep sets ride the frontier, so
intermediate state/edge counts depend on visit order; what the policy
preserves — terminal and stuck outcomes — is held to the same bar.

The reduction-``off`` catalog sweep lives in
``test_engine_core.py::TestStrategyParity``; this file covers the
reduced policies on the catalog, the abstract-object/lock clients
under every policy, ``reachable``/``assert_invariant``-shaped
verdicts, the summary path of :func:`repro.engine.summarise` (what
``run_litmus`` reads), and the search options (caps, early stop, edges, invariants, parents) on
every strategy.
"""

import pytest

from repro.engine import ExplorationEngine, summarise
from repro.engine.core import explore_sequential
from repro.litmus.catalog import LITMUS_TESTS, run_litmus
from repro.semantics.canon import canonical_key
from repro.semantics.explore import explore, reachable
from repro.semantics.reduce import REDUCTIONS
from repro.semantics.witness import reconstruct_witness, replay_witness
from tests.conftest import (
    abstract_lock_client,
    seqlock_client,
    spinlock_client,
    stack_program,
    ticketlock_client,
)

STRATEGIES = ("dfs", "swarm:7", "swarm:1234")
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


def _assert_parity(ref, other, reduction):
    """``other`` agrees with the BFS reference ``ref`` on everything
    ``reduction`` preserves across visit orders."""
    assert not other.truncated and not other.stopped
    if reduction != "dpor":
        assert other.state_count == ref.state_count
        assert other.edge_count == ref.edge_count
    assert len(other.terminals) == len(ref.terminals)
    assert len(other.stuck) == len(ref.stuck)
    assert _terminal_valuations(other) == _terminal_valuations(ref)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("reduction", REDUCED)
class TestCatalogParity:
    @pytest.mark.parametrize("test", LITMUS_TESTS, ids=lambda t: t.name)
    def test_full_litmus_catalog(self, strategy, reduction, test):
        # One program object: canonical keys are scoped to it.
        program = test.build()
        ref = explore_sequential(program, reduction=reduction)
        engine = ExplorationEngine(strategy=strategy, reduction=reduction)
        other = engine.explore(program)
        _assert_parity(ref, other, reduction)
        outcomes = ref.terminal_locals(*test.regs)
        assert other.terminal_locals(*test.regs) == outcomes
        # The reduction is invisible at the register level.
        assert explore(program).terminal_locals(*test.regs) == outcomes
        # The summary path (what run_litmus reads) carries the same
        # verdict-level data.
        summary = summarise(other)
        assert not summary.truncated
        assert summary.state_count == other.state_count
        assert summary.stuck_count == len(other.stuck)
        assert summary.terminal_locals(*test.regs) == outcomes

    def test_litmus_verdicts_match(self, strategy, reduction):
        bfs_engine = ExplorationEngine(reduction=reduction)
        engine = ExplorationEngine(strategy=strategy, reduction=reduction)
        for test in LITMUS_TESTS:
            ref = run_litmus(test, engine=bfs_engine)
            other = run_litmus(test, engine=engine)
            assert other["verdict_ok"] and ref["verdict_ok"], test.name
            assert other["outcomes"] == ref["outcomes"], test.name
            if reduction != "dpor":
                assert other["states"] == ref["states"], test.name


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("reduction", REDUCTIONS)
@pytest.mark.parametrize(
    "name,build", OBJECT_CLIENTS, ids=[n for n, _ in OBJECT_CLIENTS]
)
class TestObjectClientParity:
    def test_client(self, strategy, reduction, name, build):
        program = build()
        ref = explore_sequential(program, reduction=reduction)
        other = ExplorationEngine(
            strategy=strategy, reduction=reduction
        ).explore(program)
        _assert_parity(ref, other, reduction)
        if reduction != "off":
            off = explore_sequential(program)
            assert _terminal_valuations(other) == _terminal_valuations(off)
            assert bool(other.stuck) == bool(off.stuck)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("reduction", REDUCTIONS)
class TestVerdictParity:
    """``reachable``/``assert_invariant``-shaped verdicts — a pure
    predicate passed as ``on_config`` — agree with the BFS wrappers
    under every strategy and policy."""

    def test_weak_outcome_reachability(self, strategy, reduction):
        engine = ExplorationEngine(strategy=strategy, reduction=reduction)
        for name in ("MP-relaxed", "MP-RA", "MP-await-RA", "SB-relaxed"):
            test = _BY_NAME[name]

            def weak(cfg, test=test):
                return cfg.is_terminal() and test.outcome_of(cfg) in test.weak

            bfs_hit = reachable(
                test.build(), weak, reduction=reduction
            ) is not None
            other = engine.explore(test.build(), on_config=weak)
            assert other.stopped == bfs_hit == test.weak_allowed, name
            if not bfs_hit:  # exhaustive no-hit run must stay complete
                assert not other.truncated

    def test_invariant_verdicts(self, strategy, reduction):
        engine = ExplorationEngine(strategy=strategy, reduction=reduction)
        program = _BY_NAME["MP-ring-2-RA"].build()

        def violates_published(cfg):  # never true: the invariant holds
            if not cfg.is_terminal():
                return False
            return not (
                cfg.local("1", "r0") == 5 and cfg.local("2", "r1") == 5
            )

        held = engine.explore(program, on_config=violates_published)
        assert not held.stopped and not held.truncated

        def violates_impossible(cfg):  # any non-terminal state violates
            return not cfg.is_terminal()

        broken = engine.explore(program, on_config=violates_impossible)
        assert broken.stopped


@pytest.mark.parametrize("strategy", STRATEGIES)
class TestSearchBehaviour:
    def test_truncation_respects_cap(self, strategy):
        engine = ExplorationEngine(strategy=strategy)
        result = engine.explore(LITMUS_TESTS[0].build(), max_states=3)
        assert result.truncated
        assert result.state_count <= 3

    def test_early_stop(self, strategy):
        program = _BY_NAME["MP-ring-2-RA"].build()
        full = explore(program)
        initial_ops = len(full.initial.gamma.ops)

        def moved(cfg):  # false on the initial configuration only
            return len(cfg.gamma.ops) > initial_ops

        result = ExplorationEngine(strategy=strategy).explore(
            program, on_config=moved
        )
        assert result.stopped
        assert result.state_count < full.state_count

    def test_on_config_failure_surfaces(self, strategy):
        def boom(cfg):
            raise KeyError("probe exploded")

        with pytest.raises(KeyError, match="probe exploded"):
            ExplorationEngine(strategy=strategy).explore(
                LITMUS_TESTS[0].build(), on_config=boom
            )

    def test_collect_edges_parity(self, strategy):
        # One program object: both runs share its canonical keys, so
        # the labelled graphs compare node for node.
        program = LITMUS_TESTS[0].build()
        ref = explore(program, collect_edges=True)
        other = ExplorationEngine(strategy=strategy).explore(
            program, collect_edges=True
        )
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

    def test_invariant_checking(self, strategy):
        # Diagnostic mode re-derives every state's caches and compares.
        program = LITMUS_TESTS[0].build()
        ref = explore_sequential(program)
        result = ExplorationEngine(strategy=strategy).explore(
            program, check_invariants=True
        )
        _assert_parity(ref, result, "off")

    @pytest.mark.parametrize("reduction", REDUCTIONS)
    def test_witness_replay_from_parents(self, strategy, reduction):
        """Parents recorded on any visit order reconstruct into
        witnesses that replay through the raw semantics — valid
        discovery paths, even though not necessarily shortest."""
        test = _BY_NAME["MP-relaxed"]
        program = test.build()
        engine = ExplorationEngine(strategy=strategy, reduction=reduction)
        result = engine.explore(program, track_parents=True)
        assert set(result.parents) == set(result.configs)

        def key_of(cfg):
            return canonical_key(program, cfg)

        target = next(
            cfg
            for cfg in result.terminals
            if test.outcome_of(cfg) in test.weak
        )
        witness = reconstruct_witness(
            program, result.parents, key_of(target), key_of,
            reduction=reduction,
        )
        final = replay_witness(program, witness)
        assert test.outcome_of(final) in test.weak
