"""Property suite: engine-reconstructed witnesses are real executions.

The engine's ``find_witness`` tracks predecessors by key + edge label
(no stored configurations) and re-derives the concrete schedule by
replay; under ``reduction="closure"`` it additionally re-expands fused
macro-steps.  These properties pin the contract over the litmus
catalog, with the reduction off and on:

* **replayability** — every step of a reconstructed witness is an
  element of the raw (unreduced) ``successors`` relation at its point,
  and the replay ends in a terminal configuration exhibiting the weak
  valuation searched for — on the BFS, DFS and swarm frontiers alike;
* **minimality** — with the reduction off, the BFS witness length
  equals the naive config-storing :func:`find_path` reference; under
  closure the *visible*-step count never exceeds the reference's
  (macro-BFS minimises visible steps, and silent-chain lengths are
  path-dependent);
* **negative parity** — where the model forbids the weak outcome,
  every engine proves unreachability (returns None) rather than
  fabricating a witness.
"""

import pytest

from repro.engine import ExplorationEngine
from repro.litmus.catalog import LITMUS_TESTS
from repro.semantics.witness import find_path, replay_witness
from repro.util.errors import VerificationError

#: Tests whose weak outcome RC11 RAR allows — these have a witness.
WEAK_ALLOWED = [t for t in LITMUS_TESTS if t.weak_allowed]
#: Tests whose weak outcome is forbidden — exhaustively unreachable.
WEAK_FORBIDDEN = [t for t in LITMUS_TESTS if not t.weak_allowed]
#: Subset searched on the non-BFS frontiers.
STRATEGY_SUBSET = [
    t
    for t in LITMUS_TESTS
    if t.name
    in {
        "MP-relaxed",
        "SB-relaxed",
        "IRIW-RA",
        "MP-await-relaxed",
        "MP-ring-2-relaxed",
        "SB-computed",
    }
]


def _weak_predicate(test):
    return lambda cfg: (
        tuple(cfg.local(t, r) for t, r in test.regs) in test.weak
    )


def _naive_reference(test):
    pred = _weak_predicate(test)
    return find_path(
        test.build(), lambda c: c.is_terminal() and pred(c)
    )


def _check_witness(test, witness, reference, check_minimal=True):
    program = test.build()
    # Step-exact replay through the raw unreduced successors relation:
    # replay_witness raises on the first step that is not a transition.
    final = replay_witness(program, witness)
    assert final.is_terminal()
    assert tuple(final.local(t, r) for t, r in test.regs) in test.weak
    if check_minimal:
        # Shortest: visible-step count never beats the macro-BFS minimum.
        assert witness.visible_steps() <= reference.visible_steps()


class TestSequentialWitnessParity:
    @pytest.mark.parametrize("test", WEAK_ALLOWED, ids=lambda t: t.name)
    def test_reduction_off_matches_naive_bfs(self, test):
        reference = _naive_reference(test)
        w = ExplorationEngine(reduction="off").find_witness(
            test.build(), _weak_predicate(test), terminal_only=True
        )
        assert w is not None
        _check_witness(test, w, reference)
        # Unreduced BFS both sides: total lengths agree exactly.
        assert len(w) == len(reference)

    @pytest.mark.parametrize("test", WEAK_ALLOWED, ids=lambda t: t.name)
    def test_reduction_closure_is_step_exact(self, test):
        reference = _naive_reference(test)
        w = ExplorationEngine(reduction="closure").find_witness(
            test.build(), _weak_predicate(test), terminal_only=True
        )
        assert w is not None
        _check_witness(test, w, reference)

    @pytest.mark.parametrize("test", WEAK_ALLOWED, ids=lambda t: t.name)
    def test_reduction_dpor_replays(self, test):
        """dpor witnesses replay through the raw semantics and exhibit
        the weak valuation.  No minimality bound: the persistent-set
        selection may route discovery around the macro-BFS-shortest
        path, so only soundness — it is a real execution — is pinned."""
        reference = _naive_reference(test)
        w = ExplorationEngine(reduction="dpor").find_witness(
            test.build(), _weak_predicate(test), terminal_only=True
        )
        assert w is not None
        _check_witness(test, w, reference, check_minimal=False)

    @pytest.mark.parametrize("test", WEAK_FORBIDDEN, ids=lambda t: t.name)
    @pytest.mark.parametrize("reduction", ["off", "closure", "dpor"])
    def test_forbidden_outcomes_have_no_witness(self, test, reduction):
        w = ExplorationEngine(reduction=reduction).find_witness(
            test.build(), _weak_predicate(test), terminal_only=True
        )
        assert w is None


class TestStrategyWitnessParity:
    """DFS and swarm engines record *a* discovery path per state, not a
    shortest one: their witnesses must still be real executions that
    exhibit the weak valuation, under every reduction policy."""

    @pytest.mark.parametrize(
        "test", STRATEGY_SUBSET, ids=lambda t: t.name
    )
    @pytest.mark.parametrize("reduction", ["off", "closure", "dpor"])
    @pytest.mark.parametrize("strategy", ["dfs", "swarm:7"])
    def test_witness_replays(self, strategy, reduction, test):
        reference = _naive_reference(test)
        engine = ExplorationEngine(strategy=strategy, reduction=reduction)
        w = engine.find_witness(
            test.build(), _weak_predicate(test), terminal_only=True
        )
        assert w is not None
        _check_witness(test, w, reference, check_minimal=False)

    @pytest.mark.parametrize("strategy", ["dfs", "swarm:7"])
    def test_forbidden_is_none(self, strategy):
        test = next(t for t in WEAK_FORBIDDEN if t.name == "LB")
        engine = ExplorationEngine(strategy=strategy, reduction="closure")
        assert (
            engine.find_witness(
                test.build(), _weak_predicate(test), terminal_only=True
            )
            is None
        )


class TestEngineWitnessContract:
    def test_truncated_search_raises(self):
        from tests.conftest import mp_relaxed

        engine = ExplorationEngine()
        with pytest.raises(VerificationError, match="truncated"):
            engine.find_witness(
                mp_relaxed(), lambda c: False, max_states=3
            )

    def test_sequential_tracking_off_by_default(self):
        from tests.conftest import mp_relaxed

        assert ExplorationEngine().explore(mp_relaxed()).parents is None

    def test_dfs_witness_is_valid_but_not_necessarily_shortest(self):
        test = next(t for t in WEAK_ALLOWED if t.name == "MP-relaxed")
        w = ExplorationEngine(strategy="dfs").find_witness(
            test.build(), _weak_predicate(test), terminal_only=True
        )
        assert w is not None
        final = replay_witness(test.build(), w)
        assert tuple(final.local(t, r) for t, r in test.regs) in test.weak


class TestAssertInvariantWitness:
    def test_violation_carries_replayable_witness(self):
        from repro.semantics.explore import assert_invariant
        from tests.conftest import mp_relaxed

        bad = lambda c: not (  # noqa: E731
            c.is_terminal()
            and c.local("2", "r1") == 1
            and c.local("2", "r2") == 0
        )
        with pytest.raises(VerificationError) as exc:
            assert_invariant(mp_relaxed(), bad, witness=True)
        err = exc.value
        assert err.witness is not None
        assert replay_witness(mp_relaxed(), err.witness) == err.counterexample

    def test_witness_off_by_default(self):
        from repro.semantics.explore import assert_invariant
        from tests.conftest import mp_relaxed

        with pytest.raises(VerificationError) as exc:
            assert_invariant(mp_relaxed(), lambda c: False)
        assert exc.value.witness is None


class TestTracecheckWitness:
    def test_broken_lock_failure_carries_interleaving(self):
        from repro.lang import ast as A
        from repro.lang.expr import Lit, Reg
        from repro.litmus.clients import lock_client
        from repro.refinement.tracecheck import check_program_refinement
        from tests.conftest import abstract_lock_client

        def broken_fill(obj, method, dest=None):
            if method == "acquire":
                return A.LibBlock(
                    A.do_until(
                        A.Cas("_b", "lk", Lit(0), Lit(1)), Reg("_b")
                    )
                )
            return A.LibBlock(A.Write("lk", Lit(0)))  # relaxed: broken

        concrete = lock_client(broken_fill, lib_vars={"lk": 0})
        result = check_program_refinement(concrete, abstract_lock_client())
        assert not result.refines
        assert result.witness is not None and result.witness.steps
        # The interleaving is a real execution of the concrete program.
        replay_witness(concrete, result.witness)

    def test_passing_check_has_no_witness(self):
        from repro.refinement.tracecheck import check_program_refinement
        from tests.conftest import abstract_lock_client

        p = abstract_lock_client()
        result = check_program_refinement(p, p)
        assert result.refines and result.witness is None


class TestRandomRunSchedule:
    def test_random_run_exposes_replayable_schedule(self):
        from repro.semantics.random_exec import random_run, replay_run
        from tests.conftest import mp_relaxed

        import random

        r = random_run(mp_relaxed(), rng=random.Random(5))
        assert r.terminated
        assert len(r.schedule) == r.steps == len(r.choices)
        replayed = replay_run(mp_relaxed(), r.choices)
        assert replayed.final == r.final
        assert replayed.schedule == r.schedule

    def test_deadlock_error_is_replayable(self):
        from repro.lang import ast as A
        from repro.lang.program import Program, Thread
        from repro.objects.lock import AbstractLock
        from repro.semantics.random_exec import replay_run, sample_outcomes

        body = A.seq(
            A.MethodCall("l", "acquire"), A.MethodCall("l", "acquire")
        )
        p = Program(
            threads={"1": Thread(body)}, objects=(AbstractLock("l"),)
        )
        with pytest.raises(VerificationError) as exc:
            sample_outcomes(p, (), runs=2, seed=7)
        err = exc.value
        assert err.details["seed"] == 7
        assert len(err.details["schedule"]) == len(err.details["choices"])
        replayed = replay_run(p, err.details["choices"])
        assert replayed.deadlocked
        assert replayed.final == err.counterexample

    def test_replay_rejects_foreign_schedule(self):
        from repro.semantics.random_exec import replay_run
        from tests.conftest import mp_relaxed

        with pytest.raises(VerificationError, match="does not belong"):
            replay_run(mp_relaxed(), (99,))
