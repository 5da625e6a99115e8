"""Property suite: engine-reconstructed witnesses are real executions.

The engine's ``find_witness`` tracks predecessors by key + edge label
(no stored configurations) and re-derives the concrete schedule by
replay; under ``reduction="closure"`` it additionally re-expands fused
macro-steps.  These properties pin the contract over the litmus
catalog, with the reduction off and on:

* **replayability** — every step of a reconstructed witness is an
  element of the raw (unreduced) ``successors`` relation at its point,
  and the replay ends in a terminal configuration exhibiting the weak
  valuation searched for — whether found by ``find_witness``, by an
  ``assert_invariant`` violation or in the parents of a complete run;
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
from repro.semantics.explore import assert_invariant
from repro.semantics.witness import (
    find_path,
    reconstruct_witness,
    replay_witness,
)
from repro.util.errors import VerificationError

#: Tests whose weak outcome RC11 RAR allows — these have a witness.
WEAK_ALLOWED = [t for t in LITMUS_TESTS if t.weak_allowed]
#: Tests whose weak outcome is forbidden — exhaustively unreachable.
WEAK_FORBIDDEN = [t for t in LITMUS_TESTS if not t.weak_allowed]
#: Subset searched along the other witness routes.
ROUTE_SUBSET = [
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


def _route_witness(route, test, reduction):
    """A weak-terminal witness for ``test`` along ``route``, or None.

    ``assert_invariant``: the error of the invariant "no terminal shows
    a weak valuation" carries it.  ``full_graph``: it is reconstructed
    from the parents of a complete, never stopped exploration."""
    program = test.build()
    pred = _weak_predicate(test)
    if route == "assert_invariant":
        try:
            assert_invariant(
                program,
                lambda c: not (c.is_terminal() and pred(c)),
                reduction=reduction,
                witness=True,
            )
        except VerificationError as err:
            assert replay_witness(program, err.witness) == err.counterexample
            return err.witness
        return None
    result = ExplorationEngine(reduction=reduction).explore(
        program, track_parents=True
    )
    assert not result.stopped and not result.truncated
    target = next((c for c in result.terminals if pred(c)), None)
    if target is None:
        return None
    return reconstruct_witness(
        program, result.parents, target, reduction=reduction
    )


class TestRouteWitnessParity:
    """Witnesses read off an ``assert_invariant`` violation or off the
    parents of a complete run are real executions with the weak
    valuation, under every policy; breadth-first discovery keeps them
    as short as ``find_witness``'s under ``off`` and ``closure``."""

    @pytest.mark.parametrize("test", ROUTE_SUBSET, ids=lambda t: t.name)
    @pytest.mark.parametrize("reduction", ["off", "closure", "dpor"])
    @pytest.mark.parametrize("route", ["assert_invariant", "full_graph"])
    def test_witness_replays(self, route, reduction, test):
        reference = _naive_reference(test)
        w = _route_witness(route, test, reduction)
        assert w is not None
        _check_witness(
            test, w, reference, check_minimal=reduction != "dpor"
        )
        if reduction == "off":
            assert len(w) == len(reference)

    @pytest.mark.parametrize("route", ["assert_invariant", "full_graph"])
    def test_forbidden_is_none(self, route):
        test = next(t for t in WEAK_FORBIDDEN if t.name == "LB")
        assert _route_witness(route, test, "closure") is None


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
        # Tracked, a complete run records a discovery edge per state.
        tracked = ExplorationEngine().explore(mp_relaxed(), track_parents=True)
        assert set(tracked.parents) == set(tracked.configs)

    def test_graph_of_another_policy_is_refused(self):
        # SB-computed's threads start with a silent step, so a graph
        # recorded under ``off`` reaches the ε-closed initial
        # configuration by an edge: read back under ``closure``, it
        # does not start where that policy's exploration starts.
        test = next(t for t in WEAK_ALLOWED if t.name == "SB-computed")
        program = test.build()
        result = ExplorationEngine().explore(program, track_parents=True)
        target = next(
            c for c in result.terminals if _weak_predicate(test)(c)
        )
        witness = reconstruct_witness(program, result.parents, target)
        assert _weak_predicate(test)(replay_witness(program, witness))
        with pytest.raises(
            VerificationError,
            match="does not start at the initial configuration",
        ):
            reconstruct_witness(
                program, result.parents, target, reduction="closure"
            )

    def test_target_outside_the_graph_is_refused(self):
        test = next(t for t in WEAK_ALLOWED if t.name == "MP-relaxed")
        program = test.build()
        target = next(
            c
            for c in ExplorationEngine().explore(program).terminals
            if _weak_predicate(test)(c)
        )
        # A run stopped at its first configuration records only the
        # initial key.
        stopped = ExplorationEngine().explore(
            program, on_config=lambda c: True, track_parents=True
        )
        assert stopped.stopped and len(stopped.parents) == 1
        with pytest.raises(VerificationError, match="does not lead back"):
            reconstruct_witness(program, stopped.parents, target)


    def test_witness_is_the_same_on_every_run(self):
        # One exploration order: fresh builds yield one schedule.
        test = next(t for t in WEAK_ALLOWED if t.name == "MP-relaxed")
        first, second = (
            ExplorationEngine(reduction="closure").find_witness(
                test.build(), _weak_predicate(test), terminal_only=True
            )
            for _ in range(2)
        )
        assert first.describe() == second.describe()


class TestAssertInvariantWitness:
    @pytest.mark.parametrize("reduction", ["off", "closure", "dpor"])
    def test_violation_carries_replayable_witness(self, reduction):
        from repro.semantics.explore import assert_invariant
        from tests.conftest import mp_relaxed

        bad = lambda c: not (  # noqa: E731
            c.is_terminal()
            and c.local("2", "r1") == 1
            and c.local("2", "r2") == 0
        )
        with pytest.raises(VerificationError) as exc:
            assert_invariant(
                mp_relaxed(), bad, witness=True, reduction=reduction
            )
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


class TestDeadlockWitness:
    """A stuck configuration has a replayable schedule: the engine's
    witness search reaches it under every policy."""

    @pytest.mark.parametrize("reduction", ["off", "closure", "dpor"])
    def test_deadlock_witness_is_replayable(self, reduction):
        from repro.lang import ast as A
        from repro.lang.program import Program, Thread
        from repro.objects.lock import AbstractLock
        from repro.semantics.explore import explore
        from repro.semantics.step import successors

        body = A.seq(
            A.MethodCall("l", "acquire"), A.MethodCall("l", "acquire")
        )
        p = Program(
            threads={"1": Thread(body)}, objects=(AbstractLock("l"),)
        )
        w = ExplorationEngine(reduction=reduction).find_witness(
            p, lambda c: not c.is_terminal() and not successors(p, c)
        )
        assert w is not None and len(w) == 1
        assert w.final == explore(p).stuck[0]
        assert replay_witness(p, w) == w.final
