"""Tests for the exhaustive explorer."""

import pytest

from repro.analysis import analyse_program
from repro.lang import ast as A
from repro.lang.expr import Lit, Reg
from repro.lang.program import Program, Thread
from repro.objects.lock import AbstractLock
from repro.semantics.explore import (
    assert_invariant,
    explore,
    final_outcomes,
    reachable,
)
from repro.semantics.reduce import REDUCTIONS
from repro.util.errors import SemanticsError, VerificationError
from tests.conftest import checking_invariants, mp_ra, mp_relaxed


class TestExplore:
    def test_terminals_and_outcomes(self, mp_relaxed_result):
        r = mp_relaxed_result
        assert not r.truncated
        assert not r.stuck
        outcomes = r.terminal_locals(("2", "r1"), ("2", "r2"))
        assert outcomes == {(0, 0), (0, 5), (1, 0), (1, 5)}

    def test_state_count_reported(self, mp_relaxed_result):
        assert mp_relaxed_result.state_count > 1
        assert mp_relaxed_result.edge_count >= mp_relaxed_result.state_count - 1

    def test_collect_edges(self):
        p = mp_relaxed()
        r = explore(p, collect_edges=True)
        assert r.edges is not None
        assert set(r.edges) == set(r.configs)
        # Every edge target is a known config.
        for edges in r.edges.values():
            for _tid, _comp, _act, tkey in edges:
                assert tkey in r.configs

    def test_truncation_flag(self):
        p = mp_relaxed()
        r = explore(p, max_states=3)
        assert r.truncated

    def test_invariant_checking_mode(self):
        # Diagnostic mode: component coherence at every configuration.
        p = mp_ra()
        seen = []
        result = explore(p, on_config=checking_invariants(p, seen.append))
        assert len(seen) == result.state_count and result.terminals

    def test_on_config_callback(self):
        seen = []
        explore(mp_relaxed(), on_config=seen.append)
        assert len(seen) == explore(mp_relaxed()).state_count

    def test_on_config_early_stop(self):
        # Returning True from the callback halts exploration promptly.
        full = explore(mp_relaxed())
        seen = []

        def probe(cfg):
            seen.append(cfg)
            return len(seen) >= 3

        r = explore(mp_relaxed(), on_config=probe)
        assert r.stopped
        assert len(seen) == 3
        assert r.state_count < full.state_count

    def test_truncation_bails_promptly(self):
        # Once the cap is hit, the queue must not be drained: the edge
        # count of a truncated run stays a (strict) lower bound of the
        # full run's.
        full = explore(mp_relaxed())
        r = explore(mp_relaxed(), max_states=3)
        assert r.truncated
        assert r.state_count <= 3
        assert r.edge_count < full.edge_count


def _silent_loop_program():
    # A silent ε-divergent loop: the locals stop changing after one
    # iteration, so the unfolded loop revisits its states.
    return Program(
        threads={
            "1": A.seq(
                A.LocalAssign("m", Lit(0)),
                A.While(Reg("m").eq(0), A.LocalAssign("t", Lit(1))),
            )
        },
    )


def _unbound_register_program():
    return Program(
        threads={
            "1": Thread(A.seq(A.Write("x", Lit(1)), A.Write("y", Reg("q"))))
        },
        client_vars={"x": 0, "y": 0},
    )


@pytest.mark.parametrize("reduction", REDUCTIONS)
class TestLintErrorsExploreSafely:
    """Programs ``repro lint`` reports as errors still explore safely
    without it: finitely, or failing with a typed error."""

    def test_silent_loop_explores_untruncated(self, reduction):
        program = _silent_loop_program()
        assert "silent-loop" in analyse_program(program).codes()
        result = explore(program, reduction=reduction)
        assert not result.truncated and not result.stopped
        # The loop never ends: no state is terminal or stuck.
        assert result.state_count > 0
        assert not result.terminals and not result.stuck

    def test_unbound_register_raises_at_step_time(self, reduction):
        program = _unbound_register_program()
        assert "unbound-register" in analyse_program(program).codes()
        with pytest.raises(SemanticsError, match="register 'q' is unbound"):
            explore(program, reduction=reduction)


class TestDeadlockDetection:
    def test_double_acquire_deadlocks(self):
        # A thread acquiring twice blocks forever: stuck, not terminal.
        lock = AbstractLock("l")
        body = A.seq(A.MethodCall("l", "acquire"), A.MethodCall("l", "acquire"))
        p = Program(threads={"1": Thread(body)}, objects=(lock,))
        r = explore(p)
        assert len(r.stuck) == 1
        assert not r.terminals

    def test_final_outcomes_raises_on_deadlock(self):
        lock = AbstractLock("l")
        body = A.seq(A.MethodCall("l", "acquire"), A.MethodCall("l", "acquire"))
        p = Program(threads={"1": Thread(body)}, objects=(lock,))
        with pytest.raises(VerificationError):
            final_outcomes(p, ())

    def test_final_outcomes_raises_on_truncation(self):
        with pytest.raises(VerificationError):
            final_outcomes(mp_relaxed(), (), max_states=2)


class TestReachable:
    def test_finds_witness(self):
        p = mp_relaxed()
        cfg = reachable(p, lambda c: c.local("2", "r1") == 1)
        assert cfg is not None
        assert cfg.local("2", "r1") == 1

    def test_returns_none_when_unreachable(self):
        p = mp_ra()
        # The forbidden weak outcome: r1 = 1 ∧ r2 = 0 at termination.
        cfg = reachable(
            p,
            lambda c: c.is_terminal()
            and c.local("2", "r1") == 1
            and c.local("2", "r2") == 0,
        )
        assert cfg is None


class TestAssertInvariant:
    def test_holds(self):
        assert_invariant(mp_relaxed(), lambda c: True)

    def test_violation_raises_with_counterexample(self):
        with pytest.raises(VerificationError) as exc:
            assert_invariant(
                mp_relaxed(), lambda c: c.local("2", "r1") != 1
            )
        assert exc.value.counterexample is not None
