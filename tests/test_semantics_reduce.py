"""Unit tests for the reduction layer (:mod:`repro.semantics.reduce`)."""

from collections import deque

import pytest

from repro.engine.core import explore_sequential
from repro.lang import ast as A
from repro.lang.expr import Lit, Reg
from repro.lang.program import Program, Thread
from repro.semantics.canon import canonical_key
from repro.semantics.config import initial_config
from repro.semantics.reduce import (
    REDUCTIONS,
    close_config,
    close_thread,
    get_strategy,
    reduced_successors,
)
from repro.semantics.step import (
    Transition,
    _node_summary,
    silent_step,
    thread_successors,
    transitions,
)
from tests.conftest import edge_target


def _mp_await(ra: bool = True) -> Program:
    t1 = A.seq(A.Write("d", Lit(5)), A.Write("f", Lit(1), release=ra))
    t2 = A.seq(
        A.LocalAssign("r1", Lit(0)),
        A.While(Reg("r1").eq(0), A.Read("r1", "f", acquire=ra)),
        A.Read("r2", "d"),
    )
    return Program(
        threads={"1": Thread(t1), "2": Thread(t2)},
        client_vars={"d": 0, "f": 0},
    )


class TestPolicy:
    def test_known_policies(self):
        assert set(REDUCTIONS) == {"off", "closure", "dpor"}
        for r in REDUCTIONS:
            assert get_strategy(r).name == r

    def test_unknown_policy_rejected(self):
        # A non-string spec gets the same typed error, not the table's
        # TypeError (a list is unhashable).
        for spec in ("bogus", ["dpor"]):
            with pytest.raises(ValueError, match="unknown reduction.*off"):
                get_strategy(spec)

    def test_engine_checks_policy(self):
        from repro.engine.core import ExplorationEngine

        with pytest.raises(ValueError, match="unknown reduction"):
            ExplorationEngine(reduction="bogus")
        with pytest.raises(ValueError, match="unknown reduction"):
            ExplorationEngine(reduction=["dpor"])
        with pytest.raises(ValueError, match="unknown reduction"):
            explore_sequential(_mp_await(), reduction="bogus")


class TestSilentStep:
    """silent_step is the single source of ε-truth shared with
    _thread_step."""

    def test_local_assign(self):
        program = Program(
            threads={"1": Thread(A.LocalAssign("r", Lit(7)))},
            client_vars={"x": 0},
        )
        cfg = initial_config(program)
        step = silent_step(cfg.cmds["1"], cfg.locals["1"])
        assert step is not None
        comp, cmd2, ls2 = step
        assert comp == "C" and cmd2 is None and ls2["r"] == 7

    def test_visible_heads_have_no_silent_step(self):
        ls = initial_config(
            Program(threads={"1": Thread(A.Write("x", Lit(1)))},
                    client_vars={"x": 0})
        ).locals["1"]
        for cmd in (
            A.Write("x", Lit(1)),
            A.Read("r", "x"),
            A.Cas("r", "x", Lit(0), Lit(1)),
            A.Fai("r", "x"),
            A.seq(A.Read("r", "x"), A.LocalAssign("s", Lit(1))),
        ):
            assert silent_step(cmd, ls) is None

    def test_lib_block_silent_steps_are_library_steps(self):
        cmd = A.LibBlock(
            A.seq(A.LocalAssign("t", Lit(1)), A.Write("l", Reg("t"))),
            frozenset(),
        )
        program = Program(
            threads={"1": Thread(cmd)}, client_vars={"x": 0},
            lib_vars={"l": 0},
        )
        cfg = initial_config(program)
        step = silent_step(cfg.cmds["1"], cfg.locals["1"])
        assert step is not None and step[0] == "L"

    @pytest.mark.parametrize("ra", [True, False])
    def test_agrees_with_steps_over_reachable_states(self, ra):
        """Wherever silent_step fires, a thread steps exactly that one
        silent step; wherever it does not, no step is silent."""
        program = _mp_await(ra)
        init = initial_config(program)
        seen = {canonical_key(program, init)}
        queue = deque([init])
        checked = 0
        while queue:
            cfg = queue.popleft()
            for tid in program.tids:
                cmd = cfg.cmds[tid]
                if cmd is None:
                    continue
                expected = silent_step(cmd, cfg.locals[tid])
                trs = list(thread_successors(program, cfg, tid))
                if expected is None:
                    assert all(tr.action is not None for tr in trs)
                else:
                    checked += 1
                    comp, cmd2, ls2 = expected
                    assert len(trs) == 1
                    (tr,) = trs
                    assert tr.action is None and tr.component == comp
                    assert tr.target.cmds[tid] == cmd2
                    assert tr.target.locals[tid] == ls2
                    assert tr.target.gamma is cfg.gamma
                    assert tr.target.beta is cfg.beta
            for tr in transitions(program, cfg):
                key = canonical_key(program, tr.target)
                if key not in seen:
                    seen.add(key)
                    queue.append(tr.target)
        assert checked > 0


class TestClosure:
    def test_close_config_runs_silent_prefixes(self):
        program = _mp_await()
        init = initial_config(program)
        closed = close_config(program, init)
        # Thread 2's LocalAssign + While unfold are fused: its head is
        # now the visible read inside the loop body.
        assert closed.locals["2"]["r1"] == 0
        assert silent_step(closed.cmds["2"], closed.locals["2"]) is None
        # Thread 1 had no silent prefix; components untouched.
        assert closed.cmds["1"] == init.cmds["1"]
        assert closed.gamma is init.gamma and closed.beta is init.beta

    def test_close_config_idempotent(self):
        program = _mp_await()
        closed = close_config(program, initial_config(program))
        assert close_config(program, closed) is closed

    def test_close_terminated_thread_is_noop(self):
        program = _mp_await()
        cfg = initial_config(program)
        done = cfg.with_thread("1", None, cfg.locals["1"], cfg.gamma, cfg.beta)
        assert close_thread(done, "1") is done

    def test_reduced_successors_are_closed_and_visible(self):
        program = _mp_await()
        init = close_config(program, initial_config(program))
        frontier = [init]
        seen = {canonical_key(program, init)}
        while frontier:
            cfg = frontier.pop()
            for edge in reduced_successors(program, cfg):
                tid, _component, action, key = edge[:4]
                assert action is not None, "silent macro-edge"
                target = edge_target(program, edge)
                closed_again = close_thread(target, tid)
                assert closed_again is target, "unclosed macro-target"
                if key not in seen:
                    seen.add(key)
                    frontier.append(target)

    def test_divergent_silent_loop_cut_off(self):
        """A purely-local infinite loop must not hang the closure; the
        configuration keeps its silent edge and exploration terminates."""
        spin = A.seq(
            A.LocalAssign("r", Lit(0)),
            A.While(Lit(True), A.LocalAssign("r", Reg("r"))),
        )
        program = Program(
            threads={"1": Thread(spin), "2": Thread(A.Write("x", Lit(1)))},
            client_vars={"x": 0},
        )
        init = close_config(program, initial_config(program))
        silent_edges = [
            edge for edge in reduced_successors(program, init)
            if edge[2] is None
        ]
        assert silent_edges, "cut-off must fall back to the plain ε-edge"
        result = explore_sequential(program, reduction="closure")
        assert not result.truncated
        assert result.terminals == []  # thread 1 never terminates

    def test_divergent_counter_loop_bounded_by_max_states(self):
        """A silent loop whose locals change every iteration never
        revisits a (cmd, locals) pair: the chain-length cut-off must
        kick in, handing control back to the explorer so ``max_states``
        truncates the run instead of one successor call spinning
        forever."""
        counter = A.seq(
            A.LocalAssign("r", Lit(0)),
            A.While(Lit(True), A.LocalAssign("r", Reg("r") + 1)),
        )
        program = Program(
            threads={"1": Thread(counter), "2": Thread(A.Write("x", Lit(1)))},
            client_vars={"x": 0},
        )
        result = explore_sequential(
            program, max_states=50, reduction="closure"
        )
        assert result.truncated
        assert result.state_count <= 50


class TestCoveringReadPrune:
    def _two_writer_program(self, tail) -> Program:
        """Two threads publish the same value; thread 3 reads it into
        ``r`` and then runs ``tail``."""
        return Program(
            threads={
                "1": Thread(A.Write("x", Lit(1))),
                "2": Thread(A.Write("x", Lit(1))),
                "3": Thread(tail),
            },
            client_vars={"x": 0, "y": 0},
        )

    def _read_transitions(self, program, prune):
        """Thread 3's read transitions from a state where both writes
        of 1 are observable."""
        cfg = initial_config(program)
        # Execute both writers first (any order — writes by different
        # threads on the same variable; take the first placement each).
        for tid in ("1", "2"):
            tr = next(iter(thread_successors(program, cfg, tid)))
            cfg = tr.target
        return [
            tr
            for tr in transitions(program, cfg, prune=prune)
            if tr.tid == "3" and tr.action is not None
        ]

    def test_prune_collapses_dead_same_value_reads(self):
        program = self._two_writer_program(A.Read("r", "x"))
        unpruned = self._read_transitions(program, prune=False)
        pruned = self._read_transitions(program, prune=True)
        # Unpruned: init 0 + two writes of 1 = 3 read choices; pruned
        # keeps the mo-earliest per value = 2.
        assert len(unpruned) == 3
        assert len(pruned) == 2
        assert {tr.action.val for tr in pruned} == {0, 1}

    def test_no_prune_when_variable_read_again(self):
        tail = A.seq(A.Read("r", "x"), A.Read("s", "x"))
        program = self._two_writer_program(tail)
        assert len(self._read_transitions(program, prune=True)) == 3

    def test_no_prune_when_continuation_publishes(self):
        tail = A.seq(A.Read("r", "x"), A.Write("y", Lit(1)))
        program = self._two_writer_program(tail)
        assert len(self._read_transitions(program, prune=True)) == 3

    def test_trailing_local_computation_keeps_prune(self):
        tail = A.seq(A.Read("r", "x"), A.LocalAssign("s", Reg("r") + 1))
        program = self._two_writer_program(tail)
        assert len(self._read_transitions(program, prune=True)) == 2

    def test_sync_candidates_never_collapsed(self):
        program = Program(
            threads={
                "1": Thread(A.Write("x", Lit(1), release=True)),
                "2": Thread(A.Write("x", Lit(1), release=True)),
                "3": Thread(A.Read("r", "x", acquire=True)),
            },
            client_vars={"x": 0, "y": 0},
        )
        cfg = initial_config(program)
        for tid in ("1", "2"):
            tr = next(iter(thread_successors(program, cfg, tid)))
            cfg = tr.target
        pruned = [
            tr for tr in transitions(program, cfg, prune=True) if tr.tid == "3"
        ]
        # Both releasing writes synchronise with the acquiring read:
        # their modification views differ, so both choices survive.
        assert len(pruned) == 3

    def test_node_summary(self):
        read = A.Read("r", "x")
        write = A.Write("y", Lit(1))
        assert _node_summary(read) == (frozenset({"x"}), False)
        assert _node_summary(write) == (frozenset({"y"}), True)
        assert _node_summary(A.seq(read, write)) == (frozenset({"x", "y"}), True)
        assert _node_summary(A.LocalAssign("r", Lit(1))) == (frozenset(), False)
        assert _node_summary(A.MethodCall("o", "m")) == (frozenset(), True)
        assert _node_summary(None) == (frozenset(), False)


class TestTransitionClass:
    def test_slotted(self):
        program = _mp_await()
        tr = transitions(program, initial_config(program))[0]
        assert not hasattr(tr, "__dict__")
        assert tr.__slots__ == ("tid", "component", "action", "target")

    def test_value_semantics(self):
        program = _mp_await()
        cfg = initial_config(program)
        a = transitions(program, cfg)
        b = transitions(program, cfg)
        assert a == b
        assert len({hash(Transition(t.tid, t.component, t.action, t.target))
                    for t in a}) == len({hash(t) for t in a})


class TestOutcomePreservation:
    def test_await_mp_outcomes_and_counts(self):
        program = _mp_await()
        off = explore_sequential(program)
        red = explore_sequential(program, reduction="closure")
        assert off.terminal_locals(("2", "r2")) == {(5,)}
        assert red.terminal_locals(("2", "r2")) == {(5,)}
        assert red.state_count < off.state_count
        assert red.edge_count < off.edge_count
