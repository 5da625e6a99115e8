"""Tests for successor generation (the =⇒ relation)."""

import pytest

from repro.lang import ast as A
from repro.lang.expr import EMPTY, Lit, Reg
from repro.lang.program import Program, Thread
from repro.objects.lock import AbstractLock
from repro.objects.stack import AbstractStack
from repro.semantics.config import initial_config
from repro.semantics.step import thread_successors, transitions
from repro.util.errors import SemanticsError


def prog(body, tid="1", **kw):
    return Program(threads={tid: Thread(body)}, **kw)


def all_steps(program):
    return transitions(program, initial_config(program))


class TestLocalSteps:
    def test_local_assign_is_silent(self):
        p = prog(A.LocalAssign("r", Lit(5)))
        (tr,) = all_steps(p)
        assert tr.action is None
        assert tr.component == "C"
        assert tr.target.local("1", "r") == 5
        assert tr.target.cmd("1") is None

    def test_if_true_branch(self):
        p = prog(
            A.If(Lit(True), A.LocalAssign("r", Lit(1)), A.LocalAssign("r", Lit(2)))
        )
        (tr,) = all_steps(p)
        assert isinstance(tr.target.cmd("1"), A.LocalAssign)
        assert tr.target.cmd("1").expr == Lit(1)

    def test_if_false_branch_missing_terminates(self):
        p = prog(A.If(Lit(False), A.LocalAssign("r", Lit(1))))
        (tr,) = all_steps(p)
        assert tr.target.cmd("1") is None

    def test_while_unrolls(self):
        body = A.LocalAssign("r", Reg("r") + 1)
        p = prog(
            A.seq(A.LocalAssign("r", Lit(0)), A.While(Reg("r").lt(2), body))
        )
        # Run to completion deterministically.
        from repro.semantics.explore import explore

        result = explore(p)
        (terminal,) = result.terminals
        assert terminal.local("1", "r") == 2

    def test_while_false_terminates(self):
        p = prog(A.While(Lit(False), A.LocalAssign("r", Lit(1))))
        (tr,) = all_steps(p)
        assert tr.target.cmd("1") is None


class TestMemorySteps:
    def test_write_enumerated(self):
        p = prog(A.Write("x", Lit(1)), client_vars={"x": 0})
        (tr,) = all_steps(p)
        assert tr.action.kind == "wr"
        assert tr.component == "C"

    def test_read_binds_register(self):
        p = prog(A.Read("r", "x"), client_vars={"x": 7})
        (tr,) = all_steps(p)
        assert tr.target.local("1", "r") == 7
        assert tr.action.kind == "rd"

    def test_cas_success_and_failure_both_offered(self):
        p = prog(
            A.seq(A.Write("x", Lit(1)), A.Cas("ok", "x", Lit(0), Lit(9))),
            client_vars={"x": 0},
        )
        from repro.semantics.explore import explore

        result = explore(p)
        outcomes = {t.local("1", "ok") for t in result.terminals}
        # After x := 1, thread 1 observes only x = 1: CAS(0 → 9) fails.
        assert outcomes == {False}

    def test_cas_success_branch(self):
        p = prog(A.Cas("ok", "x", Lit(0), Lit(9)), client_vars={"x": 0})
        (tr,) = all_steps(p)
        assert tr.action.kind == "updRA"
        assert tr.target.local("1", "ok") is True

    def test_cas_expecting_none_fails_against_zero(self):
        # ``None`` is a legal value, not "any": CAS(None → 5) on x = 0
        # can only fail (a relaxed read of 0).
        p = prog(A.Cas("ok", "x", Lit(None), Lit(5)), client_vars={"x": 0})
        from repro.semantics.explore import explore

        result = explore(p)
        assert {t.local("1", "ok") for t in result.terminals} == {False}
        (tr,) = all_steps(p)
        assert tr.action.kind == "rd" and tr.action.val == 0

    def test_cas_expecting_none_succeeds_against_none(self):
        p = prog(A.Cas("ok", "x", Lit(None), Lit(5)), client_vars={"x": None})
        (tr,) = all_steps(p)
        assert tr.action.kind == "updRA" and tr.action.val == 5
        assert tr.target.local("1", "ok") is True

    def test_fai_returns_old_value(self):
        p = prog(A.Fai("r", "x"), client_vars={"x": 3})
        (tr,) = all_steps(p)
        assert tr.action.rdval == 3 and tr.action.val == 4
        assert tr.target.local("1", "r") == 3

    def test_fai_on_non_integer_raises(self):
        p = prog(A.Fai("r", "x"), client_vars={"x": EMPTY})
        with pytest.raises(SemanticsError):
            all_steps(p)


class TestLibrarySteps:
    def test_libblock_tagged_library(self):
        p = prog(
            A.LibBlock(A.Write("glb", Lit(1))),
            lib_vars={"glb": 0},
        )
        (tr,) = all_steps(p)
        assert tr.component == "L"
        # The write landed in β, not γ.
        assert len(tr.target.beta.ops_on("glb")) == 2
        assert tr.target.gamma.ops_on("glb") == ()

    def test_method_call_tagged_library(self):
        p = prog(
            A.MethodCall("l", "acquire", dest="v"),
            objects=(AbstractLock("l"),),
        )
        (tr,) = all_steps(p)
        assert tr.component == "L"
        assert tr.target.local("1", "v") == 1

    def test_method_call_unknown_object(self):
        p = prog(A.MethodCall("nope", "acquire"))
        with pytest.raises(SemanticsError):
            all_steps(p)

    def test_blocked_method_no_steps(self):
        lock = AbstractLock("l")
        t1 = A.MethodCall("l", "acquire")
        t2 = A.MethodCall("l", "acquire")
        p = Program(
            threads={"1": Thread(t1), "2": Thread(t2)},
            objects=(lock,),
        )
        cfg = initial_config(p)
        # Both can acquire initially.
        assert len(transitions(p, cfg)) == 2
        # After thread 1 acquires, thread 2 is blocked.
        (tr1,) = list(thread_successors(p, cfg, "1"))
        assert list(thread_successors(p, tr1.target, "2")) == []

    def test_pop_empty_is_lib_step_without_action(self):
        p = prog(
            A.MethodCall("s", "pop", dest="r"),
            objects=(AbstractStack("s"),),
        )
        (tr,) = all_steps(p)
        assert tr.component == "L"
        assert tr.action is None
        assert tr.target.local("1", "r") == EMPTY


class TestStructural:
    def test_seq_collapses_completed_first(self):
        p = prog(A.seq(A.LocalAssign("a", Lit(1)), A.LocalAssign("b", Lit(2))))
        (tr,) = all_steps(p)
        assert isinstance(tr.target.cmd("1"), A.LocalAssign)

    def test_labeled_wrapper_retained_mid_region(self):
        p = prog(
            A.Labeled(
                1,
                A.seq(A.LocalAssign("a", Lit(1)), A.LocalAssign("b", Lit(2))),
            )
        )
        (tr,) = all_steps(p)
        assert isinstance(tr.target.cmd("1"), A.Labeled)
        assert tr.target.pc("1", p) == 1
        (tr2,) = transitions(p, tr.target)
        assert tr2.target.cmd("1") is None

    def test_terminated_thread_offers_nothing(self):
        p = prog(A.LocalAssign("a", Lit(1)))
        (tr,) = all_steps(p)
        assert list(thread_successors(p, tr.target, "1")) == []

    def test_interleaving_of_two_threads(self):
        p = Program(
            threads={
                "1": Thread(A.LocalAssign("a", Lit(1))),
                "2": Thread(A.LocalAssign("b", Lit(2))),
            },
        )
        assert len(all_steps(p)) == 2
