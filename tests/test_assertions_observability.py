"""Tests for the observability assertion atoms (paper §5.1).

Each atom is checked against executions of small programs where the
expected truth value is known from the semantics.
"""

import pytest

from repro.assertions.core import make_env
from repro.assertions.observability import (
    ConditionalMethod,
    ConditionalPop,
    ConditionalValue,
    Covered,
    DefiniteMethod,
    DefiniteValue,
    Hidden,
    MethodMatch,
    PossibleMethod,
    PossibleValue,
    StackEmpty,
    StackTopIs,
)
from repro.lang import ast as A
from repro.lang.expr import Lit
from repro.lang.program import Program, Thread
from repro.objects.lock import AbstractLock
from repro.objects.stack import AbstractStack
from repro.semantics.config import initial_config
from repro.semantics.explore import explore, reachable
from repro.semantics.step import transitions
from tests.conftest import mp_ra, mp_relaxed


def env_after(program, *step_indices):
    """Walk a deterministic path: at each config take the i-th successor."""
    cfg = initial_config(program)
    for i in step_indices:
        cfg = transitions(program, cfg)[i].target
    return make_env(program, cfg)


class TestPossibleDefiniteValue:
    def test_initial_state(self):
        p = mp_relaxed()
        env = make_env(p, initial_config(p))
        for t in ("1", "2"):
            assert DefiniteValue("d", 0, t).holds(env)
            assert PossibleValue("d", 0, t).holds(env)
            assert not PossibleValue("d", 5, t).holds(env)

    def test_after_write_both_values_possible_for_other_thread(self):
        p = mp_relaxed()
        result = explore(p)
        # Find a config where thread 1 wrote d but thread 2 hasn't read.
        for cfg in result.configs.values():
            if len(cfg.gamma.ops_on("d")) == 2 and cfg.cmds["2"] is not None:
                env = make_env(p, cfg)
                if cfg.gamma.thread_view("2", "d").ts == 0:
                    assert PossibleValue("d", 0, "2").holds(env)
                    assert PossibleValue("d", 5, "2").holds(env)
                    assert not DefiniteValue("d", 0, "2").holds(env)
                    assert not DefiniteValue("d", 5, "2").holds(env)
                    # The writer sees its own write definitely.
                    assert DefiniteValue("d", 5, "1").holds(env)
                    return
        pytest.fail("expected configuration not found")

    def test_definite_after_sync(self):
        p = mp_ra()
        # Any terminal state with r1 = 1 must satisfy [d = 5]2 *before*
        # the read of d — check at the read instead: r2 must be 5.
        witness = reachable(
            p,
            lambda c: c.is_terminal() and c.local("2", "r1") == 1,
        )
        env = make_env(p, witness)
        assert DefiniteValue("d", 5, "2").holds(env)


class TestConditionalValue:
    def test_mp_conditional_holds_after_release(self):
        # ⟨f = 1⟩[d = 5]2 after thread 1 ran both writes (release).
        p = mp_ra()
        witness = reachable(
            p,
            lambda c: c.cmds["1"] is None
            and c.gamma.thread_view("2", "f").ts == 0,
        )
        env = make_env(p, witness)
        assert ConditionalValue("f", 1, "d", 5, "2").holds(env)

    def test_fails_for_relaxed_write(self):
        p = mp_relaxed()
        witness = reachable(p, lambda c: c.cmds["1"] is None)
        env = make_env(p, witness)
        assert not ConditionalValue("f", 1, "d", 5, "2").holds(env)

    def test_vacuous_when_value_unobservable(self):
        p = mp_ra()
        env = make_env(p, initial_config(p))
        assert ConditionalValue("f", 9, "d", 5, "2").holds(env)


@pytest.fixture()
def lock_program():
    lock = AbstractLock("l")
    body1 = A.seq(
        A.MethodCall("l", "acquire"),
        A.Write("x", Lit(5)),
        A.MethodCall("l", "release"),
    )
    body2 = A.seq(A.MethodCall("l", "acquire"), A.MethodCall("l", "release"))
    return Program(
        threads={"1": Thread(body1), "2": Thread(body2)},
        client_vars={"x": 0},
        objects=(lock,),
    )


class TestMethodAtoms:
    def test_definite_init_initially(self, lock_program):
        env = make_env(lock_program, initial_config(lock_program))
        init0 = MethodMatch("l", "init", index=0)
        assert DefiniteMethod(init0, "1").holds(env)
        assert PossibleMethod(init0, "1").holds(env)
        assert not Hidden(init0).holds(env)
        assert Covered(init0).holds(env)  # the only uncovered op is init

    def test_after_acquire(self, lock_program):
        p = lock_program
        witness = reachable(
            p, lambda c: len(c.beta.ops_on("l")) == 2
        )
        env = make_env(p, witness)
        init0 = MethodMatch("l", "init", index=0)
        acq1 = MethodMatch("l", "acquire", index=1)
        assert Hidden(init0).holds(env)  # init covered by the acquire
        assert Covered(acq1).holds(env)  # acquire is the only uncovered op
        assert not DefiniteMethod(init0, "1").holds(env)

    def test_possible_method_respects_viewfront(self, lock_program):
        p = lock_program
        # After thread 1's release, thread 2 (still at initial view of l)
        # can observe the release.
        witness = reachable(
            p,
            lambda c: any(
                op.act.method == "release" for op in c.beta.ops_on("l")
            )
            and c.cmds["2"] is not None,
        )
        env = make_env(p, witness)
        rel2 = MethodMatch("l", "release", index=2)
        assert PossibleMethod(rel2, "2").holds(env)

    def test_conditional_method_publication(self, lock_program):
        p = lock_program
        # Thread 1 entered first, wrote x := 5 and released: release_2 is
        # thread 1's, so synchronising with it guarantees [x = 5].
        witness = reachable(
            p,
            lambda c: any(
                op.act.method == "release" and op.act.tid == "1"
                and op.act.index == 2
                for op in c.beta.ops_on("l")
            ),
        )
        env = make_env(p, witness)
        rel2 = MethodMatch("l", "release", index=2)
        assert ConditionalMethod(rel2, "x", 5, "2").holds(env)
        assert not ConditionalMethod(rel2, "x", 0, "2").holds(env)

    def test_conditional_method_with_thread2_first(self, lock_program):
        p = lock_program
        # Thread 2 entered first without writing: its release_2 publishes
        # the *initial* x = 0, not 5.
        witness = reachable(
            p,
            lambda c: any(
                op.act.method == "release" and op.act.tid == "2"
                and op.act.index == 2
                for op in c.beta.ops_on("l")
            ),
        )
        env = make_env(p, witness)
        rel2 = MethodMatch("l", "release", index=2)
        assert ConditionalMethod(rel2, "x", 0, "2").holds(env)
        assert not ConditionalMethod(rel2, "x", 5, "2").holds(env)

    def test_conditional_method_vacuous_without_matches(self, lock_program):
        env = make_env(lock_program, initial_config(lock_program))
        rel2 = MethodMatch("l", "release", index=2)
        assert ConditionalMethod(rel2, "x", 5, "2").holds(env)

    def test_method_match_constraints(self):
        from repro.memory.actions import mk_method, mk_write

        rel = mk_method("l", "release", tid="1", index=2, sync=True)
        assert MethodMatch("l", "release").matches(rel)
        assert MethodMatch("l", "release", index=2).matches(rel)
        assert not MethodMatch("l", "release", index=4).matches(rel)
        assert not MethodMatch("l", "acquire").matches(rel)
        assert not MethodMatch("m", "release").matches(rel)
        assert MethodMatch("l", "release", tid="1").matches(rel)
        assert not MethodMatch("l", "release", tid="2").matches(rel)
        assert not MethodMatch("l", "release").matches(mk_write("l", 1, "t"))


class TestStackAtoms:
    @pytest.fixture()
    def stack_env(self):
        stack = AbstractStack("s")
        p = Program(
            threads={
                "1": Thread(
                    A.seq(
                        A.Write("d", Lit(5)),
                        A.MethodCall("s", "pushR", arg=Lit(1)),
                    )
                )
            },
            client_vars={"d": 0},
            objects=(stack,),
        )
        return p

    def test_stack_empty_initially(self, stack_env):
        env = make_env(stack_env, initial_config(stack_env))
        assert StackEmpty("s").holds(env)
        assert not StackTopIs("s", 1).holds(env)
        # Conditional pop is vacuous on an empty stack.
        assert ConditionalPop("s", 1, "d", 5, "2").holds(env)

    def test_after_push(self, stack_env):
        p = stack_env
        witness = reachable(p, lambda c: c.is_terminal())
        env = make_env(p, witness)
        assert not StackEmpty("s").holds(env)
        assert StackTopIs("s", 1).holds(env)
        assert not StackTopIs("s", 2).holds(env)
        # Publication: popping 1 (pushed with release) establishes d = 5.
        assert ConditionalPop("s", 1, "d", 5, "2").holds(env)
        assert not ConditionalPop("s", 1, "d", 0, "2").holds(env)

    def test_conditional_pop_fails_for_relaxed_push(self):
        stack = AbstractStack("s")
        p = Program(
            threads={
                "1": Thread(
                    A.seq(
                        A.Write("d", Lit(5)),
                        A.MethodCall("s", "push", arg=Lit(1)),
                    )
                )
            },
            client_vars={"d": 0},
            objects=(stack,),
        )
        witness = reachable(p, lambda c: c.is_terminal())
        env = make_env(p, witness)
        assert not ConditionalPop("s", 1, "d", 5, "2").holds(env)


class TestDescriptions:
    def test_atoms_have_readable_descriptions(self):
        assert "d" in DefiniteValue("d", 5, "2").describe()
        assert "⟨" in PossibleValue("d", 5, "2").describe()
        assert "release" in PossibleMethod(
            MethodMatch("l", "release", index=2), "2"
        ).describe()
        assert "H[" in Hidden(MethodMatch("l", "init", index=0)).describe()
        assert "C[" in Covered(MethodMatch("l", "init", index=0)).describe()
        assert "pop" in StackEmpty("s").describe()
