"""Tests for assertion environments and combinators."""

import pytest

from repro.assertions.core import (
    FALSE,
    TRUE,
    AtPc,
    Env,
    LocalEq,
    LocalIn,
    Pred,
    all_of,
    make_env,
)
from repro.lang import ast as A
from repro.lang.expr import Lit
from repro.lang.program import Program, Thread
from repro.semantics.config import initial_config
from repro.semantics.step import transitions


@pytest.fixture()
def env():
    p = Program(
        threads={
            "1": Thread(
                A.seq(
                    A.Labeled(1, A.LocalAssign("r", Lit(5))),
                    A.Labeled(2, A.LocalAssign("q", Lit(6))),
                ),
                done_label=3,
            )
        },
        client_vars={"x": 0},
        lib_vars={"glb": 0},
        init_locals={"1": {"r": 0}},
    )
    return make_env(p, initial_config(p))


class TestEnv:
    def test_components(self, env):
        assert env.component("C") is env.gamma
        assert env.component("L") is env.beta
        with pytest.raises(ValueError):
            env.component("X")

    def test_component_of_var(self, env):
        assert env.component_of_var("x") == "C"
        assert env.component_of_var("glb") == "L"
        with pytest.raises(KeyError):
            env.component_of_var("nope")

    def test_local_and_pc(self, env):
        assert env.local("1", "r") == 0
        assert env.local("1", "missing") is None
        assert env.pc("1") == 1


class TestCombinators:
    def test_constants(self, env):
        assert TRUE.holds(env)
        assert not FALSE.holds(env)

    def test_and_or_not(self, env):
        assert (TRUE & TRUE).holds(env)
        assert not (TRUE & FALSE).holds(env)
        assert (TRUE | FALSE).holds(env)
        assert not (FALSE | FALSE).holds(env)
        assert (~FALSE).holds(env)

    def test_implication(self, env):
        assert (FALSE >> FALSE).holds(env)
        assert (FALSE >> TRUE).holds(env)
        assert (TRUE >> TRUE).holds(env)
        assert not (TRUE >> FALSE).holds(env)

    def test_callable_protocol(self, env):
        assert TRUE(env) is True

    def test_describe_composition(self):
        d = ((TRUE & FALSE) | ~TRUE).describe()
        assert "∧" in d and "∨" in d and "¬" in d

    def test_all_of(self, env):
        assert all_of([]).holds(env)
        assert all_of([TRUE, TRUE]).holds(env)
        assert not all_of([TRUE, FALSE]).holds(env)


class TestAtoms:
    def test_local_eq(self, env):
        assert LocalEq("1", "r", 0).holds(env)
        assert not LocalEq("1", "r", 1).holds(env)

    def test_local_in(self, env):
        assert LocalIn("1", "r", (0, 1)).holds(env)
        assert not LocalIn("1", "r", (1, 3)).holds(env)

    def test_at_pc_tracks_execution(self, env):
        assert AtPc("1", (1,)).holds(env)
        p = env.program
        cfg2 = transitions(p, env.config)[0].target
        env2 = make_env(p, cfg2)
        assert AtPc("1", (2,)).holds(env2)
        cfg3 = transitions(p, cfg2)[0].target
        env3 = make_env(p, cfg3)
        assert AtPc("1", (3,)).holds(env3)  # done label

    def test_pred_escape_hatch(self, env):
        a = Pred(lambda e: e.local("1", "r") == 0, name="r is 0")
        assert a.holds(env)
        assert a.describe() == "r is 0"
