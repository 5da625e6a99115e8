"""Tests for configurations of the combined semantics."""

import pytest

from repro.lang import ast as A
from repro.lang.expr import Lit
from repro.lang.program import Program, Thread
from repro.semantics.config import Config, initial_config
from repro.semantics.explore import explore
from repro.semantics.step import transitions


@pytest.fixture()
def program():
    return Program(
        threads={
            "1": Thread(
                A.seq(
                    A.Labeled(1, A.Write("x", Lit(5))),
                    A.Labeled(2, A.Read("r", "x")),
                ),
                done_label=3,
            ),
            "2": Thread(A.Labeled(1, A.Read("s", "x")), done_label=2),
        },
        client_vars={"x": 0},
    )


class TestInitialConfig:
    def test_continuations_installed(self, program):
        cfg = initial_config(program)
        assert cfg.cmd("1") is program.body_of("1")
        assert not cfg.is_terminal()

    def test_pcs(self, program):
        cfg = initial_config(program)
        assert cfg.pc("1", program) == 1
        assert cfg.pc("2", program) == 1

    def test_local_default(self, program):
        cfg = initial_config(program)
        assert cfg.local("1", "unset") is None
        assert cfg.local("1", "unset", default=0) == 0


class TestProgress:
    def test_pc_advances(self, program):
        cfg = initial_config(program)
        tr1 = next(
            t for t in transitions(program, cfg) if t.tid == "1"
        )
        assert tr1.target.pc("1", program) == 2
        assert tr1.target.pc("2", program) == 1

    def test_terminal_pcs_use_done_labels(self, program):
        result = explore(program)
        for cfg in result.terminals:
            assert cfg.pc("1", program) == 3
            assert cfg.pc("2", program) == 2
            assert cfg.is_terminal()

    def test_with_thread_replaces_only_target(self, program):
        cfg = initial_config(program)
        cfg2 = cfg.with_thread(
            "1", None, cfg.locals["1"].set("r", 9), cfg.gamma, cfg.beta
        )
        assert cfg2.cmd("1") is None
        assert cfg2.cmd("2") is cfg.cmd("2")
        assert cfg2.local("1", "r") == 9
        assert cfg.local("1", "r") is None  # original untouched


class TestIdentity:
    def test_configs_hashable_and_equal(self, program):
        assert initial_config(program) == initial_config(program)
        assert hash(initial_config(program)) == hash(initial_config(program))

    def test_distinct_after_step(self, program):
        cfg = initial_config(program)
        for tr in transitions(program, cfg):
            assert tr.target != cfg
