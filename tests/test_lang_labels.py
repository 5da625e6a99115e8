"""Tests for program-counter extraction from continuations."""

import pytest

from repro.figures.fig3 import fig3_outline
from repro.figures.fig7 import fig7_outline
from repro.impls.spinlock import SPINLOCK_VARS, spinlock_fill
from repro.lang import ast as A
from repro.lang import labels
from repro.lang.expr import Lit, Reg
from repro.lang.labels import DONE_PC, pc_of
from repro.lang.walk import fold
from repro.litmus.clients import lock_client_three_threads
from repro.litmus.peterson import peterson_program
from repro.semantics.config import Config
from repro.semantics.explore import explore
from tests.conftest import (
    abstract_lock_client,
    seqlock_client,
    spinlock_client,
    ticketlock_client,
)


class TestPcOf:
    def test_terminated_thread(self):
        assert pc_of(None) == DONE_PC

    def test_custom_done_label(self):
        assert pc_of(None, done_label=5) == 5

    def test_labeled_statement(self):
        cmd = A.Labeled(3, A.Write("x", Lit(1)))
        assert pc_of(cmd) == 3

    def test_leftmost_in_sequence(self):
        cmd = A.seq(
            A.Labeled(1, A.Write("x", Lit(1))),
            A.Labeled(2, A.Write("y", Lit(2))),
        )
        assert pc_of(cmd) == 1

    def test_label_persists_inside_region(self):
        # A label wrapping a loop denotes the whole region: stepping
        # inside must keep the same pc.
        loop = A.Labeled(
            3, A.do_until(A.MethodCall("s", "pop", dest="r"), Reg("r").eq(1))
        )
        assert pc_of(loop) == 3
        # Mid-execution shape: Labeled(3, While(...)).
        mid = A.Labeled(3, A.While(Reg("r").eq(0), A.MethodCall("s", "pop", dest="r")))
        assert pc_of(mid) == 3

    def test_label_wrapping_libblock(self):
        cmd = A.Labeled(1, A.LibBlock(A.Fai("_m", "nt")))
        assert pc_of(cmd) == 1

    def test_unlabelled_active_command(self):
        assert pc_of(A.Write("x", Lit(1))) is None

    def test_unlabelled_prefix_falls_through_to_label(self):
        # An unlabelled leading command belongs to the previous label's
        # region; the leftmost label after it is reported.
        cmd = A.seq(A.LocalAssign("t", Lit(0)), A.Labeled(7, A.Write("x", Lit(1))))
        assert pc_of(cmd) == 7

    def test_label_inside_while_body(self):
        cmd = A.While(Reg("r").eq(0), A.Labeled(2, A.Read("r", "x")))
        assert pc_of(cmd) == 2

    def test_if_branches_not_consulted(self):
        cmd = A.If(Reg("r").eq(0), A.Labeled(9, A.Write("x", Lit(1))))
        assert pc_of(cmd) is None

    def test_string_labels(self):
        cmd = A.Labeled("cs", A.Write("x", Lit(1)))
        assert pc_of(cmd) == "cs"



def _uncached(cmd):
    return fold(cmd, labels._label_fold)


def _reachable(program):
    """Every reachable configuration of ``program``."""
    return list(explore(program).configs.values())


PC_PROGRAMS = {
    "fig3": lambda: fig3_outline().program,
    "fig7": lambda: fig7_outline().program,
    "peterson": peterson_program,
    "abstract-lock": abstract_lock_client,
    "seqlock": seqlock_client,
    "ticketlock": ticketlock_client,
    "spinlock": spinlock_client,
    "spinlock-three-threads": lambda: lock_client_three_threads(
        spinlock_fill, lib_vars=dict(SPINLOCK_VARS)
    ),
}


class TestPcMemo:
    """``Config.pc`` keeps one label per thread id in the program's
    ``pcs`` table; the table must agree with the plain fold."""

    @pytest.mark.parametrize("name", sorted(PC_PROGRAMS))
    def test_memo_matches_uncached_fold(self, name):
        program = PC_PROGRAMS[name]()
        configs = _reachable(program)
        # First pass fills the table (misses), second reads it (hits).
        for _ in range(2):
            for cfg in configs:
                for tid in program.tids:
                    cmd = cfg.cmds[tid]
                    expected = (
                        program.done_label_of(tid) if cmd is None
                        else _uncached(cmd)
                    )
                    assert cfg.pc(tid, program) == expected
        assert program._interner.pcs

    @pytest.mark.parametrize("name", sorted(PC_PROGRAMS))
    def test_fresh_loop_unfoldings_hit_by_value(self, name):
        program = PC_PROGRAMS[name]()
        configs = _reachable(program)
        for cfg in configs:
            for tid in program.tids:
                cfg.pc(tid, program)
        pcs = program._interner.pcs
        size = len(pcs)
        rebuilt = 0
        # Configurations whose continuations are new objects, equal by
        # value (a fresh ``Seq`` over the same children, as a loop
        # unfolding builds one): they are answered from the table
        # without adding entries.
        for cfg in configs:
            for tid in program.tids:
                cmd = cfg.cmds[tid]
                if not isinstance(cmd, A.Seq):
                    continue
                again = A.Seq(cmd.first, cmd.second)
                assert again is not cmd
                fresh = Config(
                    cfg.cmds.set(tid, again), cfg.locals, cfg.gamma, cfg.beta
                )
                assert fresh.pc(tid, program) == _uncached(cmd)
                rebuilt += 1
        assert rebuilt
        assert len(pcs) == size
