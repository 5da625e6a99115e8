"""Tests for witness (shortest counterexample execution) extraction."""

import pytest

from repro.lang import ast as A
from repro.lang.expr import Lit
from repro.lang.program import Program, Thread
from repro.semantics.config import initial_config
from repro.semantics.explore import explore
from repro.semantics.step import transitions
from repro.semantics.witness import Witness, find_path, replay_witness
from repro.util.errors import VerificationError
from tests.conftest import mp_ra, mp_relaxed, single_writer


class TestFindPath:
    def test_initial_satisfies(self):
        p = mp_relaxed()
        w = find_path(p, lambda c: True)
        assert w is not None and len(w) == 0
        assert w.final is w.initial

    def test_unreachable_returns_none(self):
        p = mp_ra()
        w = find_path(
            p,
            lambda c: c.is_terminal()
            and c.local("2", "r1") == 1
            and c.local("2", "r2") == 0,
        )
        assert w is None

    def test_weak_behaviour_witness(self):
        p = mp_relaxed()
        w = find_path(
            p,
            lambda c: c.is_terminal()
            and c.local("2", "r1") == 1
            and c.local("2", "r2") == 0,
        )
        assert w is not None
        assert w.final.is_terminal()
        assert w.final.local("2", "r2") == 0

    def test_witness_is_replayable(self):
        """Each step of the witness is an actual successor along the way."""
        p = mp_relaxed()
        w = find_path(
            p, lambda c: c.is_terminal() and c.local("2", "r1") == 1
        )
        cfg = w.initial
        for step in w.steps:
            targets = [tr.target for tr in transitions(p, cfg)]
            assert step.config in targets
            cfg = step.config
        assert cfg.is_terminal()

    def test_witness_is_shortest(self):
        """BFS guarantees minimality: no strictly shorter execution
        reaches the predicate (checked by bounded enumeration)."""
        p = mp_relaxed()
        pred = lambda c: c.is_terminal()  # noqa: E731
        w = find_path(p, pred)
        # Enumerate all executions up to len(w) - 1 steps: none terminal.
        frontier = [initial_config(p)]
        for _ in range(len(w) - 1):
            assert not any(pred(c) for c in frontier)
            frontier = [
                tr.target for c in frontier for tr in transitions(p, c)
            ]

    def test_replay_rejects_foreign_step(self):
        """A schedule step that is not a successor where it is scheduled
        is refused, not replayed."""
        p = mp_relaxed()
        w = find_path(p, lambda c: c.is_terminal())
        forged = Witness(initial=w.initial, steps=[w.steps[-1]])
        with pytest.raises(VerificationError, match="step 1 .*not a"):
            replay_witness(p, forged)

    def test_schedule_and_describe(self):
        p = mp_relaxed()
        w = find_path(p, lambda c: c.is_terminal())
        assert len(w.schedule()) == len(w)
        text = w.describe()
        assert "witness execution" in text
        assert text.count("\n") == len(w)

    def test_silent_steps_render_as_epsilon(self):
        """Silent steps print as a proper Greek ε, not the o-with-ogonek
        mojibake (regression: U+01EB crept into ``describe``)."""
        prog = Program(
            threads={"1": Thread(A.seq(A.LocalAssign("r", Lit(1)),
                                       A.Write("x", Lit(1))))},
            client_vars={"x": 0},
        )
        w = find_path(prog, lambda c: c.is_terminal())
        silent = [s for s in w.steps if s.action is None]
        assert silent
        assert all("ε" in s.describe() for s in silent)
        assert all("ǫ" not in s.describe() for s in w.steps)


class TestTruncation:
    """``max_states`` semantics: truncated means inconclusive, never
    "unreachable" — and the cap must not hide a witness already in hand.
    """

    def test_truncated_no_witness_raises(self):
        # Unsatisfiable predicate + capped search: returning None would
        # claim unreachability the search did not establish.
        with pytest.raises(VerificationError, match="truncated"):
            find_path(mp_relaxed(), lambda c: False, max_states=3)

    def test_exhaustive_no_witness_still_returns_none(self):
        full = explore(mp_relaxed())
        assert (
            find_path(
                mp_relaxed(),
                lambda c: False,
                max_states=full.state_count,
            )
            is None
        )

    def test_witness_at_cap_boundary_is_found(self):
        # One thread, one write: the only successor of the initial
        # configuration is terminal.  With max_states=1 the cap is
        # already reached when that successor is generated — the
        # predicate must still be tested on it (the historical code
        # bailed first and returned None).
        p = single_writer()
        w = find_path(p, lambda c: c.is_terminal(), max_states=1)
        assert w is not None and len(w) == 1

    def test_no_none_between_one_and_full(self):
        # For every budget, find_path either produces the witness or
        # refuses loudly — never a silent None when one exists.
        p = mp_relaxed()
        pred = lambda c: c.is_terminal() and c.local("2", "r2") == 0  # noqa: E731
        full = explore(p).state_count
        for cap in range(1, full + 1):
            try:
                w = find_path(p, pred, max_states=cap)
            except VerificationError:
                continue
            assert w is not None and pred(w.final)


class TestPeterson:
    def test_mutual_exclusion_fails_under_ra(self):
        """Peterson's algorithm is broken in RC11 RAR: both threads can
        occupy their critical sections simultaneously."""
        from repro.litmus.peterson import (
            mutual_exclusion_violated,
            peterson_program,
        )

        p = peterson_program()
        w = find_path(p, lambda c: mutual_exclusion_violated(c, p))
        assert w is not None
        # The witness must contain a stale flag read: some acquiring read
        # of a flag returning 0 after that flag was written 1.
        flag_writes = set()
        stale_read = False
        for step in w.steps:
            a = step.action
            if a is None:
                continue
            if a.kind == "wrR" and a.var.startswith("flag") and a.val == 1:
                flag_writes.add(a.var)
            if a.kind == "rdA" and a.var in flag_writes and a.val == 0:
                stale_read = True
        assert stale_read

    def test_peterson_terminates(self):
        from repro.litmus.peterson import peterson_program

        result = explore(peterson_program())
        assert not result.truncated
        assert not result.stuck
        assert result.terminals
