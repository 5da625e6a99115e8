"""Rule-level tests for Figure 5's Read/Write/Update transitions.

These exercise the memory semantics directly (not through programs),
checking the exact view updates each rule prescribes.
"""

from fractions import Fraction

import pytest

from repro.lang.program import Program, Thread
from repro.lang import ast as A
from repro.memory.initial import initial_states
from repro.memory.transitions import (
    ANY_VALUE,
    read_steps,
    update_steps,
    write_steps,
)
from tests.conftest import mp_relaxed


@pytest.fixture()
def states():
    return initial_states(mp_relaxed())


def the(steps):
    out = list(steps)
    assert len(out) == 1, f"expected exactly one step, got {len(out)}"
    return out[0]


class TestWriteRule:
    def test_write_appends_and_advances_view(self, states):
        gamma, beta = states
        action, after, gamma2, beta2 = the(
            write_steps(gamma, beta, "1", "d", 5, release=False)
        )
        assert action.kind == "wr" and action.val == 5
        assert after.ts == Fraction(0)
        new = gamma2.thread_view("1", "d")
        assert new.act == action and new.ts > Fraction(0)
        # Writer can no longer see the initial write.
        assert gamma2.obs("1", "d") == (new,)
        # Other thread unaffected.
        assert len(gamma2.obs("2", "d")) == 2
        # Context untouched by a plain write.
        assert beta2 is beta

    def test_write_mview_spans_both_components(self, states):
        gamma, beta = states
        _a, _w, gamma2, _b = the(
            write_steps(gamma, beta, "1", "d", 5, release=False)
        )
        new = gamma2.thread_view("1", "d")
        mview = gamma2.mview[new]
        # Client vars from tview' plus (nothing here) library vars from β.
        assert mview["d"] == new
        assert "f" in mview

    def test_release_annotation_recorded(self, states):
        gamma, beta = states
        action, _w, _g, _b = the(
            write_steps(gamma, beta, "1", "d", 5, release=True)
        )
        assert action.kind == "wrR"

    def test_placement_choices_enumerated(self, states):
        gamma, beta = states
        # After two writes by thread 1, thread 2 (viewfront at init) has
        # three placement choices for its own write.
        _, _, gamma, _ = the(write_steps(gamma, beta, "1", "d", 1, False))
        _, _, gamma, _ = the(write_steps(gamma, beta, "1", "d", 2, False))
        placements = list(write_steps(gamma, beta, "2", "d", 9, False))
        assert len(placements) == 3
        # Each choice inserts directly after its anchor.
        for _a, anchor, g2, _b2 in placements:
            new = g2.thread_view("2", "d")
            between = [
                op
                for op in g2.ops_on("d")
                if anchor.ts < op.ts < new.ts
            ]
            assert between == []

    def test_covered_anchor_excluded(self, states):
        gamma, beta = states
        init_op = gamma.last_op("d")
        _a, _w, gamma2, beta2 = the(
            update_steps(gamma, beta, "1", "d", 0, lambda m: m + 1)
        )
        # Thread 2 cannot place a write directly after the covered init.
        anchors = [w for _a, w, _g, _b in write_steps(gamma2, beta2, "2", "d", 9, False)]
        assert init_op not in anchors


class TestReadRule:
    def test_relaxed_read_moves_only_that_variable(self, states):
        gamma, beta = states
        _a, _w, gamma1, _ = the(write_steps(gamma, beta, "1", "d", 5, False))
        new = gamma1.thread_view("1", "d")
        steps = {
            w.ts: (a, g2) for a, w, g2, _b in read_steps(gamma1, beta, "2", "d", False)
        }
        assert len(steps) == 2  # init and the new write
        a, g2 = steps[new.ts]
        assert a.val == 5
        assert g2.thread_view("2", "d") == new
        # f's view unchanged by reading d.
        assert g2.thread_view("2", "f") == gamma1.thread_view("2", "f")

    def test_acquiring_read_of_relaxed_write_does_not_sync(self, states):
        gamma, beta = states
        _a, _w, gamma1, _ = the(write_steps(gamma, beta, "1", "d", 5, False))
        _a2, _w2, gamma2, _ = the(write_steps(gamma1, beta, "1", "f", 1, False))
        fnew = gamma2.thread_view("1", "f")
        # Thread 2 acquiring-reads f = 1 (a relaxed write): no transfer of
        # thread 1's view of d.
        for a, w, g2, _b in read_steps(gamma2, beta, "2", "f", True):
            if w == fnew:
                assert g2.thread_view("2", "d").ts == Fraction(0)

    def test_acquiring_read_of_releasing_write_syncs(self, states):
        gamma, beta = states
        _a, _w, gamma1, _ = the(write_steps(gamma, beta, "1", "d", 5, False))
        dnew = gamma1.thread_view("1", "d")
        _a2, _w2, gamma2, _ = the(write_steps(gamma1, beta, "1", "f", 1, True))
        fnew = gamma2.thread_view("1", "f")
        for a, w, g2, _b in read_steps(gamma2, beta, "2", "f", True):
            if w == fnew:
                # Thread 2's view of d jumps to thread 1's write.
                assert g2.thread_view("2", "d") == dnew

    def test_relaxed_read_of_releasing_write_does_not_sync(self, states):
        gamma, beta = states
        _a, _w, gamma1, _ = the(write_steps(gamma, beta, "1", "d", 5, False))
        _a2, _w2, gamma2, _ = the(write_steps(gamma1, beta, "1", "f", 1, True))
        fnew = gamma2.thread_view("1", "f")
        for a, w, g2, _b in read_steps(gamma2, beta, "2", "f", False):
            if w == fnew:
                assert g2.thread_view("2", "d").ts == Fraction(0)

    def test_forbid_filter(self, states):
        # CAS failure: a relaxed read of any observable value ≠ u.
        gamma, beta = states
        _a, _w, gamma1, _ = the(write_steps(gamma, beta, "1", "d", 5, False))
        vals = [
            a.val
            for a, _w, _g, _b in read_steps(
                gamma1, beta, "2", "d", False, forbid=5
            )
        ]
        assert vals == [0]

    def test_forbid_none_is_a_real_value(self, states):
        # The sentinel default means "no filter": forbidding the value
        # ``None`` must filter reads of None, not disable filtering.
        gamma, beta = states
        _a, _w, gamma1, _ = the(write_steps(gamma, beta, "1", "d", None, False))
        vals = [
            a.val
            for a, _w, _g, _b in read_steps(
                gamma1, beta, "2", "d", False, forbid=None
            )
        ]
        assert vals == [0]


class TestUpdateRule:
    def test_update_covers_and_reads_and_writes(self, states):
        gamma, beta = states
        init_op = gamma.last_op("d")
        action, w, gamma2, _b = the(
            update_steps(gamma, beta, "1", "d", 0, lambda m: m + 1)
        )
        assert action.kind == "updRA"
        assert action.rdval == 0 and action.val == 1
        assert w == init_op
        assert init_op in gamma2.cvd
        new = gamma2.thread_view("1", "d")
        assert new.act == action

    def test_expect_filter_blocks(self, states):
        gamma, beta = states
        assert list(update_steps(gamma, beta, "1", "d", 7, lambda m: m)) == []

    def test_expect_none_is_a_value_not_a_wildcard(self, states):
        # ``None`` is a legal value: an update expecting it must not
        # match the initial 0.
        gamma, beta = states
        steps = update_steps(gamma, beta, "1", "d", None, lambda m: 5)
        assert list(steps) == []

    def test_two_updates_chain(self, states):
        gamma, beta = states
        _a, _w, gamma1, _ = the(
            update_steps(gamma, beta, "1", "d", ANY_VALUE, lambda m: m + 1)
        )
        # Second update (by thread 2) must read the first update, not init.
        action, w, gamma2, _b = the(
            update_steps(gamma1, beta, "2", "d", ANY_VALUE, lambda m: m + 1)
        )
        assert action.rdval == 1 and action.val == 2
        assert w.act.kind == "updRA"

    def test_update_of_releasing_write_syncs_context_view(self, states):
        gamma, beta = states
        # Thread 1 writes d := 5 then releases f := 1; thread 2's CAS on f
        # acquires thread 1's view of d.
        _a, _w, gamma1, _ = the(write_steps(gamma, beta, "1", "d", 5, False))
        dnew = gamma1.thread_view("1", "d")
        _a2, _w2, gamma2, _ = the(write_steps(gamma1, beta, "1", "f", 1, True))
        steps = [
            (a, g2)
            for a, w, g2, _b in update_steps(gamma2, beta, "2", "f", 1, lambda m: 9)
        ]
        assert len(steps) == 1
        _a3, g3 = steps[0]
        assert g3.thread_view("2", "d") == dnew

    def test_update_mview_includes_itself(self, states):
        gamma, beta = states
        _a, _w, gamma2, _b = the(
            update_steps(gamma, beta, "1", "d", 0, lambda m: m + 1)
        )
        new = gamma2.thread_view("1", "d")
        assert gamma2.mview[new]["d"] == new
