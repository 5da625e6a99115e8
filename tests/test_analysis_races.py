"""Tests for the static race detector (:mod:`repro.analysis.races`).

Covers the access-summary model (Cas/Fai kinds, forced awaits), the
release→acquire happens-before oracle, the unmatched-acquire check,
and static-vs-operational agreement on small hand programs.
"""

from repro.analysis import detect_races
from repro.analysis.races import (
    RACE,
    UNMATCHED_ACQUIRE,
    UPDATE,
    operational_races,
    summarise_program,
)
from repro.lang import ast as A
from repro.lang.expr import Lit, Reg
from repro.lang.program import Program


def _program(threads, **kwargs):
    return Program(threads=threads, **kwargs)


def _codes(program):
    return detect_races(program).codes()


def _race_messages(program):
    return [d.message for d in detect_races(program) if d.code == RACE]


def _await_loop(reg, var, acquire=True):
    # The forced-await shape: entry condition certain (the register is
    # seeded 0), sole visible access an acquiring read of the flag.
    return A.seq(
        A.LocalAssign(reg, Lit(0)),
        A.While(Reg(reg).eq(0), A.Read(reg, var, acquire=acquire)),
    )


class TestSummaries:
    def test_cas_is_update_plus_failure_read(self):
        p = _program(
            {"1": A.Cas("r", "x", Lit(0), Lit(1))},
            client_vars={"x": 0},
        )
        summary = summarise_program(p)["1"]
        kinds = sorted(a.kind for a in summary.accesses)
        assert UPDATE in kinds
        assert "read" in kinds  # the relaxed failure read
        upd = next(a for a in summary.accesses if a.kind == UPDATE)
        assert upd.acquire and upd.release

    def test_fai_is_pure_update(self):
        p = _program(
            {"1": A.Fai("r", "x")},
            client_vars={"x": 0},
        )
        summary = summarise_program(p)["1"]
        assert [a.kind for a in summary.accesses] == [UPDATE]

    def test_forced_await_detected(self):
        p = _program(
            {
                "1": _await_loop("r", "f"),
                "2": A.Write("f", Lit(1), release=True),
            },
            client_vars={"f": 0},
        )
        summary = summarise_program(p)["1"]
        assert len(summary.awaits) == 1
        assert summary.awaits[0].var == "f"

    def test_forced_await_position(self):
        # Recorded after the loop body, at the access counter the body
        # leaves: the loop read's position, before any later access.
        p = _program(
            {
                "1": A.seq(_await_loop("r", "f"), A.Read("v", "d")),
                "2": A.Write("f", Lit(1), release=True),
            },
            client_vars={"d": 0, "f": 0},
        )
        summary = summarise_program(p)["1"]
        loop_read, later = summary.accesses
        (aw,) = summary.awaits
        assert aw.pos == loop_read.pos
        assert later.pos > aw.pos
        assert aw.top_level

    def test_forced_await_in_undecided_branch_not_top_level(self):
        p = _program(
            {
                "1": A.seq(
                    A.Read("m", "g"),
                    A.If(Reg("m").eq(0), _await_loop("r", "f")),
                ),
                "2": A.Write("f", Lit(1), release=True),
            },
            client_vars={"f": 0, "g": 0},
        )
        (aw,) = summarise_program(p)["1"].awaits
        assert aw.var == "f"
        assert not aw.top_level

    def test_dead_branch_accesses_dropped(self):
        p = _program(
            {
                "1": A.If(
                    Reg("m").eq(0),
                    A.Write("x", Lit(1)),
                    A.Write("z", Lit(1)),
                ),
                "2": A.Read("r", "z"),
            },
            client_vars={"x": 0, "z": 0},
            init_locals={"1": {"m": 0}},
        )
        summary = summarise_program(p)["1"]
        assert {a.var for a in summary.accesses} == {"x"}


class TestDetector:
    def test_relaxed_conflict_is_a_race(self):
        p = _program(
            {
                "1": A.Write("x", Lit(1)),
                "2": A.Read("r", "x"),
            },
            client_vars={"x": 0},
        )
        assert RACE in _codes(p)
        (msg,) = _race_messages(p)
        assert "'x'" in msg and "release" in msg

    def test_sync_pair_is_never_racy(self):
        p = _program(
            {
                "1": A.Write("x", Lit(1), release=True),
                "2": A.Read("r", "x", acquire=True),
            },
            client_vars={"x": 0},
        )
        assert RACE not in _codes(p)

    def test_read_read_is_not_a_conflict(self):
        p = _program(
            {
                "1": A.Read("a", "x"),
                "2": A.Read("b", "x"),
            },
            client_vars={"x": 0},
        )
        assert RACE not in _codes(p)

    def test_message_passing_protected_by_await(self):
        # The classic MP shape: data write ordered before the releasing
        # flag write; the consumer's forced await orders the data read
        # after it.  No race on 'd'.
        p = _program(
            {
                "1": A.seq(
                    A.Write("d", Lit(5)),
                    A.Write("f", Lit(1), release=True),
                ),
                "2": A.seq(_await_loop("r", "f"), A.Read("v", "d")),
            },
            client_vars={"d": 0, "f": 0},
        )
        assert _codes(p) == frozenset()

    def test_relaxed_flag_write_breaks_the_chain(self):
        p = _program(
            {
                "1": A.seq(
                    A.Write("d", Lit(5)),
                    A.Write("f", Lit(1)),
                ),
                "2": A.seq(
                    _await_loop("r", "f", acquire=True),
                    A.Read("v", "d"),
                ),
            },
            client_vars={"d": 0, "f": 0},
        )
        assert RACE in _codes(p)

    def test_loop_resident_write_not_ordered(self):
        # A write that can repeat inside a loop is not source-ordered
        # before the flag write even if it appears earlier — the
        # detector must not use it as an hb anchor.
        p = _program(
            {
                "1": A.seq(
                    A.seq(
                        A.LocalAssign("i", Lit(0)),
                        A.While(
                            Reg("i").lt(2),
                            A.seq(
                                A.Write("d", Reg("i")),
                                A.LocalAssign("i", Reg("i") + 1),
                            ),
                        ),
                    ),
                    A.Write("f", Lit(1), release=True),
                ),
                "2": A.seq(_await_loop("r", "f"), A.Write("d", Lit(9))),
            },
            client_vars={"d": 0, "f": 0},
        )
        # Conservative: the looped write is in_loop, so the consumer's
        # write to 'd' is flagged even though the await fences it.
        assert RACE in _codes(p)

    def test_transitive_chain_across_three_threads(self):
        # t1 -release-> t2 (awaits f1) -release-> t3 (awaits f2): t3's
        # read of 'd' is ordered after t1's write through two hops.
        p = _program(
            {
                "1": A.seq(
                    A.Write("d", Lit(5)),
                    A.Write("f1", Lit(1), release=True),
                ),
                "2": A.seq(
                    _await_loop("r", "f1"),
                    A.Write("f2", Lit(1), release=True),
                ),
                "3": A.seq(_await_loop("s", "f2"), A.Read("v", "d")),
            },
            client_vars={"d": 0, "f1": 0, "f2": 0},
        )
        assert _codes(p) == frozenset()

    def test_one_racy_pair_reported_once(self):
        p = _program(
            {
                "1": A.seq(A.Write("x", Lit(1)), A.Write("x", Lit(2))),
                "2": A.Read("r", "x"),
            },
            client_vars={"x": 0},
        )
        races = [d for d in detect_races(p) if d.code == RACE]
        assert len(races) == 1  # deduped per (loc, thread pair)


class TestUnmatchedAcquire:
    def test_fires_without_releasing_writer(self):
        p = _program(
            {
                "1": _await_loop("r", "f"),
                "2": A.Write("f", Lit(1)),
            },
            client_vars={"f": 0},
        )
        assert UNMATCHED_ACQUIRE in _codes(p)

    def test_quiet_with_releasing_writer(self):
        p = _program(
            {
                "1": _await_loop("r", "f"),
                "2": A.Write("f", Lit(1), release=True),
            },
            client_vars={"f": 0},
        )
        assert UNMATCHED_ACQUIRE not in _codes(p)

    def test_cas_counts_as_releasing_writer(self):
        # Cas is always acquiring-releasing on success (paper Fig. 4).
        p = _program(
            {
                "1": _await_loop("r", "f"),
                "2": A.Cas("ok", "f", Lit(0), Lit(1)),
            },
            client_vars={"f": 0},
        )
        assert UNMATCHED_ACQUIRE not in _codes(p)


class TestOperationalAgreement:
    """The differential contract on hand programs: static-race-free
    implies operationally race-free (soundness); the full-catalog sweep
    lives in test_analysis_catalog.py."""

    def _agree(self, program):
        static_racy = RACE in _codes(program)
        dynamic = operational_races(program)
        if not static_racy:
            assert dynamic == [], (
                "static detector missed an operational race: " f"{dynamic}"
            )
        return static_racy, dynamic

    def test_clean_mp_agrees(self):
        p = _program(
            {
                "1": A.seq(
                    A.Write("d", Lit(5)),
                    A.Write("f", Lit(1), release=True),
                ),
                "2": A.seq(_await_loop("r", "f"), A.Read("v", "d")),
            },
            client_vars={"d": 0, "f": 0},
        )
        static_racy, dynamic = self._agree(p)
        assert not static_racy and dynamic == []

    def test_racy_store_buffer_agrees(self):
        p = _program(
            {
                "1": A.seq(A.Write("x", Lit(1)), A.Read("a", "y")),
                "2": A.seq(A.Write("y", Lit(1)), A.Read("b", "x")),
            },
            client_vars={"x": 0, "y": 0},
        )
        static_racy, dynamic = self._agree(p)
        assert static_racy
        assert {var for var, _tids in dynamic} == {"x", "y"}

    def test_sync_pairs_invisible_dynamically_too(self):
        p = _program(
            {
                "1": A.Write("x", Lit(1), release=True),
                "2": A.Read("r", "x", acquire=True),
            },
            client_vars={"x": 0},
        )
        static_racy, dynamic = self._agree(p)
        assert not static_racy and dynamic == []
