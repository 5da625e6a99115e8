"""DPOR layer unit + property suite (:mod:`repro.semantics.dpor`).

The load-bearing property is the *independence oracle*: whenever
:func:`~repro.semantics.dpor.independence` classifies an enabled pair as
``strong``, executing the pair in either order must close a diamond of
**bit-identical** configurations; ``canonical`` pairs must close it up
to the canonical rank-encoding (equal :func:`canonical_key`).  The
hypothesis suite below checks this differentially over random programs,
comparing *label-grouped successor sets* rather than matching single
transitions — a write's action label does not pin its timestamp
placement, so the sound diamond statement is set-level: every
``a``-then-``b``-labelled outcome has an equal ``b``-then-``a``-labelled
counterpart and vice versa.

The unit tests pin the conservative footprint analysis, the conflict
partition, the persistent-set selection's fallbacks, and the registered
strategy's composability flags.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.lang import ast as A
from repro.lang.expr import Lit, Reg
from repro.lang.program import Program, Thread
from repro.semantics.canon import canonical_key
from repro.semantics.config import initial_config
from repro.semantics.dpor import (
    CANONICAL,
    DEPENDENT,
    STRONG,
    _partition,
    dpor_successors,
    footprints_conflict,
    independence,
    thread_footprint,
)
from repro.semantics.reduce import (
    close_config,
    get_strategy,
    reduced_successors,
)


# -- footprints --------------------------------------------------------------


class TestFootprints:
    def test_atomic_commands(self):
        reads, writes, top = thread_footprint(A.Read("r1", "x"))
        assert reads == {("C", "x")} and not writes and not top
        reads, writes, top = thread_footprint(A.Write("x", Lit(1)))
        assert writes == {("C", "x")} and not reads and not top
        for cmd in (A.Cas("r1", "x", Lit(0), Lit(1)), A.Fai("r1", "x")):
            reads, writes, top = thread_footprint(cmd)
            assert reads == writes == {("C", "x")} and not top

    def test_structural_union(self):
        cmd = A.seq(
            A.Write("x", Lit(1)),
            A.If(Reg("r1").eq(0), A.Read("r1", "y"), A.Read("r1", "z")),
            A.While(Reg("r1").eq(0), A.Read("r1", "f")),
        )
        reads, writes, top = thread_footprint(cmd)
        assert writes == {("C", "x")}
        assert reads == {("C", "y"), ("C", "z"), ("C", "f")}
        assert not top

    def test_lib_block_components(self):
        cmd = A.LibBlock(A.Write("l", Lit(1)), public_regs=frozenset())
        _reads, writes, top = thread_footprint(cmd)
        assert writes == {("L", "l")} and not top

    def test_method_call_is_top(self):
        fp = thread_footprint(A.MethodCall("r1", "s", "push", Lit(1)))
        assert fp[2]  # ⊤
        assert footprints_conflict(fp, thread_footprint(A.Read("r1", "x")))

    def test_local_assign_is_empty(self):
        fp = thread_footprint(A.LocalAssign("r1", Lit(0)))
        assert fp == (frozenset(), frozenset(), False)
        assert not footprints_conflict(fp, fp)

    def test_conflict_requires_a_write(self):
        rx = thread_footprint(A.Read("r1", "x"))
        wx = thread_footprint(A.Write("x", Lit(1)))
        wy = thread_footprint(A.Write("y", Lit(1)))
        assert not footprints_conflict(rx, rx)  # read/read never conflicts
        assert footprints_conflict(rx, wx)
        assert footprints_conflict(wx, wx)
        assert not footprints_conflict(rx, wy)
        assert not footprints_conflict(wx, wy)


# -- conflict partition and persistent selection -----------------------------


def _two_disjoint_pairs():
    """Four threads, two independent message-passing pairs (x/f vs y/g)."""
    ra = dict(release=True)

    def producer(var, flag):
        return A.seq(
            A.Write(var, Lit(5)), A.Write(flag, Lit(1), release=True)
        )

    def consumer(var, flag):
        return A.seq(
            A.LocalAssign("r1", Lit(0)),
            A.While(Reg("r1").eq(0), A.Read("r1", flag, acquire=True)),
            A.Read("r2", var),
        )

    del ra
    return Program(
        threads={
            "1": Thread(producer("x", "f")),
            "2": Thread(consumer("x", "f")),
            "3": Thread(producer("y", "g")),
            "4": Thread(consumer("y", "g")),
        },
        client_vars={"x": 0, "f": 0, "y": 0, "g": 0},
    )


class TestPartition:
    def test_disjoint_pairs_split(self):
        program = _two_disjoint_pairs()
        cfg = close_config(program, initial_config(program))
        groups = sorted(sorted(g) for g in _partition(program, cfg))
        assert groups == [["1", "2"], ["3", "4"]]

    def test_shared_variable_joins(self):
        program = Program(
            threads={
                "1": Thread(A.Write("x", Lit(1))),
                "2": Thread(A.Read("r1", "x")),
            },
            client_vars={"x": 0},
        )
        cfg = close_config(program, initial_config(program))
        assert len(_partition(program, cfg)) == 1

    def test_dpor_restricts_to_one_component(self):
        """On the split program the expansion stays inside one pair."""
        program = _two_disjoint_pairs()
        cfg = close_config(program, initial_config(program))
        pairs = dpor_successors(program, cfg, frozenset())
        tids = {tr.tid for tr, _sleep in pairs}
        assert tids <= {"1", "2"} or tids <= {"3", "4"}
        full = reduced_successors(program, cfg)
        assert len(pairs) < len(full)

    def test_single_component_full_expansion(self):
        program = Program(
            threads={
                "1": Thread(A.Write("x", Lit(1))),
                "2": Thread(A.Fai("r1", "x")),
            },
            client_vars={"x": 0},
        )
        cfg = close_config(program, initial_config(program))
        pairs = dpor_successors(program, cfg, frozenset())
        assert len(pairs) == len(reduced_successors(program, cfg))
        # Conflicting siblings never put each other to sleep.
        assert all(sleep == frozenset() for _tr, sleep in pairs)


# -- the registered strategy -------------------------------------------------


class TestStrategy:
    def test_flags(self):
        strat = get_strategy("dpor")
        assert strat.name == "dpor"
        assert strat.fingerprint_token == "dpor-1"
        assert strat.closure_expansion
        assert strat.requires_canonical
        assert strat.supports_witness_reexpansion
        assert strat.sleep_expand is dpor_successors
        assert "reduce.dpor.sleep_blocked" in strat.metric_names
        assert "reduce.dpor.persistent_expanded" in strat.metric_names

    def test_requires_canonical_enforced(self):
        from repro.engine.core import explore_sequential

        with pytest.raises(ValueError, match="canonical"):
            explore_sequential(
                _two_disjoint_pairs(), reduction="dpor", canonicalise=False
            )

    def test_counters_fire(self):
        from repro.engine.core import explore_sequential
        from repro.obs.metrics import Metrics

        m = Metrics()
        explore_sequential(
            _two_disjoint_pairs(), reduction="dpor", metrics=m
        )
        assert m.counters.get("reduce.dpor.persistent_expanded", 0) > 0


# -- independence oracle: differential diamond property ----------------------

VARS = ("x", "y", "z")


@st.composite
def atomic_commands(draw, regs=("r1", "r2")):
    kind = draw(
        st.sampled_from(["write", "writeR", "read", "readA", "cas", "fai"])
    )
    var = draw(st.sampled_from(VARS))
    reg = draw(st.sampled_from(regs))
    val = draw(st.integers(min_value=0, max_value=2))
    if kind == "write":
        return A.Write(var, Lit(val))
    if kind == "writeR":
        return A.Write(var, Lit(val), release=True)
    if kind == "read":
        return A.Read(reg, var)
    if kind == "readA":
        return A.Read(reg, var, acquire=True)
    if kind == "cas":
        return A.Cas(reg, var, Lit(val), Lit(val + 1))
    return A.Fai(reg, var)


@st.composite
def programs(draw):
    def thread():
        n = draw(st.integers(1, 3))
        return A.seq(*[draw(atomic_commands()) for _ in range(n)])

    threads = {
        str(i + 1): Thread(thread())
        for i in range(draw(st.integers(2, 3)))
    }
    return Program(
        threads=threads,
        client_vars={v: 0 for v in VARS},
        init_locals={
            tid: {"r1": 0, "r2": 0} for tid in threads
        },
    )


def _label(tr):
    return (tr.tid, tr.component, tr.action)


def _after(program, succs, first_label, second_label):
    """Targets reached by any ``first_label`` edge then any
    ``second_label`` edge.

    Both steps are grouped by label: an action label does not pin a
    write's timestamp placement, so the sound commutation statement —
    and the granularity sleep sets prune at, where a sleeping thread's
    *entire* enabled set was expanded from the sibling — is between the
    label-grouped outcome sets, not between single placements.
    """
    return [
        t2.target
        for t1 in succs
        if _label(t1) == first_label
        for t2 in reduced_successors(program, t1.target)
        if _label(t2) == second_label
    ]


def _check_diamond(program, succs, la, lb, verdict):
    ab = _after(program, succs, la, lb)
    ba = _after(program, succs, lb, la)
    if verdict == STRONG:
        # Bit-identical: every a-then-b outcome appears (dataclass
        # equality) among the b-then-a outcomes, and vice versa.
        assert all(any(x == y for y in ba) for x in ab), (la, lb)
        assert all(any(x == y for y in ab) for x in ba), (la, lb)
    else:
        ka = {canonical_key(program, x) for x in ab}
        kb = {canonical_key(program, x) for x in ba}
        assert ka == kb, (la, lb)


def _scan_diamonds(program, max_configs=150):
    """BFS the closed system, checking every independent enabled pair."""
    checked = 0
    init = close_config(program, initial_config(program))
    seen = {canonical_key(program, init)}
    frontier = [init]
    while frontier and len(seen) <= max_configs:
        cfg = frontier.pop()
        succs = reduced_successors(program, cfg)
        done = set()
        for i, a in enumerate(succs):
            for b in succs[i + 1:]:
                if a.tid == b.tid:
                    continue
                verdict = independence(a, b)
                assert verdict == independence(b, a)  # symmetric
                pair = frozenset((_label(a), _label(b)))
                if verdict != DEPENDENT and pair not in done:
                    done.add(pair)
                    _check_diamond(
                        program, succs, _label(a), _label(b), verdict
                    )
                    checked += 1
        for tr in succs:
            key = canonical_key(program, tr.target)
            if key not in seen:
                seen.add(key)
                frontier.append(tr.target)
    return checked


@settings(max_examples=40, deadline=None)
@given(p=programs())
def test_independent_pairs_commute(p):
    _scan_diamonds(p)


def test_mp_pair_diamonds_checked():
    """Sanity: the scan actually exercises independent pairs (a scan
    that never finds one would vacuously pass the property)."""
    assert _scan_diamonds(_two_disjoint_pairs()) > 0


class TestOracleTable:
    """Pin the classification table on hand-picked enabled pairs."""

    def _succs(self, program):
        cfg = close_config(program, initial_config(program))
        return cfg, reduced_successors(program, cfg)

    def test_same_location_write_write_dependent(self):
        program = Program(
            threads={
                "1": Thread(A.Write("x", Lit(1))),
                "2": Thread(A.Write("x", Lit(2))),
            },
            client_vars={"x": 0},
        )
        _cfg, succs = self._succs(program)
        a = next(tr for tr in succs if tr.tid == "1")
        b = next(tr for tr in succs if tr.tid == "2")
        assert independence(a, b) == DEPENDENT

    def test_read_read_strong(self):
        program = Program(
            threads={
                "1": Thread(A.Read("r1", "x")),
                "2": Thread(A.Read("r1", "x")),
            },
            client_vars={"x": 0},
            init_locals={"1": {"r1": 0}, "2": {"r1": 0}},
        )
        _cfg, succs = self._succs(program)
        a = next(tr for tr in succs if tr.tid == "1")
        b = next(tr for tr in succs if tr.tid == "2")
        assert independence(a, b) == STRONG

    def test_disjoint_writes_same_component_canonical(self):
        program = Program(
            threads={
                "1": Thread(A.Write("x", Lit(1))),
                "2": Thread(A.Write("y", Lit(2))),
            },
            client_vars={"x": 0, "y": 0},
        )
        _cfg, succs = self._succs(program)
        a = next(tr for tr in succs if tr.tid == "1")
        b = next(tr for tr in succs if tr.tid == "2")
        assert independence(a, b) == CANONICAL

    def test_write_and_disjoint_read_strong(self):
        program = Program(
            threads={
                "1": Thread(A.Write("x", Lit(1))),
                "2": Thread(A.Read("r1", "y")),
            },
            client_vars={"x": 0, "y": 0},
            init_locals={"2": {"r1": 0}},
        )
        _cfg, succs = self._succs(program)
        a = next(tr for tr in succs if tr.tid == "1")
        b = next(tr for tr in succs if tr.tid == "2")
        assert independence(a, b) == STRONG

    def test_method_operations_dependent(self):
        from repro.objects.stack import AbstractStack

        program = Program(
            threads={
                "1": Thread(A.MethodCall("s", "pushR", arg=Lit(1))),
                "2": Thread(A.MethodCall("s", "pushR", arg=Lit(2))),
            },
            client_vars={},
            objects=(AbstractStack("s"),),
        )
        cfg = close_config(program, initial_config(program))
        succs = reduced_successors(program, cfg)
        meth = [
            tr
            for tr in succs
            if tr.action is not None and tr.action.kind == "meth"
        ]
        pairs = [
            (a, b)
            for i, a in enumerate(meth)
            for b in meth[i + 1:]
            if a.tid != b.tid
        ]
        assert pairs
        for a, b in pairs:
            assert independence(a, b) == DEPENDENT

# -- footprint modes, static disjointness, cache eviction --------------------

from repro.engine.core import explore_sequential  # noqa: E402
from repro.obs.metrics import Metrics, activate  # noqa: E402
from repro.semantics import dpor as dpor_mod  # noqa: E402
from repro.semantics.dpor import (  # noqa: E402
    FOOTPRINT_MODES,
    _static_disjoint_pairs,
    set_footprint_mode,
)


def _modal_pair():
    """Two threads on disjoint variables whose statically-dead branch
    arm (mode register preset by ``init_locals``) touches a shared
    ``z`` — whole-continuation footprints join them, phase-sensitive
    ones split them."""

    def body(var):
        return A.seq(
            A.Write(var, Lit(1)),
            A.If(Reg("m").eq(0), A.Write(var, Lit(2)), A.Write("z", Lit(1))),
        )

    return Program(
        threads={"1": Thread(body("x")), "2": Thread(body("y"))},
        client_vars={"x": 0, "y": 0, "z": 0},
        init_locals={"1": {"m": 0}, "2": {"m": 0}},
    )


class TestFootprintMode:
    def test_default_is_phase_and_previous_is_returned(self):
        previous = set_footprint_mode("whole")
        try:
            assert previous == "phase"
            assert set_footprint_mode("phase") == "whole"
        finally:
            set_footprint_mode("phase")

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            set_footprint_mode("bogus")
        # A rejected call leaves the mode untouched.
        assert set_footprint_mode("phase") == "phase"
        assert set(FOOTPRINT_MODES) == {"phase", "whole"}

    def test_phase_refines_the_partition(self):
        program = _modal_pair()
        cfg = close_config(program, initial_config(program))
        previous = set_footprint_mode("whole")
        try:
            whole_groups = _partition(program, cfg)
            set_footprint_mode("phase")
            phase_groups = _partition(program, cfg)
        finally:
            set_footprint_mode(previous)
        assert len(whole_groups) == 1  # dead arm's z joins the threads
        assert sorted(sorted(g) for g in phase_groups) == [["1"], ["2"]]

    def test_modes_agree_on_terminals(self):
        program = _modal_pair()

        def run(mode):
            previous = set_footprint_mode(mode)
            try:
                return explore_sequential(program, reduction="dpor")
            finally:
                set_footprint_mode(previous)

        whole, phase = run("whole"), run("phase")

        def valuations(result):
            return {
                tuple(
                    sorted(
                        (tid, ls.items_sorted())
                        for tid, ls in cfg.locals.items()
                    )
                )
                for cfg in result.terminals
            }

        assert valuations(whole) == valuations(phase)
        assert phase.state_count <= whole.state_count


class TestStaticDisjoint:
    def test_detects_disjoint_pairs(self):
        program = Program(
            threads={
                "1": Thread(A.Write("x", Lit(1))),
                "2": Thread(A.Write("y", Lit(1))),
                "3": Thread(A.Read("r1", "x")),
            },
            client_vars={"x": 0, "y": 0},
        )
        pairs = _static_disjoint_pairs(program)
        assert ("1", "2") in pairs and ("2", "3") in pairs
        assert ("1", "3") not in pairs

    def test_cached_per_program_object(self):
        program = _two_disjoint_pairs()
        first = _static_disjoint_pairs(program)
        assert _static_disjoint_pairs(program) is first

    def test_conflicting_program_has_no_fast_path(self):
        program = Program(
            threads={
                "1": Thread(A.Write("x", Lit(1))),
                "2": Thread(A.Read("r1", "x")),
            },
            client_vars={"x": 0},
        )
        assert _static_disjoint_pairs(program) == frozenset()

    def test_skip_counter_reported_to_active_metrics(self):
        program = _two_disjoint_pairs()
        cfg = close_config(program, initial_config(program))
        collected = Metrics()
        previous = activate(collected)
        try:
            _partition(program, cfg)
        finally:
            activate(previous)
        assert collected.counters.get("reduce.dpor.static_disjoint", 0) >= 1

    def test_strategy_declares_the_metric(self):
        strat = get_strategy("dpor")
        assert "reduce.dpor.static_disjoint" in strat.metric_names


class TestFootprintCacheEviction:
    """Satellite regression: the memo table sheds its *oldest half* at
    the bound instead of clearing wholesale — the newest entries (the
    live exploration's working set) must survive an overflow."""

    def test_oldest_half_evicted_newest_survive(self, monkeypatch):
        monkeypatch.setattr(dpor_mod, "_FOOTPRINTS", {})
        monkeypatch.setattr(dpor_mod, "_FOOTPRINTS_MAX", 8)
        nodes = [A.Write(f"v{i}", Lit(i)) for i in range(9)]
        for node in nodes[:8]:
            thread_footprint(node)
        assert len(dpor_mod._FOOTPRINTS) == 8
        thread_footprint(nodes[8])  # overflow triggers eviction
        kept = {node.var for node, _lib in dpor_mod._FOOTPRINTS}
        assert kept == {"v4", "v5", "v6", "v7", "v8"}

    def test_survivors_still_hit(self, monkeypatch):
        monkeypatch.setattr(dpor_mod, "_FOOTPRINTS", {})
        monkeypatch.setattr(dpor_mod, "_FOOTPRINTS_MAX", 4)
        nodes = [A.Write(f"v{i}", Lit(i)) for i in range(5)]
        for node in nodes:
            thread_footprint(node)
        survivor_fp = dpor_mod._FOOTPRINTS[(nodes[4], False)]
        assert thread_footprint(nodes[4]) is survivor_fp
