"""Differential properties: reduced vs unreduced exploration.

``reduction="closure"`` (ε-closure + covering-read prune,
:mod:`repro.semantics.reduce`) must be *verdict-invisible*: over the
full litmus catalog, the five abstract-object/lock client programs and
hypothesis-generated random programs (with the silent-step constructs —
local assignments, branches, polling loops — the reduction targets),
reduced and unreduced exploration must agree on

* the terminal-outcome set (all thread registers, compared exactly —
  the ε-closure keeps terminal configurations bit-for-bit, and the
  covering-read prune drops a terminal only when a kept one carries
  identical continuations and locals);
* deadlock existence (``stuck`` non-emptiness);
* ``reachable``/``assert_invariant`` verdicts for register-level
  properties of terminal configurations;
* refinement-check results — the checkers request ``reduction="off"``
  internally, so routing them through a closure-configured engine must
  change nothing;

sequentially and through the sharded pipeline, whose closure counts
must match the sequential ones exactly.

``reduction="dpor"`` (sleep sets + persistent sets,
:mod:`repro.semantics.dpor`) is held to the same verdict bar — equal
terminal-valuation sets, stuck-existence and reachability verdicts —
while storing *at most* as many states as closure (it explores a
subset of the closed macro-step system).  Multi-worker engines explore
it sequentially (the pipeline has no cross-shard sleep-set exchange),
and its parallel leg asserts verdict parity on that route.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.engine.core import ExplorationEngine, explore_sequential
from repro.lang import ast as A
from repro.lang.expr import Lit, Reg
from repro.lang.program import Program, Thread
from repro.litmus.catalog import LITMUS_TESTS
from repro.semantics.explore import assert_invariant, reachable
from repro.util.errors import VerificationError
from tests.conftest import (
    abstract_lock_client,
    seqlock_client,
    spinlock_client,
    stack_program,
    ticketlock_client,
)

OBJECT_CLIENTS = (
    ("abstract-lock", abstract_lock_client),
    ("seqlock", seqlock_client),
    ("ticketlock", ticketlock_client),
    ("spinlock", spinlock_client),
    ("stack-mp", lambda: stack_program(sync=True)),
)


def _terminal_valuations(result):
    return {
        tuple(
            sorted((tid, ls.items_sorted()) for tid, ls in cfg.locals.items())
        )
        for cfg in result.terminals
    }


def assert_reduction_invisible(program: Program, max_states: int = 500_000):
    """All registered policies agree on everything a verdict consumes."""
    off = explore_sequential(program, max_states=max_states)
    red = explore_sequential(
        program, max_states=max_states, reduction="closure"
    )
    assert not off.truncated and not red.truncated
    assert _terminal_valuations(off) == _terminal_valuations(red)
    assert bool(off.stuck) == bool(red.stuck)
    # Closure only ever shrinks the stored set (every closed state is an
    # unreduced reachable state).
    assert red.state_count <= off.state_count
    assert red.edge_count <= off.edge_count
    dpor = explore_sequential(
        program, max_states=max_states, reduction="dpor"
    )
    assert not dpor.truncated
    assert _terminal_valuations(dpor) == _terminal_valuations(off)
    assert bool(dpor.stuck) == bool(off.stuck)
    # dpor explores a subset of the closed macro-step system (sleep and
    # persistent sets only ever remove expansions), so its stored set is
    # bounded by closure's.  Edge counts are *not* compared: sleep-set
    # shrink re-expansions may recount a state's outgoing transitions.
    assert dpor.state_count <= red.state_count
    return off, red


@pytest.mark.parametrize(
    "test", LITMUS_TESTS, ids=[t.name for t in LITMUS_TESTS]
)
def test_litmus_catalog_reduction_invisible(test):
    off, red = assert_reduction_invisible(test.build())
    # And the litmus verdict itself: identical projected outcome sets.
    assert off.terminal_locals(*test.regs) == red.terminal_locals(*test.regs)
    assert off.terminal_locals(*test.regs) == set(test.allowed)


@pytest.mark.parametrize(
    "build", [b for _, b in OBJECT_CLIENTS], ids=[n for n, _ in OBJECT_CLIENTS]
)
def test_object_clients_reduction_invisible(build):
    assert_reduction_invisible(build())


class TestVerdictParity:
    """reachable/assert_invariant verdicts for terminal-state
    properties are identical across policies."""

    def test_reachable_terminal_witness(self):
        program = LITMUS_TESTS[0].build()  # MP-relaxed: (1, 0) reachable

        def stale(cfg):
            return (
                cfg.is_terminal()
                and cfg.local("2", "r1") == 1
                and cfg.local("2", "r2") == 0
            )

        for reduction in ("off", "closure", "dpor"):
            witness = reachable(program, stale, reduction=reduction)
            assert witness is not None and stale(witness)

    def test_reachable_terminal_unreachable(self):
        by_name = {t.name: t for t in LITMUS_TESTS}
        program = by_name["MP-await-RA"].build()

        def stale(cfg):
            return cfg.is_terminal() and cfg.local("2", "r2") == 0

        for reduction in ("off", "closure", "dpor"):
            assert reachable(program, stale, reduction=reduction) is None

    def test_assert_invariant_parity(self):
        by_name = {t.name: t for t in LITMUS_TESTS}
        program = by_name["MP-ring-2-RA"].build()

        def published(cfg):
            if not cfg.is_terminal():
                return True
            return (
                cfg.local("1", "r0") == 5 and cfg.local("2", "r1") == 5
            )

        for reduction in ("off", "closure", "dpor"):
            assert_invariant(program, published, reduction=reduction)

        def impossible(cfg):
            return not cfg.is_terminal()

        for reduction in ("off", "closure", "dpor"):
            with pytest.raises(VerificationError):
                assert_invariant(program, impossible, reduction=reduction)


class TestParallelParity:
    @pytest.mark.parametrize(
        "name", ["MP-ring-2-RA", "MP-2-producers", "IRIW-await-RA"]
    )
    def test_parallel_closure_matches_sequential(self, name):
        test = {t.name: t for t in LITMUS_TESTS}[name]
        program = test.build()
        seq = explore_sequential(program, reduction="closure")
        par = ExplorationEngine(workers=2, reduction="closure").explore(
            program
        )
        assert par.state_count == seq.state_count
        assert par.edge_count == seq.edge_count
        assert _terminal_valuations(par) == _terminal_valuations(seq)
        assert par.terminal_locals(*test.regs) == set(test.allowed)

    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize(
        "name", ["MP-ring-2-RA", "MP-2-producers", "IRIW-await-RA"]
    )
    def test_parallel_dpor_verdict_parity(self, name, workers):
        """dpor on a multi-worker engine (which explores it
        sequentially): verdict parity with the sequential engine, state
        count bounded by sequential closure."""
        test = {t.name: t for t in LITMUS_TESTS}[name]
        program = test.build()
        seq = explore_sequential(program, reduction="dpor")
        closure = explore_sequential(program, reduction="closure")
        par = ExplorationEngine(workers=workers, reduction="dpor").explore(
            program
        )
        assert _terminal_valuations(par) == _terminal_valuations(seq)
        assert bool(par.stuck) == bool(seq.stuck)
        assert par.state_count <= closure.state_count
        assert par.terminal_locals(*test.regs) == set(test.allowed)


class TestRefinementParity:
    def test_checkers_force_reduction_off(self):
        """A closure-configured engine routed through the refinement
        checkers yields the exact same verdicts — the call sites
        override the policy."""
        from repro.impls.spinlock import SPINLOCK_VARS, spinlock_fill
        from repro.litmus.clients import abstract_fill, lock_client
        from repro.objects.lock import AbstractLock
        from repro.refinement.simulation import find_forward_simulation
        from repro.refinement.tracecheck import check_program_refinement

        afill, objs = abstract_fill(lambda: AbstractLock("l"))
        abstract = lock_client(afill, objects=objs)
        concrete = lock_client(spinlock_fill, lib_vars=SPINLOCK_VARS)

        closure_engine = ExplorationEngine(reduction="closure")
        sim_default = find_forward_simulation(concrete, abstract)
        sim_closure = find_forward_simulation(
            concrete, abstract, engine=closure_engine
        )
        assert sim_default.found == sim_closure.found
        assert sim_default.relation_size == sim_closure.relation_size
        assert sim_default.concrete_states == sim_closure.concrete_states

        tr_default = check_program_refinement(concrete, abstract)
        tr_closure = check_program_refinement(
            concrete, abstract, engine=closure_engine
        )
        assert tr_default.refines == tr_closure.refines
        assert tr_default.concrete_traces == tr_closure.concrete_traces
        assert tr_default.abstract_traces == tr_closure.abstract_traces


# -- random programs --------------------------------------------------------

VARS = ("x", "y")


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
def silent_heavy_commands(draw, regs=("r1", "r2")):
    """Commands exercising the ε-fragment: local computation, data
    branches and polling loops around the atomic commands."""
    kind = draw(st.sampled_from(["atomic", "assign", "if", "await"]))
    if kind == "atomic":
        return draw(atomic_commands(regs))
    reg = draw(st.sampled_from(regs))
    if kind == "assign":
        expr = draw(
            st.sampled_from(
                [Lit(0), Lit(1), Reg(regs[0]) + 1, Reg(regs[1]) + 1]
            )
        )
        return A.LocalAssign(reg, expr)
    if kind == "if":
        return A.If(
            Reg(reg).eq(draw(st.integers(0, 1))),
            draw(atomic_commands(regs)),
            draw(atomic_commands(regs)),
        )
    var = draw(st.sampled_from(VARS))
    # A polling await: the body is a visible read, so the loop is not a
    # divergent ε-cycle, and the flag value 9 is never written — the
    # loop exits as soon as any other value is read, which is always
    # enabled (obs is never empty).
    return A.seq(
        A.LocalAssign(reg, Lit(9)),
        A.While(Reg(reg).eq(9), A.Read(reg, var)),
    )


@st.composite
def programs(draw):
    def thread():
        n = draw(st.integers(1, 3))
        return A.seq(*[draw(silent_heavy_commands()) for _ in range(n)])

    return Program(
        threads={"1": Thread(thread()), "2": Thread(thread())},
        client_vars={v: 0 for v in VARS},
        # Registers start bound so generated expressions never trip the
        # unbound-register check mid-exploration.
        init_locals={
            "1": {"r1": 0, "r2": 0},
            "2": {"r1": 0, "r2": 0},
        },
    )


@settings(max_examples=25, deadline=None)
@given(p=programs())
def test_random_programs_reduction_invisible(p):
    assert_reduction_invisible(p, max_states=100_000)
