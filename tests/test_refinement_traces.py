"""Tests for client trace projection and Definition 5 state refinement."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.refinement.traces import (
    client_projection,
    remove_stutter,
    trace_refines,
)
from repro.semantics.config import initial_config
from repro.semantics.explore import explore
from repro.semantics.step import transitions
from tests.conftest import (
    abstract_lock_client,
    mp_relaxed,
    seqlock_client,
)


class TestProjection:
    def test_library_steps_stutter(self):
        p = seqlock_client()
        cfg = initial_config(p)
        proj0 = client_projection(p, cfg)
        # Take a library step (thread 1's acquire read of glb).
        lib_steps = [t for t in transitions(p, cfg) if t.component == "L"]
        assert lib_steps
        proj1 = client_projection(p, lib_steps[0].target)
        assert proj0 == proj1

    def test_client_writes_change_projection(self):
        p = mp_relaxed()
        cfg = initial_config(p)
        proj0 = client_projection(p, cfg)
        client_steps = [t for t in transitions(p, cfg) if t.component == "C"]
        for tr in client_steps:
            assert client_projection(p, tr.target) != proj0

    def test_library_registers_excluded(self):
        p = seqlock_client()
        result = explore(p)
        for cfg in list(result.configs.values())[:50]:
            proj = client_projection(p, cfg)
            for _tid, regs in proj.locals:
                for reg, _val in regs:
                    assert not reg.startswith("_sl_")

    def test_canonical_across_equivalent_configs(self):
        # Projections use rank-normalised timestamps: equal client
        # histories project equally regardless of library timestamps.
        p = seqlock_client()
        result = explore(p)
        projs = {client_projection(p, c) for c in result.configs.values()}
        assert len(projs) < result.state_count


class TestStateRefinement:
    def test_reflexive(self):
        p = mp_relaxed()
        proj = client_projection(p, initial_config(p))
        assert proj.refines(proj)

    def test_locals_must_match(self):
        p = mp_relaxed()
        result = explore(p)
        t1, t2 = result.terminals[0], None
        for cand in result.terminals[1:]:
            if cand.locals != t1.locals:
                t2 = cand
                break
        assert t2 is not None
        p1, p2 = client_projection(p, t1), client_projection(p, t2)
        assert not p1.refines(p2)
        assert not p2.refines(p1)

    def test_obs_subset_direction(self):
        # A state where thread 2 advanced its view refines one where it
        # has not (fewer observable writes), but not vice versa.
        from repro.semantics.config import Config

        p = mp_relaxed()
        # Reach the state where thread 1 wrote d (thread 2's view stale).
        result = explore(p)
        stale = next(
            cfg
            for cfg in result.configs.values()
            if len(cfg.gamma.ops_on("d")) == 2
            and cfg.gamma.thread_view("2", "d").ts == 0
        )
        # Manually advance thread 2's viewfront of d — same locals, same
        # ops, strictly fewer observable writes.
        new_write = stale.gamma.last_op("d")
        advanced_gamma = stale.gamma.with_thread_view(
            "2", stale.gamma.thread_view_map("2").set("d", new_write)
        )
        advanced = Config(
            cmds=stale.cmds,
            locals=stale.locals,
            gamma=advanced_gamma,
            beta=stale.beta,
        )
        p_stale = client_projection(p, stale)
        p_adv = client_projection(p, advanced)
        assert p_adv.refines(p_stale)  # fewer observations: refines
        assert not p_stale.refines(p_adv)  # more observations: does not


class TestRemoveStutter:
    def test_collapses_runs(self):
        assert remove_stutter([1, 1, 2, 2, 2, 1]) == (1, 2, 1)

    def test_empty(self):
        assert remove_stutter([]) == ()

    @given(st.lists(st.integers(0, 3), max_size=20))
    def test_property_no_adjacent_duplicates(self, xs):
        out = remove_stutter(xs)
        assert all(a != b for a, b in zip(out, out[1:]))

    @given(st.lists(st.integers(0, 3), max_size=20))
    def test_property_idempotent(self, xs):
        once = remove_stutter(xs)
        assert remove_stutter(once) == once

    @given(st.lists(st.integers(0, 3), max_size=20))
    def test_property_preserves_first_last(self, xs):
        out = remove_stutter(xs)
        if xs:
            assert out[0] == xs[0]
            assert out[-1] == xs[-1]


class TestTraceRefines:
    def test_equal_traces(self):
        p = mp_relaxed()
        proj = client_projection(p, initial_config(p))
        assert trace_refines([proj], [proj])

    def test_length_mismatch(self):
        p = mp_relaxed()
        proj = client_projection(p, initial_config(p))
        assert not trace_refines([proj], [proj, proj])
