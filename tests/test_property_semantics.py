"""Property-based tests: semantic invariants over random programs.

Hypothesis generates small two-thread programs over shared variables;
every reachable configuration of the combined semantics must satisfy the
structural invariants of the paper's state model, and the explorer's
canonicalisation must be stable.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang import ast as A
from repro.lang.expr import Lit, Reg
from repro.lang.program import Program, Thread
from repro.memory.actions import rdval, wrval
from repro.semantics.canon import canonical_key
from repro.semantics.config import initial_config
from repro.semantics.explore import explore
from repro.semantics.step import transitions
from tests.conftest import checking_invariants, raw_explore

VARS = ("x", "y")


@st.composite
def atomic_commands(draw, regs=("r1", "r2")):
    kind = draw(st.sampled_from(["write", "writeR", "read", "readA", "cas", "fai"]))
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
def thread_bodies(draw, max_len=3):
    n = draw(st.integers(min_value=1, max_value=max_len))
    return A.seq(*[draw(atomic_commands()) for _ in range(n)])


@st.composite
def programs(draw):
    t1 = draw(thread_bodies())
    t2 = draw(thread_bodies())
    return Program(
        threads={"1": Thread(t1), "2": Thread(t2)},
        client_vars={v: 0 for v in VARS},
    )


@settings(max_examples=40, deadline=None)
@given(p=programs())
def test_all_reachable_states_coherent(p):
    """tview points into ops, cvd ⊆ ops, per-variable timestamps unique —
    at every reachable configuration."""
    explore(p, on_config=checking_invariants(p), max_states=20_000)


@settings(max_examples=40, deadline=None)
@given(p=programs())
def test_reads_return_observable_written_values(p):
    """Every read action's value is the written value of an operation on
    that variable present in the component's ops (reads-from is real)."""
    result = explore(p, collect_edges=True, max_states=20_000)
    for key, edges in result.edges.items():
        cfg = result.configs[key]
        for _tid, _comp, action, _tkey in edges:
            if action is None or action.kind not in ("rd", "rdA"):
                continue
            values = {
                wrval(op.act) for op in cfg.gamma.ops_on(action.var)
            }
            assert action.val in values


@settings(max_examples=40, deadline=None)
@given(p=programs())
def test_view_monotonicity(p):
    """Thread viewfronts never move backwards along any transition.

    Successors are recomputed from each configuration (edge targets in
    the explorer are canonical *representatives* whose raw timestamps
    may differ from the true successor's).
    """
    result = explore(p, max_states=20_000)
    for cfg in result.configs.values():
        for tr in transitions(p, cfg):
            for (t, v), op in cfg.gamma.tview.items():
                new = tr.target.gamma.thread_view(t, v)
                assert new is not None and new.ts >= op.ts


@settings(max_examples=40, deadline=None)
@given(p=programs())
def test_canonical_key_deterministic_and_injective_on_graph(p):
    """Exploring twice yields identical canonical state sets, and keys
    computed twice on the same config agree."""
    r1 = explore(p, max_states=20_000)
    r2 = explore(p, max_states=20_000)
    assert set(r1.configs) == set(r2.configs)
    for key, cfg in list(r1.configs.items())[:20]:
        assert canonical_key(p, cfg) == key


@pytest.mark.parametrize("reduction", ["off", "closure", "dpor"])
@settings(max_examples=30, deadline=None)
@given(p=programs())
def test_canonicalisation_never_splits_raw_states(p, reduction):
    """Canonical exploration under every policy finds at most as many
    states as the Config-keyed reference search (it explores a quotient
    of a subset), the same terminal register outcomes, and a stuck
    configuration exactly when the reference does."""
    canon = explore(p, max_states=50_000, reduction=reduction)
    raw = raw_explore(p, max_states=50_000)
    if canon.truncated or raw.truncated:
        return
    assert canon.state_count <= len(raw.configs)
    regs = tuple(("1", r) for r in ("r1", "r2")) + tuple(
        ("2", r) for r in ("r1", "r2")
    )
    assert canon.terminal_locals(*regs) == {
        tuple(cfg.local(t, r) for t, r in regs) for cfg in raw.terminals
    }
    assert bool(canon.stuck) == bool(raw.stuck)


@settings(max_examples=30, deadline=None)
@given(p=programs(), seed=st.integers(min_value=0, max_value=99))
def test_random_runs_stay_inside_reachable_set(p, seed):
    """Random execution only visits canonically-reachable configurations."""
    import random

    from repro.semantics.step import transitions as succ

    result = explore(p, max_states=20_000)
    if result.truncated:
        return
    rng = random.Random(seed)
    cfg = initial_config(p)
    for _ in range(30):
        assert canonical_key(p, cfg) in result.configs
        steps = succ(p, cfg)
        if not steps:
            break
        cfg = rng.choice(steps).target


@settings(max_examples=30, deadline=None)
@given(p=programs())
def test_updates_cover_exactly_their_anchors(p):
    """Along every update transition, exactly one additional operation
    becomes covered, and it is the operation the update read from."""
    result = explore(p, max_states=20_000)
    for cfg in result.configs.values():
        for tr in transitions(p, cfg):
            action = tr.action
            if action is None or action.kind != "updRA":
                continue
            new_cvd = tr.target.gamma.cvd - cfg.gamma.cvd
            assert len(new_cvd) == 1
            (anchor,) = new_cvd
            assert wrval(anchor.act) == rdval(action)
