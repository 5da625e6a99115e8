"""Differential properties: indexed vs naive component states.

:class:`~repro.memory.state.ComponentState` answers observation queries
through an incrementally-maintained per-variable index;
:mod:`repro.memory.naive` retains the original full-scan reference.  The
two representations are driven through the *real* transition rules in
lockstep over the full litmus catalog, the abstract-object clients and
hypothesis-generated random programs, asserting at every reachable
configuration that

* the raw component states are bit-identical (same ops, views, covered
  sets — the index changes no numeric timestamp);
* every observation query (``obs``, ``observable_uncovered``,
  ``ops_on``, ``max_ts``, ``last_op``, ``fresh_ts``) agrees;
* canonical keys and per-configuration successor *sets* (compared by
  canonical key) are identical;
* over every successor target of both representations, interned
  canonical keys are equal exactly when the structural canonical
  encodings are, and the encodings of lockstep twins are equal.
"""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang import ast as A
from repro.lang.expr import Lit
from repro.lang.program import Program, Thread
from repro.litmus.catalog import LITMUS_TESTS
from repro.memory.naive import (
    as_naive,
    naive_canonical_key,
    naive_initial_config,
)
from repro.semantics.canon import canonical_encoding, canonical_key
from repro.semantics.config import initial_config
from repro.semantics.step import transitions
from tests.conftest import abstract_lock_client, stack_program

#: Safety cap: every space below is explored exhaustively well within it.
MAX_PAIRS = 30_000


def _assert_component_match(indexed, naive, tids_vars):
    """Field-level and query-level agreement of the two representations."""
    assert indexed.ops == naive.ops
    assert indexed.tview == naive.tview
    assert indexed.mview == naive.mview
    assert indexed.cvd == naive.cvd
    assert set(indexed.timestamps()) == set(naive.timestamps())
    variables = {op.act.var for op in indexed.ops}
    for var in variables:
        assert indexed.ops_on(var) == naive.ops_on(var)
        assert indexed.max_ts(var) == naive.max_ts(var)
        assert indexed.last_op(var) == naive.last_op(var)
        for anchor in indexed.ops_on(var):
            assert indexed.fresh_ts(var, anchor.ts) == naive.fresh_ts(
                var, anchor.ts
            )
    for tid, var in tids_vars:
        assert indexed.obs(tid, var) == naive.obs(tid, var)
        assert indexed.observable_uncovered(
            tid, var
        ) == naive.observable_uncovered(tid, var)
        assert indexed.thread_view_map(tid) == naive.thread_view_map(tid)


def assert_differential(program: Program, max_pairs: int = MAX_PAIRS):
    """Lockstep BFS of the indexed and naive representations."""
    init_i = initial_config(program)
    init_n = naive_initial_config(program)
    ki = canonical_key(program, init_i)
    assert ki == canonical_key(program, init_n)
    # The pre-index encoding is a different byte encoding of the same
    # quotient: it must identify exactly the canonical states the new
    # encoding identifies (checked via the seen-set bijection below).
    seen = {ki}
    seen_naive_enc = {naive_canonical_key(program, init_n)}
    # (key, encoding) of every configuration met, of both
    # representations: the two identities must induce one partition.
    identities = {
        (ki, canonical_encoding(program, init_i)),
        (ki, canonical_encoding(program, init_n)),
    }
    queue = deque([(init_i, init_n)])
    pairs = 0
    while queue:
        cfg_i, cfg_n = queue.popleft()
        pairs += 1
        assert pairs <= max_pairs, "differential space unexpectedly large"
        _assert_component_match(
            cfg_i.gamma, cfg_n.gamma, [(t, x) for (t, x) in cfg_i.gamma.tview]
        )
        _assert_component_match(
            cfg_i.beta, cfg_n.beta, [(t, x) for (t, x) in cfg_i.beta.tview]
        )
        targets_i = [tr.target for tr in transitions(program, cfg_i)]
        targets_n = [tr.target for tr in transitions(program, cfg_n)]
        succ_i = {canonical_key(program, t): t for t in targets_i}
        succ_n = {canonical_key(program, t): t for t in targets_n}
        assert set(succ_i) == set(succ_n)
        identities.update(
            (canonical_key(program, t), canonical_encoding(program, t))
            for t in targets_i + targets_n
        )
        for key, target_i in succ_i.items():
            assert canonical_encoding(program, target_i) == canonical_encoding(
                program, succ_n[key]
            )
            if key not in seen:
                seen.add(key)
                seen_naive_enc.add(naive_canonical_key(program, succ_n[key]))
                queue.append((target_i, succ_n[key]))
    # Both encodings induce the same quotient: one distinct old-style
    # key per distinct new-style key.
    assert len(seen_naive_enc) == len(seen)
    assert len({k for k, _ in identities}) == len(identities)
    assert len({e for _, e in identities}) == len(identities)


@pytest.mark.parametrize(
    "test", LITMUS_TESTS, ids=[t.name for t in LITMUS_TESTS]
)
def test_litmus_catalog_differential(test):
    assert_differential(test.build())


@pytest.mark.parametrize(
    "build",
    [abstract_lock_client, lambda: stack_program(sync=True)],
    ids=["abstract-lock", "stack-mp"],
)
def test_object_programs_differential(build):
    assert_differential(build())


def test_as_naive_round_trip():
    """Converting a state to the naive representation changes nothing
    observable, including after further steps."""
    cfg = initial_config(LITMUS_TESTS[0].build())
    gamma = cfg.gamma
    naive = as_naive(gamma)
    assert gamma.ops == naive.ops and gamma.tview == naive.tview
    for (tid, var) in gamma.tview:
        assert gamma.obs(tid, var) == naive.obs(tid, var)


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
def programs(draw):
    t1 = A.seq(*[draw(atomic_commands()) for _ in range(draw(st.integers(1, 3)))])
    t2 = A.seq(*[draw(atomic_commands()) for _ in range(draw(st.integers(1, 3)))])
    return Program(
        threads={"1": Thread(t1), "2": Thread(t2)},
        client_vars={v: 0 for v in VARS},
    )


@settings(max_examples=25, deadline=None)
@given(p=programs())
def test_random_programs_differential(p):
    assert_differential(p)
