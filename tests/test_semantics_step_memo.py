"""The visible-step memo against unmemoised successor generation.

:func:`~repro.semantics.step.successors` with ``memo=`` serves a repeated
``(γ-id, β-id, thread, orientation, rule, operands)`` visible step from
the exploration's memo: the stored successor component states were
built from the *first* configuration with those ids, which may differ
from the current one in its numeric timestamps.  Over the litmus
catalog, the abstract-object clients and random programs:

* **step parity** — at every reachable configuration the memoised and
  unmemoised successor lists agree label for label
  ``(tid, component, action)``, with equal canonical keys;
* **exploration parity** — the engine's state count, edge count,
  terminal valuations and stuck set equal those of a raw BFS over the
  unmemoised ``successors`` (the :func:`~repro.semantics.witness.find_path`
  loop), and those of the naive-representation explorer
  (:func:`repro.memory.naive.explore_naive`);
* **witnesses** — engine witnesses of the catalog's weak outcomes
  replay step by step through the unmemoised relation.

The ``explore.memo.*`` counters are pinned on a small ``wide_program``.
"""

from collections import deque

import pytest
from hypothesis import given, settings

from benchmarks.spaces import wide_program
from repro.engine import ExplorationEngine
from repro.engine.core import explore_sequential
from repro.litmus.catalog import LITMUS_TESTS
from repro.memory.naive import explore_naive
from repro.obs.metrics import Metrics
from repro.semantics.canon import canonical_key
from repro.semantics.config import initial_config
from repro.semantics.step import successors
from repro.semantics.witness import replay_witness
from tests.test_property_state_index import programs
from tests.test_semantics_identity import OBJECT_CLIENTS

PROGRAMS = [(t.name, t.build) for t in LITMUS_TESTS] + list(OBJECT_CLIENTS)

#: Safety cap: every space below is explored exhaustively well within it.
MAX_STATES = 30_000


def _locals_of(cfg):
    return tuple(
        (tid, cfg.locals[tid].items_sorted()) for tid in sorted(cfg.locals)
    )


def assert_step_parity(program):
    """BFS over canonical states sharing one memo; at every expanded
    configuration the memoised successors match the unmemoised ones.
    The queue holds the *unmemoised* targets, so memo hits meet states
    whose timestamps differ numerically from the stored representative.
    Returns the memo."""
    memo = {}
    init = initial_config(program)
    seen = {canonical_key(program, init)}
    queue = deque([init])
    while queue:
        cfg = queue.popleft()
        plain = successors(program, cfg)
        memoised = successors(program, cfg, memo=memo)
        assert len(plain) == len(memoised)
        for p, m in zip(plain, memoised):
            assert (p.tid, p.component, p.action) == (
                m.tid,
                m.component,
                m.action,
            )
            key = canonical_key(program, p.target)
            assert key == canonical_key(program, m.target)
            if key not in seen:
                assert len(seen) < MAX_STATES, "space unexpectedly large"
                seen.add(key)
                queue.append(p.target)
    return memo


def raw_bfs(program):
    """``(states, edges, terminal valuations, stuck keys)`` of a BFS
    over unmemoised ``successors``, deduplicated by canonical key."""
    init = initial_config(program)
    seen = {canonical_key(program, init)}
    queue = deque([init])
    edges = 0
    terminals, stuck = set(), set()
    while queue:
        cfg = queue.popleft()
        succs = successors(program, cfg)
        if not succs:
            if cfg.is_terminal():
                terminals.add(_locals_of(cfg))
            else:
                stuck.add(canonical_key(program, cfg))
            continue
        for tr in succs:
            edges += 1
            key = canonical_key(program, tr.target)
            if key not in seen:
                assert len(seen) < MAX_STATES, "space unexpectedly large"
                seen.add(key)
                queue.append(tr.target)
    return len(seen), edges, terminals, stuck


def assert_exploration_parity(program):
    result = explore_sequential(program, MAX_STATES)
    assert not result.truncated
    engine = (
        result.state_count,
        result.edge_count,
        {_locals_of(cfg) for cfg in result.terminals},
        {canonical_key(program, cfg) for cfg in result.stuck},
    )
    assert engine == raw_bfs(program)
    assert engine[:3] == explore_naive(program)


class TestStepParity:
    @pytest.mark.parametrize(
        "build", [b for _, b in PROGRAMS], ids=[n for n, _ in PROGRAMS]
    )
    def test_catalog_and_object_clients(self, build):
        assert_step_parity(build())

    @settings(max_examples=25, deadline=None)
    @given(p=programs())
    def test_random_programs(self, p):
        assert_step_parity(p)

    def test_memo_is_hit(self):
        # Configurations whose memories are equal up to timestamp
        # relabelling share their component ids, whatever their
        # continuations and locals: the memo serves them.
        memo = assert_step_parity(wide_program(2, reads=1))
        metrics = Metrics()
        explore_sequential(wide_program(2, reads=1), metrics=metrics)
        counters = metrics.snapshot()["counters"]
        assert counters["explore.memo.entries"] == len(memo)
        assert counters["explore.memo.lookups"] > len(memo)


class TestExplorationParity:
    @pytest.mark.parametrize(
        "build", [b for _, b in PROGRAMS], ids=[n for n, _ in PROGRAMS]
    )
    def test_catalog_and_object_clients(self, build):
        assert_exploration_parity(build())

    @settings(max_examples=25, deadline=None)
    @given(p=programs())
    def test_random_programs(self, p):
        assert_exploration_parity(p)


@pytest.mark.parametrize(
    "test", [t for t in LITMUS_TESTS if t.weak_allowed], ids=lambda t: t.name
)
def test_witness_replays_unmemoised(test):
    program = test.build()
    witness = ExplorationEngine().find_witness(
        program,
        lambda cfg: test.outcome_of(cfg) in test.weak,
        terminal_only=True,
    )
    assert witness is not None
    final = replay_witness(program, witness)
    assert final.is_terminal()
    assert test.outcome_of(final) in test.weak


class TestCounters:
    def test_pinned_on_wide_program(self):
        # wide_program(3, reads=2): 594 visible steps, of which 201 are
        # distinct up to timestamp relabelling.
        metrics = Metrics()
        result = explore_sequential(wide_program(3, reads=2), metrics=metrics)
        counters = metrics.snapshot()["counters"]
        assert result.state_count == 413
        assert counters["explore.memo.lookups"] == 594
        assert counters["explore.memo.entries"] == 201

    def test_off_the_memo_path_no_counts(self):
        for kwargs in ({"reduction": "closure"}, {"canonicalise": False}):
            metrics = Metrics()
            explore_sequential(wide_program(2, reads=1), metrics=metrics, **kwargs)
            assert not any(
                name.startswith("explore.memo.")
                for name in metrics.snapshot()["counters"]
            )
