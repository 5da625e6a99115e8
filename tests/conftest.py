"""Shared fixtures and program builders for the test suite."""

from __future__ import annotations

import gc
from collections import deque
from typing import List, NamedTuple, Set

import pytest

from repro.impls.seqlock import SEQLOCK_VARS, seqlock_fill
from repro.impls.spinlock import SPINLOCK_VARS, spinlock_fill
from repro.impls.ticketlock import TICKETLOCK_VARS, ticketlock_fill
from repro.lang import ast as A
from repro.lang.expr import Lit, Reg
from repro.lang.program import Program, Thread
from repro.litmus.clients import abstract_fill, lock_client
from repro.objects.lock import AbstractLock
from repro.objects.stack import AbstractStack
from repro.semantics.config import Config, initial_config, keyed_config
from repro.semantics.explore import explore
from repro.semantics.step import transitions


@pytest.fixture(autouse=True)
def _gc_settings_unchanged():
    """Every test leaves the cyclic collector as it found it: each
    exploration restores the GC thresholds and removes its
    ``gc.callbacks`` hook on every exit.  (Only the package's own hooks
    are checked: Hypothesis registers a process-wide one on first use.)"""
    threshold = gc.get_threshold()
    yield
    assert gc.get_threshold() == threshold
    assert not [
        hook
        for hook in gc.callbacks
        if getattr(hook, "__module__", "").startswith("repro.")
    ]


def checking_invariants(program: Program, on_config=None):
    """An ``on_config`` hook asserting component-state coherence
    (``gamma``/``beta.check_invariants``) at every configuration the
    loop expands, then deferring to ``on_config`` when one is given."""
    tids = program.tids

    def check(cfg):
        cfg.gamma.check_invariants(tids)
        cfg.beta.check_invariants(tids)
        return on_config(cfg) if on_config is not None else None

    return check


def observing(program: Program, option: str, **kw) -> dict:
    """Exploration keyword arguments ``kw`` with one observing option
    on: ``collect_edges`` or ``track_parents``, or ``check_invariants``
    for the :func:`checking_invariants` hook (around ``kw``'s own
    ``on_config``, if any)."""
    if option == "check_invariants":
        hook = checking_invariants(program, kw.get("on_config"))
        return {**kw, "on_config": hook}
    return {**kw, option: True}


class RawExploration(NamedTuple):
    configs: Set[Config]
    terminals: List[Config]
    stuck: List[Config]
    truncated: bool


def raw_explore(program: Program, max_states: int = 100_000) -> RawExploration:
    """The reference search the canonical explorer is checked against:
    breadth-first over the unreduced ``successors`` relation (built by
    :func:`~repro.semantics.step.transitions`), keyed by
    the ``Config`` itself (a frozen dataclass, compared field by field),
    so configurations equal up to timestamp relabelling stay distinct.
    Past ``max_states`` states it stops and reports ``truncated``."""
    init = initial_config(program)
    seen = {init}
    terminals: List[Config] = []
    stuck: List[Config] = []
    queue = deque([init])
    while queue:
        cfg = queue.popleft()
        succs = transitions(program, cfg)
        if not succs:
            (terminals if cfg.is_terminal() else stuck).append(cfg)
        for tr in succs:
            if tr.target not in seen:
                if len(seen) >= max_states:
                    return RawExploration(seen, terminals, stuck, True)
                seen.add(tr.target)
                queue.append(tr.target)
    return RawExploration(seen, terminals, stuck, False)


def edge_target(program: Program, edge) -> Config:
    """The target of a :func:`~repro.semantics.step.successors` edge
    ``(tid, component, action, target key, γ', β')``, built from its
    key on its memory pair."""
    _tid, _comp, _action, key, gamma, beta = edge
    return keyed_config(key, program._interner.rows, gamma, beta)


def mp_relaxed() -> Program:
    t1 = A.seq(A.Write("d", Lit(5)), A.Write("f", Lit(1)))
    t2 = A.seq(A.Read("r1", "f"), A.Read("r2", "d"))
    return Program(
        threads={"1": Thread(t1), "2": Thread(t2)},
        client_vars={"d": 0, "f": 0},
    )


def mp_ra() -> Program:
    t1 = A.seq(A.Write("d", Lit(5)), A.Write("f", Lit(1), release=True))
    t2 = A.seq(A.Read("r1", "f", acquire=True), A.Read("r2", "d"))
    return Program(
        threads={"1": Thread(t1), "2": Thread(t2)},
        client_vars={"d": 0, "f": 0},
    )


def single_writer(var: str = "x", value: int = 1, release: bool = False) -> Program:
    return Program(
        threads={"1": Thread(A.Write(var, Lit(value), release=release))},
        client_vars={var: 0},
    )


def abstract_lock_client(**kw) -> Program:
    fill, objs = abstract_fill(lambda: AbstractLock("l"))
    return lock_client(fill, objects=objs, **kw)


def seqlock_client(**kw) -> Program:
    return lock_client(seqlock_fill, lib_vars=SEQLOCK_VARS, **kw)


def ticketlock_client(**kw) -> Program:
    return lock_client(ticketlock_fill, lib_vars=TICKETLOCK_VARS, **kw)


def spinlock_client(**kw) -> Program:
    return lock_client(spinlock_fill, lib_vars=SPINLOCK_VARS, **kw)


@pytest.fixture(scope="session")
def mp_relaxed_result():
    return explore(mp_relaxed())


@pytest.fixture(scope="session")
def mp_ra_result():
    return explore(mp_ra())


@pytest.fixture(scope="session")
def abstract_lock_result():
    return explore(abstract_lock_client())


@pytest.fixture(scope="session")
def seqlock_result():
    return explore(seqlock_client())


@pytest.fixture(scope="session")
def ticketlock_result():
    return explore(ticketlock_client())


@pytest.fixture(scope="session")
def spinlock_result():
    return explore(spinlock_client())


def stack_program(sync: bool = True) -> Program:
    push = "pushR" if sync else "push"
    pop = "popA" if sync else "pop"
    t1 = A.seq(A.Write("d", Lit(5)), A.MethodCall("s", push, arg=Lit(1)))
    t2 = A.seq(
        A.do_until(A.MethodCall("s", pop, dest="r1"), Reg("r1").eq(1)),
        A.Read("r2", "d"),
    )
    return Program(
        threads={"1": Thread(t1), "2": Thread(t2)},
        client_vars={"d": 0},
        objects=(AbstractStack("s"),),
    )
