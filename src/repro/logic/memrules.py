"""Proof rules for plain reads, writes and updates (paper §5.2).

The paper reuses "a collection of rules for reads, writes and updates
… given in prior work [6, 5]" (Dalvandi et al., ECOOP'20).  This module
states the core rules of that collection and checks them the same way
as the Lemma 3 harness — over every canonical configuration reachable
from a program family::

    (W-self)   {[x = u]_t}         x :=[R] v @t   {[x = v]_t}
    (R-self)   {[x = u]_t}         r ← x @t       {r = u ∧ [x = u]_t}
    (R-poss)   {⟨x = u⟩_t}         r ← x @t       {possibly r = u}    (existential)
    (MP-read)  {⟨x = u⟩[y = v]_t}  r ←A x @t      {r = u ⇒ [y = v]_t}
    (W-stable) {[x = u]_t}         y :=[R] w @t'  {[x = u]_t}         (x ≠ y)
    (R-stable) {[x = u]_t}         r ← y @t'      {[x = u]_t}
    (U-self)   {[x = u]_t}         r ← FAI(x) @t  {r = u ∧ [x = u+1]_t}

(MP-read) is the essence of message passing: an acquiring read that
returns the conditionally-observed value establishes the definite
observation of the dependent variable.

Note the precondition of (W-self): ``{true} x := v {[x = v]_t}`` is
*unsound* under weak memory — a writer with a stale view may place its
write in the middle of modification order, so the new write need not be
the last one.  Under ``[x = u]_t`` the writer's view is mo-maximal and
the new write lands at the top.  The harness demonstrates the unsound
variant's counterexample as a control
(:func:`check_write_self_unsound_variant`).
"""

from __future__ import annotations

from typing import Iterable

from repro.assertions.core import Assertion, Pred, TRUE
from repro.assertions.observability import (
    ConditionalValue,
    DefiniteValue,
    PossibleValue,
)
from repro.lang import ast as A
from repro.lang.expr import Lit
from repro.lang.program import Program
from repro.logic.triples import TripleResult, check_atomic_triple
from repro.semantics.config import Config

RREG = "__r__"


def _local_eq(tid: str, value) -> Assertion:
    return Pred(
        lambda env, t=tid, v=value: env.local(t, RREG) == v,
        name=f"{RREG}@{tid} = {value!r}",
    )


def check_write_self(
    program: Program,
    universe: Iterable[Config],
    tid: str,
    var: str,
    old,
    value,
    release=False,
) -> TripleResult:
    """(W-self): a view-maximal writer establishes its definite
    observation: ``{[x = old]_t} x := v @t {[x = v]_t}``."""
    return check_atomic_triple(
        program,
        universe,
        DefiniteValue(var, old, tid),
        A.Write(var, Lit(value), release=release),
        tid,
        DefiniteValue(var, value, tid),
    )


def check_write_self_unsound_variant(
    program: Program, universe: Iterable[Config], tid: str, var: str, value
) -> TripleResult:
    """Control: ``{true} x := v @t {[x = v]_t}`` — expected to FAIL on
    universes containing stale-view writers (the write may be placed
    mid-modification-order)."""
    return check_atomic_triple(
        program,
        universe,
        TRUE,
        A.Write(var, Lit(value)),
        tid,
        DefiniteValue(var, value, tid),
    )


def check_read_self(
    program: Program, universe: Iterable[Config], tid: str, var: str, value
) -> TripleResult:
    """(R-self): under a definite observation, a read returns it and
    preserves it."""
    pre = DefiniteValue(var, value, tid)
    post = _local_eq(tid, value) & pre
    return check_atomic_triple(
        program, universe, pre, A.Read(RREG, var), tid, post
    )


def check_mp_read(
    program: Program,
    universe: Iterable[Config],
    tid: str,
    var: str,
    value,
    dep_var: str,
    dep_value,
) -> TripleResult:
    """(MP-read): the message-passing rule for acquiring reads."""
    pre = ConditionalValue(var, value, dep_var, dep_value, tid)
    post = _local_eq(tid, value) >> DefiniteValue(dep_var, dep_value, tid)
    return check_atomic_triple(
        program, universe, pre, A.Read(RREG, var, acquire=True), tid, post
    )


def check_write_stable(
    program: Program,
    universe: Iterable[Config],
    tid: str,
    other: str,
    var: str,
    value,
    other_var: str,
    other_value,
    release=False,
) -> TripleResult:
    """(W-stable): another thread's write to a *different* variable
    preserves a definite observation."""
    assert var != other_var and tid != other
    stable = DefiniteValue(var, value, tid)
    return check_atomic_triple(
        program,
        universe,
        stable,
        A.Write(other_var, Lit(other_value), release=release),
        other,
        stable,
    )


def check_read_stable(
    program: Program,
    universe: Iterable[Config],
    tid: str,
    other: str,
    var: str,
    value,
    read_var: str,
) -> TripleResult:
    """(R-stable): reads never disturb definite observations."""
    assert tid != other
    stable = DefiniteValue(var, value, tid)
    return check_atomic_triple(
        program, universe, stable, A.Read(RREG, read_var), other, stable
    )


def check_fai_self(
    program: Program, universe: Iterable[Config], tid: str, var: str, value: int
) -> TripleResult:
    """(U-self): FAI under a definite observation reads it and bumps it."""
    pre = DefiniteValue(var, value, tid)
    post = _local_eq(tid, value) & DefiniteValue(var, value + 1, tid)
    return check_atomic_triple(
        program, universe, pre, A.Fai(RREG, var), tid, post
    )


def check_possible_read(
    program: Program, universe: Iterable[Config], tid: str, var: str, value
) -> dict:
    """(R-poss), existential: wherever ``⟨x = u⟩_t`` holds, *some* read
    transition returns ``u`` (possible observations are realisable).

    Returns a dict with counts; ``ok`` is False if any pre-state has no
    matching read.
    """
    from repro.assertions.core import make_env
    from repro.semantics.step import _run_step

    pre = PossibleValue(var, value, tid)
    checked = realised = 0
    for cfg in universe:
        if not pre.holds(make_env(program, cfg)):
            continue
        checked += 1
        values = {
            a.val
            for a, _c, _n, _ls, _g, _b in _run_step(
                program, A.Read(RREG, var), tid, cfg.locals[tid],
                cfg.gamma, cfg.beta,
            )
        }
        if value in values:
            realised += 1
    return {"checked": checked, "realised": realised, "ok": checked == realised}
