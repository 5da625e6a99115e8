"""The Read/Write/Update transition rules of Figure 5.

Each rule is a generator over the nondeterministic choices the semantics
allows: *which* observable operation a read reads from, and *after which*
observable uncovered operation a write/update is placed.  The numeric
timestamp inside the chosen gap is canonical (midpoint / max+1), which is
sound because all placement nondeterminism is already enumerated by the
choice of predecessor.

All rules take the *executing* component ``gamma`` and the *context*
component ``beta`` and return updated pairs ``(gamma', beta')`` — the
caller (combined semantics, §3.2) orients client vs library.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.lang.expr import Value
from repro.memory.actions import (
    Action,
    Op,
    is_releasing,
    mk_read,
    mk_update,
    mk_write,
    wrval,
)
from repro.memory.state import ComponentState
from repro.memory.views import merge_views, view_union
from repro.obs import metrics as _metrics

#: One memory step: (action, op read-from or placed-after, γ', β').
MemStep = Tuple[Action, Op, ComponentState, ComponentState]

#: Sentinel for "no forbidden value" — ``None`` is a legal read value.
NO_FORBID = object()

#: Sentinel for "any expected value" (FAI) — ``None`` is a legal
#: expected value of a CAS.
ANY_VALUE = object()


def read_steps(
    gamma: ComponentState,
    beta: ComponentState,
    tid: str,
    var: str,
    acquire: bool,
    forbid: Value = NO_FORBID,
    collapse_same_value: bool = False,
) -> Iterator[MemStep]:
    """The ``Read`` rule: ``a ∈ {rd(x, n), rdA(x, n)}``.

    Yields one step per observable operation ``(w, q) ∈ γ.Obs(t, x)``.
    A synchronising pair — releasing write read by an acquiring read —
    merges the writer's modification view into the reader's thread views
    of *both* components; otherwise only the reader's view of ``x``
    advances to the write read.

    ``forbid`` filters *out* reads of one value: a failing CAS with
    expected value ``u`` is a relaxed read of any observable value
    ``≠ u``, which the combined semantics expresses as
    ``read_steps(..., forbid=u)``.

    ``collapse_same_value`` is the reduction layer's covering-read
    prune: among *non-synchronising* candidates, only the mo-earliest
    operation of each written value is enumerated.  Two such reads
    perform the same action, bind the same register value and differ
    only in where the reader's viewfront of ``var`` lands; the caller
    asserts (via the continuation summary in
    :mod:`repro.semantics.step`) that this viewfront entry is never
    consulted nor published again, so the skipped successors are
    covering-equivalent to the kept one — same enabled transitions,
    same terminal valuations, same stuck-ness everywhere downstream —
    and are skipped *here*, before any successor component state is
    constructed or canonically keyed.  Synchronising candidates also
    merge the write's modification view and are never collapsed.
    """
    candidates = gamma.obs(tid, var)
    if not candidates:
        return
    # Invariant across candidates: the executing thread's viewfronts
    # (and the mview table) belong to the pre-step states — hoisted out
    # of the per-candidate loop.
    gamma_tvm = gamma.thread_view_map(tid)
    beta_tvm = None
    gamma_mv = gamma.mview
    seen_values = None
    for w in candidates:
        n = wrval(w.act)
        if forbid is not NO_FORBID and n == forbid:
            continue
        sync = is_releasing(w.act) and acquire
        if collapse_same_value and not sync:
            if seen_values is None:
                seen_values = {n}
            elif n in seen_values:
                if _metrics._ACTIVE is not None:
                    _metrics._ACTIVE.inc("reduce.covering_pruned")
                continue
            else:
                seen_values.add(n)
        action = mk_read(var, n, tid, acquire=acquire)
        if sync:
            mv = gamma_mv[w]
            if beta_tvm is None:
                beta_tvm = beta.thread_view_map(tid)
            tview2 = merge_views(gamma_tvm, mv)
            ctview2 = merge_views(beta_tvm, mv)
            gamma2 = gamma.with_thread_view(tid, tview2)
            beta2 = beta.with_thread_view(tid, ctview2)
        else:
            tview2 = gamma_tvm.set(var, w)
            gamma2 = gamma.with_thread_view(tid, tview2)
            beta2 = beta
        yield action, w, gamma2, beta2


def write_steps(
    gamma: ComponentState,
    beta: ComponentState,
    tid: str,
    var: str,
    value: Value,
    release: bool,
) -> Iterator[MemStep]:
    """The ``Write`` rule: ``a ∈ {wr(x, n), wrR(x, n)}``.

    Yields one step per placement choice ``(w, q) ∈ γ.Obs(t, x) \\ γ.cvd``.
    The new operation's modification view records the writer's viewfront
    over both components (``mview' = tview' ∪ β.tview_t``) so that later
    synchronisation through this write updates views across components.
    """
    candidates = gamma.observable_uncovered(tid, var)
    if not candidates:
        return
    # Invariant across placement candidates: the action (same fields
    # for every placement — only the timestamp differs, and that lives
    # on the Op) and both pre-step viewfronts.
    action = mk_write(var, value, tid, release=release)
    gamma_tvm = gamma.thread_view_map(tid)
    beta_tvm = beta.thread_view_map(tid)
    fresh_ts = gamma.fresh_ts
    add_op = gamma.add_op
    for w in candidates:
        new_op = Op(action, fresh_ts(var, w.ts))
        tview2 = gamma_tvm.set(var, new_op)
        mview2 = view_union(tview2, beta_tvm)
        gamma2 = add_op(new_op, mview2, tid, tview2)
        yield action, w, gamma2, beta


def update_steps(
    gamma: ComponentState,
    beta: ComponentState,
    tid: str,
    var: str,
    expect: Value,
    make_new: "callable",
) -> Iterator[MemStep]:
    """The ``Update`` rule: ``a = updRA(x, m, n)``.

    A combination of Read and Write: the update reads an observable,
    *uncovered* operation ``(w, q)`` whose written value matches
    ``expect`` (:data:`ANY_VALUE` = any, for FAI), covers it, and
    inserts the new operation immediately after it.  ``make_new(m)``
    computes the written value from the value read (CAS: constant; FAI:
    ``m + 1``).

    Synchronisation: when ``w`` is releasing, the updater additionally
    acquires ``w``'s modification view into both components' thread views.
    The new operation's modification view is ``tview' ∪ ctview'``.
    """
    candidates = gamma.observable_uncovered(tid, var)
    if not candidates:
        return
    # Invariant across candidates, as in write_steps.
    gamma_tvm = gamma.thread_view_map(tid)
    beta_tvm = beta.thread_view_map(tid)
    gamma_mv = gamma.mview
    fresh_ts = gamma.fresh_ts
    add_op = gamma.add_op
    for w in candidates:
        m = wrval(w.act)
        if expect is not ANY_VALUE and m != expect:
            continue
        n = make_new(m)
        action = mk_update(var, m, n, tid)
        new_op = Op(action, fresh_ts(var, w.ts))
        base_tview = gamma_tvm.set(var, new_op)
        if is_releasing(w.act):
            mv = gamma_mv[w]
            tview2 = merge_views(base_tview, mv)
            ctview2 = merge_views(beta_tvm, mv)
        else:
            tview2 = base_tview
            ctview2 = beta_tvm
        mview2 = view_union(tview2, ctview2)
        gamma2 = add_op(new_op, mview2, tid, tview2, cover=w)
        beta2 = beta.with_thread_view(tid, ctview2)
        yield action, w, gamma2, beta2
