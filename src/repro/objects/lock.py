"""The abstract lock (paper Example 1 and Figure 6).

Operations on a lock ``l`` are totally ordered: every acquire and release
takes a timestamp larger than all existing ``l``-operations.  The *index*
(subscript) of an operation counts the lock operations executed so far —
``l.init_0``, then ``l.acquire_1``, ``l.release_2``, ``l.acquire_3``, … —
and doubles as the "version" bound by ``l.Acquire(v)`` in proofs.

Semantics (Figure 6):

* ``Acquire`` is enabled only when the latest ``l``-operation ``(w, q)``
  is ``l.init_0`` or a release (mutual exclusion: a held lock — latest
  operation an acquire — disables further acquires).  The new operation
  ``l.acquire_n(t)`` synchronises with ``w``: the acquiring thread's
  views of *both* components merge in ``mview(w)``, and ``w`` becomes
  covered.
* ``Release`` is enabled only when the latest operation is an acquire by
  the *same* thread (the releaser must hold the lock).  It appends
  ``l.release_n`` with a maximal timestamp and records the releaser's
  combined viewfront as the new operation's modification view — this is
  what a later acquire picks up.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from repro.lang.expr import Value
from repro.memory.actions import Op, mk_method
from repro.memory.state import ComponentState
from repro.memory.views import merge_views, view_union
from repro.objects.base import AbstractObject, ObjStep
from repro.util.rationals import TS_ZERO

ACQUIRE = "acquire"
RELEASE = "release"
INIT = "init"


class AbstractLock(AbstractObject):
    """The paper's abstract lock specification."""

    @property
    def methods(self) -> Tuple[str, ...]:
        return (ACQUIRE, RELEASE)

    def init_ops(self) -> Tuple[Op, ...]:
        return (Op(mk_method(self.name, INIT, index=0, sync=True), TS_ZERO),)

    # -- state inspection ----------------------------------------------------
    def holder(self, lib: ComponentState) -> Optional[str]:
        """The thread currently holding the lock, or ``None`` when free."""
        top = self.latest(lib)
        if top is not None and top.act.method == ACQUIRE:
            return top.act.tid
        return None

    def is_free(self, lib: ComponentState) -> bool:
        top = self.latest(lib)
        return top is not None and top.act.method in (INIT, RELEASE)

    def next_index(self, lib: ComponentState) -> int:
        return self.op_count(lib)

    # -- transitions (Figure 6) -----------------------------------------------
    def method_steps(
        self,
        lib: ComponentState,
        cli: ComponentState,
        tid: str,
        method: str,
        arg: Value = None,
    ) -> Iterator[ObjStep]:
        if method == ACQUIRE:
            yield from self._acquire_steps(lib, cli, tid)
        elif method == RELEASE:
            yield from self._release_steps(lib, cli, tid)
        else:
            raise ValueError(f"lock {self.name!r} has no method {method!r}")

    def _acquire_steps(
        self, lib: ComponentState, cli: ComponentState, tid: str
    ) -> Iterator[ObjStep]:
        w = self.latest(lib)
        if w is None or w.act.method not in (INIT, RELEASE):
            return  # lock held: acquire disabled (blocks)
        n = self.next_index(lib)
        q_new = lib.fresh_ts(self.name, w.ts)
        b = Op(mk_method(self.name, ACQUIRE, tid=tid, index=n), q_new)
        mv_w = lib.mview[w]
        # tview' = γ.tview_t[l := (b, q')] ⊗ γ.mview(w, q)
        tview2 = merge_views(lib.thread_view_map(tid).set(self.name, b), mv_w)
        # ctview' = β.tview_t ⊗ γ.mview(w, q)
        ctview2 = merge_views(cli.thread_view_map(tid), mv_w)
        mview2 = view_union(tview2, ctview2)
        lib2 = lib.add_op(b, mview2, tid, tview2, cover=w)
        cli2 = cli.with_thread_view(tid, ctview2)
        yield ObjStep(action=b.act, retval=n, lib=lib2, cli=cli2)

    def _release_steps(
        self, lib: ComponentState, cli: ComponentState, tid: str
    ) -> Iterator[ObjStep]:
        w = self.latest(lib)
        if w is None or w.act.method != ACQUIRE or w.act.tid != tid:
            return  # releaser does not hold the lock: disabled
        n = self.next_index(lib)
        q_new = lib.fresh_ts(self.name, w.ts)
        a = Op(mk_method(self.name, RELEASE, tid=tid, index=n, sync=True), q_new)
        tview2 = lib.thread_view_map(tid).set(self.name, a)
        mview2 = view_union(tview2, cli.thread_view_map(tid))
        lib2 = lib.add_op(a, mview2, tid, tview2)
        yield ObjStep(action=a.act, retval=n, lib=lib2, cli=cli)
