"""Component state ``(ops, tview, mview, cvd)`` (paper §3.3).

Each component (client or library) carries:

* ``ops`` — the set of modifying operations executed so far, each a
  timestamped :class:`~repro.memory.actions.Op`;
* ``tview`` — per-thread viewfronts over the component's variables
  (``tview_t ∈ GVar → ops``); a thread can read any operation on ``x``
  whose timestamp is at least ``tst(tview_t(x))``;
* ``mview`` — per-operation modification views spanning *both*
  components ("the modification view function may map to operations
  across the system");
* ``cvd`` — covered operations: those immediately prior to an update in
  modification order, with which no new operation may interact.

States are immutable; updates return new states sharing unmodified parts.

Indexed observation
-------------------
Every comparison the semantics performs (``Obs``, ``maxTS``, ``last``,
placement ceilings) is between operations on the *same* variable, so the
state maintains — alongside the flat ``ops`` set that defines equality
and hashing — a per-variable index: for each variable, the operations on
it sorted by timestamp (plus the parallel timestamp tuple), and one
sorted tuple of all timestamps in the component.  Successor constructors
(:meth:`add_op`, :meth:`with_thread_view`) derive the successor's index
*incrementally* from the parent's — a bisected tuple insert — instead of
rescanning and re-sorting ``ops``, turning the explorer's inner loop
(``obs`` per read candidate, ``fresh`` per placement candidate,
``canonical_key`` per visited state) from O(|ops|) scans into bisect
plus slice.  The index and the per-thread view-map cache are derived
data: they never participate in ``==``/``hash``, and states built
directly from an ``ops`` set materialise them lazily.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

from repro.memory.actions import Action, Op
from repro.memory.views import View
from repro.util.fmap import FMap
from repro.util.rationals import between, next_after

#: Cached attributes that :mod:`repro.semantics.canon` derives from a
#: state's memory part (``ops``/``mview``/``cvd`` and the index) alone:
#: the structural ``op -> (action, rank)`` table and the interned
#: memory-part identity.  :meth:`ComponentState.with_thread_view`
#: successors share the memory part and inherit them.
MEMORY_DERIVED = ("_enc_table", "_mem_ident")

#: Per-variable index entry: (ops on the variable sorted by timestamp,
#: the parallel tuple of their timestamps — the bisect key sequence).
VarIndex = Tuple[Tuple[Op, ...], Tuple[Fraction, ...]]


@dataclass(frozen=True)
class ComponentState:
    """The weak-memory state of one component (client γ or library β)."""

    ops: FrozenSet[Op] = frozenset()
    #: tview[(tid, var)] -> Op ; flattened for cheap single-entry updates.
    tview: FMap = field(default_factory=FMap)
    #: mview[op] -> View (var -> Op, spanning both components).
    mview: FMap = field(default_factory=FMap)
    cvd: FrozenSet[Op] = frozenset()

    # -- serialisation -------------------------------------------------------
    def __reduce__(self):
        """Rebuild from the four defining fields, as the same class (the
        naive reference subclass stays naive).  Indices, view-map caches
        and interned canonical ids are derived and rebuilt lazily."""
        return (type(self), (self.ops, self.tview, self.mview, self.cvd))

    # -- derived indices -----------------------------------------------------
    @property
    def index(self) -> Mapping[str, VarIndex]:
        """``var -> (ops sorted by ts, their timestamps)`` over ``ops``.

        Built lazily from ``ops`` on first use; successor constructors
        hand their successors an incrementally-updated copy instead.
        """
        cached = self.__dict__.get("_index")
        if cached is None:
            grouped: Dict[str, list] = {}
            for op in self.ops:
                grouped.setdefault(op.act.var, []).append(op)
            cached = {}
            for var, group in grouped.items():
                group.sort(key=_op_ts)
                cached[var] = (tuple(group), tuple(o.ts for o in group))
            object.__setattr__(self, "_index", cached)
        return cached

    @property
    def all_ts(self) -> Tuple[Fraction, ...]:
        """All timestamps in ``ops``, sorted ascending (the component-wide
        ceiling index used by :meth:`fresh_ts`)."""
        cached = self.__dict__.get("_all_ts")
        if cached is None:
            cached = tuple(sorted(op.ts for op in self.ops))
            object.__setattr__(self, "_all_ts", cached)
        return cached

    def _seed_caches(
        self,
        index: Mapping[str, VarIndex],
        all_ts: Tuple[Fraction, ...],
        tvm_cache: Dict[str, View],
    ) -> "ComponentState":
        """Install precomputed derived data on a freshly built successor."""
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_all_ts", all_ts)
        object.__setattr__(self, "_tvm_cache", tvm_cache)
        return self

    def _derived_tvm_cache(self, tid: str, view: View) -> Dict[str, View]:
        """The successor's thread-view-map cache after ``tview_t`` merges
        ``view``: entries of other threads stay valid, ``tid``'s is
        updated in place when already materialised."""
        cache = self.__dict__.get("_tvm_cache") or {}
        derived = dict(cache)
        old = derived.pop(tid, None)
        if old is not None:
            derived[tid] = old.set_many(dict(view.items()))
        return derived

    # -- observation --------------------------------------------------------
    def thread_view(self, tid: str, var: str) -> Optional[Op]:
        """``tview_t(x)`` — this thread's viewfront for ``x`` (None if the
        variable is not part of this component)."""
        return self.tview.get((tid, var))

    def obs(self, tid: str, var: str) -> Tuple[Op, ...]:
        """``Obs(t, x)``: operations on ``x`` observable to ``t``.

        ``{(a, q) ∈ ops | var(a) = x ∧ tst(tview_t(x)) ≤ q}`` — sorted by
        timestamp for deterministic iteration.  A bisect on the variable's
        index plus a slice: no scan over ``ops``.
        """
        front = self.tview.get((tid, var))
        if front is None:
            return ()
        entry = self.index.get(var)
        if entry is None:
            return ()
        seq, ts_seq = entry
        return seq[bisect_left(ts_seq, front.ts):]

    def observable_uncovered(self, tid: str, var: str) -> Tuple[Op, ...]:
        """``Obs(t, x) \\ cvd`` — candidates for write/update placement."""
        observable = self.obs(tid, var)
        if not self.cvd:
            return observable
        cvd = self.cvd
        return tuple(op for op in observable if op not in cvd)

    def ops_on(self, var: str) -> Tuple[Op, ...]:
        """All operations on ``var`` (``ops|x``), sorted by timestamp."""
        entry = self.index.get(var)
        return entry[0] if entry is not None else ()

    def max_ts(self, var: str) -> Optional[Fraction]:
        """``maxTS(var, σ)``."""
        entry = self.index.get(var)
        return entry[1][-1] if entry is not None else None

    def last_op(self, var: str, only=None) -> Optional[Op]:
        """``last(W, x)`` over this component's ops.

        ``only`` optionally filters the candidate actions (e.g. writes
        only); the variable's index is walked backwards from the maximal
        timestamp, so the unfiltered case is O(1).
        """
        entry = self.index.get(var)
        if entry is None:
            return None
        seq = entry[0]
        if only is None:
            return seq[-1]
        for op in reversed(seq):
            if only(op.act):
                return op
        return None

    def timestamps(self) -> Tuple[Fraction, ...]:
        """All timestamps in ``ops``, ascending (for freshness checks)."""
        return self.all_ts

    def fresh_ts(self, var: str, q: Fraction) -> Fraction:
        """The canonical fresh timestamp ``q'`` with ``fresh(q, q')``.

        ``fresh(q, q') = q < q' ∧ ∀w' ∈ ops. q < tst(w') ⇒ q' < tst(w')``
        (paper §3.3) — the ceiling is the least timestamp above ``q``
        across the *whole component*, found by one bisect on the sorted
        timestamp index instead of a scan of ``timestamps()``.  ``var``
        names the variable being modified; only the position of ``q'``
        within ``var``'s modification order is semantically observable
        (see :mod:`repro.semantics.canon`), but the numeric choice
        follows the paper's component-wide gap so raw (un-canonicalised)
        exploration is unchanged.
        """
        all_ts = self.all_ts
        i = bisect_right(all_ts, q)
        if i == len(all_ts):
            return next_after(q)
        return between(q, all_ts[i])

    # -- functional update ---------------------------------------------------
    def with_thread_view(self, tid: str, view: View) -> "ComponentState":
        """Merge ``view`` into the viewfront of ``tid`` (``tview_t := view``
        entry-wise).  Returns ``self`` when nothing advances."""
        updates = {(tid, x): op for x, op in view.items()}
        tview2 = self.tview.set_many(updates)
        if tview2 is self.tview:
            return self
        new = ComponentState(
            ops=self.ops, tview=tview2, mview=self.mview, cvd=self.cvd
        )
        # The successor shares the memory part, so it also shares what
        # the canonical layer derived from it alone.
        d = self.__dict__
        for attr in MEMORY_DERIVED:
            derived = d.get(attr)
            if derived is not None:
                object.__setattr__(new, attr, derived)
        return new._seed_caches(
            self.index, self.all_ts, self._derived_tvm_cache(tid, view)
        )

    def thread_view_map(self, tid: str) -> View:
        """``tview_t`` as a variable-indexed view map (cached per thread —
        states are immutable, so the map is computed at most once)."""
        cache = self.__dict__.get("_tvm_cache")
        if cache is None:
            cache = {}
            object.__setattr__(self, "_tvm_cache", cache)
        view = cache.get(tid)
        if view is None:
            view = FMap(
                {x: op for (t, x), op in self.tview.items() if t == tid}
            )
            cache[tid] = view
        return view

    def add_op(
        self,
        op: Op,
        mview: View,
        tid: str,
        tview: View,
        cover: Optional[Op] = None,
    ) -> "ComponentState":
        """Insert a new operation with its modification view, replace the
        executing thread's viewfront, and optionally cover an operation.

        The successor's per-variable and timestamp indices are derived
        incrementally: one bisected tuple insert for ``op``'s variable,
        one sorted insert into the timestamp index — no rescan of
        ``ops``.
        """
        new_cvd = self.cvd | {cover} if cover is not None else self.cvd
        updates = {(tid, x): o for x, o in tview.items()}
        new = ComponentState(
            ops=self.ops | {op},
            tview=self.tview.set_many(updates),
            mview=self.mview.set(op, mview),
            cvd=new_cvd,
        )

        var = op.act.var
        index2 = dict(self.index)
        entry = index2.get(var)
        if entry is None:
            index2[var] = ((op,), (op.ts,))
        else:
            seq, ts_seq = entry
            i = bisect_right(ts_seq, op.ts)
            index2[var] = (
                seq[:i] + (op,) + seq[i:],
                ts_seq[:i] + (op.ts,) + ts_seq[i:],
            )
        all_ts2 = list(self.all_ts)
        insort(all_ts2, op.ts)
        return new._seed_caches(
            index2, tuple(all_ts2), self._derived_tvm_cache(tid, tview)
        )

    # -- integrity -----------------------------------------------------------
    def check_invariants(self, tids: Iterable[str]) -> None:
        """Internal coherence: views point into ops, cvd ⊆ ops, per-variable
        timestamps unique, indices consistent with ``ops``.  Used by tests
        and the debugging explorer mode."""
        for (t, x), op in self.tview.items():
            assert op in self.ops, f"tview[{t},{x}] = {op!r} not in ops"
        assert self.cvd <= self.ops, "cvd ⊄ ops"
        for op in self.mview:
            assert op in self.ops, f"mview key {op!r} not in ops"
        seen: dict = {}
        for op in self.ops:
            key = (op.act.var, op.ts)
            assert key not in seen, f"duplicate timestamp for {op.act.var}: {op.ts}"
            seen[key] = op
        # The derived indices must describe exactly ``ops``.
        indexed = [op for seq, _ts in self.index.values() for op in seq]
        assert len(indexed) == len(self.ops) and set(indexed) == set(
            self.ops
        ), "per-variable index out of sync with ops"
        for var, (seq, ts_seq) in self.index.items():
            assert all(op.act.var == var for op in seq), f"foreign op under {var}"
            assert ts_seq == tuple(op.ts for op in seq), f"ts index desync on {var}"
            assert list(ts_seq) == sorted(ts_seq), f"index unsorted on {var}"
        assert self.all_ts == tuple(
            sorted(op.ts for op in self.ops)
        ), "timestamp index out of sync with ops"


def _op_ts(op: Op) -> Fraction:
    return op.ts
