"""Canonical state identity (timestamp rank normalisation).

Two configurations that differ only in the rational values of their
timestamps — not in the relative order of operations — describe the same
abstract state: timestamps encode *per-variable* modification order, and
every comparison the semantics performs (``Obs``, the ``⊗`` merge,
``maxTS``, ``last``) is between operations on the same variable.
Cross-variable timestamp relationships are semantically irrelevant, so
the canonical key replaces each timestamp by its rank *within its
(component, variable) group*.  This is strictly stronger than a global
ranking: two interleavings that produce the same per-variable orders but
different cross-variable numeric interleavings collapse to one state.

Rank-from-index encoding
------------------------
Each component state already maintains its operations sorted by
timestamp per variable (:attr:`~repro.memory.state.ComponentState.index`),
so an operation's canonical rank is simply its *position* in that
sequence — read off the index in O(1) per operation instead of
rebuilding per-variable ``rank_map``s from an unsorted ``ops`` scan for
every visited state.  Because the client/library variable partition
makes every operation belong to exactly one component's index, the two
components' ``op → rank`` tables resolve the cross-component references
in modification views without consulting the program's partition.
Deterministic orderings use cheap *structural* sort keys (variable
names and integer ranks), not ``repr`` of whole encodings.

Two forms of one identity
-------------------------
:func:`canonical_encoding` spells the identity structurally: nested
tuples of ``(action, rank)`` operation encodings.  It is independent of
the process and of the program object, and it is what the naive oracle
(:mod:`repro.memory.naive`) is checked against.

:func:`canonical_key`, the key every in-process explorer dedups on, is
the flat tuple ``(scope, cmds, locals, γ-id, β-id)``.  The ids are
interned bottom-up: each ``(action, rank)`` to an operation id; each
component's memory part (``ops``/``mview``/``cvd`` over operation ids)
to a memory-part id; each component state to
``intern((memory-part id, thread-view operation ids))``.  Hashing a key,
or testing it against a visited set, then touches a few small ints
instead of re-walking nested tuples of actions.  Interning is by dict,
so each id is the dense index of one structural value: two ids of one
table are equal exactly when the values are — unlike a hashed digest,
there is no collision to rule out, and keys are equal exactly when the
encodings are.

The derivation is incremental.  The operation-id table and the
memory-part id depend only on the memory part, which
:meth:`~repro.memory.state.ComponentState.with_thread_view` successors
share with their parent, so they inherit both
(:data:`~repro.memory.state.MEMORY_DERIVED`): a read step re-interns
only its thread-view operation ids.  A memory part whose modification
views reach into the other component depends on the partner's ranks
too, so its id is cached only against the partner table it was
resolved with, never on the state alone.

The component ids double as the key of the sequential explorer's
visible-step memo (:func:`component_ids`,
:func:`repro.semantics.step.successors`): a memo hit returns successor
component states built from an earlier configuration with the same ids,
whose ``_mem_ident``/``_component_id`` caches are already filled, so
keying the successor costs little more than the ``cmds``/``locals``
tuple.

Scope: the intern tables belong to the :class:`~repro.lang.program.Program`
object and die with it.  Every key leads with the program's
:class:`KeyScope` tag, every id cached on a state or configuration is
stored next to its tag and recomputed on a mismatch, and keys of
different programs never compare equal.  The tables are never pickled
(:meth:`Program.__getstate__`), never fingerprinted, and never leave the
process (:meth:`Config.__reduce__ <repro.semantics.config.Config.__reduce__>`
drops every cached key).

Soundness: an order-isomorphic per-variable relabelling is a bisimulation
— the enabled transitions, placement choices and view updates of the
semantics are invariant under it (the numeric value chosen by ``fresh``
never feeds back into behaviour, only its per-variable position does).
The property suite cross-validates this by comparing terminal outcomes
of canonical vs raw exploration over random programs, and by checking
the indexed encoding against a retained naive reference implementation
(:mod:`repro.memory.naive`) over the litmus catalog.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.lang.program import Program
from repro.memory.actions import Op
from repro.memory.state import ComponentState
from repro.semantics.config import Config


def _enc_table(state: ComponentState) -> Dict[Op, Tuple]:
    """``op -> (action, rank)``: each operation's canonical encoding,
    with the rank read directly off its per-variable index position.
    The rank-derivation walk shared by :func:`canonical_encoding`, the
    client keys and the refinement projection
    (:mod:`repro.refinement.traces`).

    A pure function of the memory part, so the table is cached on the
    state and inherited by its ``with_thread_view`` successors:
    component states are shared across many configurations — a step of
    one component leaves the other's state object untouched — and the
    unchanged component's ranks are then read back instead of re-derived
    for every successor.  Callers must treat the returned table as
    read-only.
    """
    cached = state.__dict__.get("_enc_table")
    if cached is not None:
        return cached
    enc: Dict[Op, Tuple] = {}
    for seq, _ts in state.index.values():
        for i, op in enumerate(seq):
            enc[op] = (op.act, i)
    object.__setattr__(state, "_enc_table", enc)
    return enc


def _enc_state(
    state: ComponentState, own: Dict[Op, Tuple], other: Dict[Op, Tuple]
) -> Tuple:
    """Encode one component under its own ``op -> (action, rank)``
    table plus the other component's (modification views span both).

    All orderings inside the encoding are *structural*: operations are
    emitted by walking the per-variable index in (variable name, rank)
    order — already deterministic, so the modification-view sequence
    needs no sort at all (dom(mview) = ops), let alone the former
    ``repr``-lexicographic one; view and thread-view entries come from
    the maps' cached natural-order item tuples.  The two tables are
    consulted without merging them into a throwaway combined dict:
    ``ops``/``tview``/``cvd`` entries are own-component by invariant,
    and only view entries can fall through to ``other``.  An encoding
    that never fell through is a pure function of the state and is
    cached on it.
    """
    cached = state.__dict__.get("_enc_key")
    if cached is not None:
        return cached
    ops = []
    mview_items = []
    mv = state.mview
    index = state.index
    own_get = own.get
    foreign = False
    for var in sorted(index):
        for op in index[var][0]:
            e = own[op]
            ops.append(e)
            view = mv.get(op)
            if view is not None:
                enc_view = []
                for x, o in view.items_ordered():
                    eo = own_get(o)
                    if eo is None:
                        eo = other[o]
                        foreign = True
                    enc_view.append((x, eo))
                mview_items.append((e, tuple(enc_view)))
    tview = tuple(
        (key, own[op]) for key, op in state.tview.items_ordered()
    )
    cvd = frozenset(own[op] for op in state.cvd)
    key = (frozenset(ops), tview, tuple(mview_items), cvd)
    if not foreign:
        # The encoding consulted only this component's own rank table —
        # it is then a pure function of the (immutable) state and is
        # cached on it, like the table itself.  Encodings with
        # cross-component view references stay per-call: they depend on
        # the partner state's ranks too.
        object.__setattr__(state, "_enc_key", key)
    return key


class KeyScope:
    """The tag that scopes interned ids to one program's intern tables.

    Every :func:`canonical_key` starts with its program's scope, and
    every id cached on a state or configuration is stored next to the
    scope it was drawn from, so ids of different tables never meet.
    A bare identity token: it holds no table (the tables die with their
    program, not with the last key), and pickling one yields a fresh
    token that equals nothing live.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return f"<KeyScope {id(self):#x}>"


class _Interner:
    """One program's intern tables: ``value -> small int`` dicts for
    operation encodings ``(action, rank)``, memory parts and component
    states.  Ids are dense insertion indices, so equal ids mean equal
    interned values — exact, unlike a hashed digest."""

    __slots__ = ("scope", "ops", "mems", "comps")

    def __init__(self) -> None:
        self.scope = KeyScope()
        self.ops: Dict[Tuple, int] = {}
        self.mems: Dict[Tuple, int] = {}
        self.comps: Dict[Tuple, int] = {}


def _interner(program: Program) -> _Interner:
    """``program``'s intern tables, created on first use.  They live in
    the program's instance dict, which :meth:`Program.__getstate__`
    leaves out of pickles and the fingerprint never reads."""
    tables = program.__dict__.get("_interner")
    if tables is None:
        tables = _Interner()
        object.__setattr__(program, "_interner", tables)
    return tables


class _MemIdent:
    """The interned identity of one component's memory part (``ops``,
    ``mview``, ``cvd``) under one scope.

    ``table`` maps each operation to the id of its ``(action, rank)``
    encoding.  ``mem`` is the memory part's id when its modification
    views stay inside the component.  A part with foreign view
    references depends on the partner's ranks too, so its id is kept
    only next to the partner table it was resolved against
    (``partner``/``partner_mem``), never on the state alone.

    :meth:`ComponentState.with_thread_view` successors share the memory
    part and inherit the parent's ident, so a read step's key costs one
    intern of its thread-view operation ids.
    """

    __slots__ = ("scope", "table", "mem", "partner", "partner_mem")

    def __init__(self, scope: KeyScope, table: Dict[Op, int]) -> None:
        self.scope = scope
        self.table = table
        self.mem: Optional[int] = None
        self.partner: Optional[Dict[Op, int]] = None
        self.partner_mem: Optional[int] = None


def _mem_ident(tables: _Interner, state: ComponentState) -> _MemIdent:
    """``state``'s memory-part ident under ``tables``; an ident cached
    under another scope is replaced."""
    ident = state.__dict__.get("_mem_ident")
    if ident is not None and ident.scope is tables.scope:
        return ident
    ops = tables.ops
    table: Dict[Op, int] = {}
    for seq, _ts in state.index.values():
        for i, op in enumerate(seq):
            table[op] = ops.setdefault((op.act, i), len(ops))
    ident = _MemIdent(tables.scope, table)
    object.__setattr__(state, "_mem_ident", ident)
    return ident


def _mem_id(
    tables: _Interner,
    state: ComponentState,
    ident: _MemIdent,
    partner: ComponentState,
) -> int:
    """The id of ``state``'s memory part: :func:`_enc_state`'s ``ops``,
    ``mview`` and ``cvd`` encodings over operation ids, interned.
    ``partner``'s operation ids resolve cross-component view
    references."""
    if ident.partner is not None:
        partner_table = _mem_ident(tables, partner).table
        if ident.partner is partner_table:
            return ident.partner_mem
    else:
        partner_table = None
    own = ident.table
    own_get = own.get
    mv = state.mview
    index = state.index
    ops = []
    mview_items = []
    foreign = False
    for var in sorted(index):
        for op in index[var][0]:
            e = own[op]
            ops.append(e)
            view = mv.get(op)
            if view is not None:
                enc_view = []
                for x, o in view.items_ordered():
                    eo = own_get(o)
                    if eo is None:
                        if partner_table is None:
                            partner_table = _mem_ident(tables, partner).table
                        eo = partner_table[o]
                        foreign = True
                    enc_view.append((x, eo))
                mview_items.append((e, tuple(enc_view)))
    part = (
        tuple(ops),
        tuple(mview_items),
        tuple(sorted([own[op] for op in state.cvd])),
    )
    mems = tables.mems
    mem = mems.setdefault(part, len(mems))
    if foreign:
        # Holding the partner table keeps its identity from being
        # reused while the entry stands.
        ident.partner = partner_table
        ident.partner_mem = mem
    else:
        ident.mem = mem
    return mem


def _component_id(
    tables: _Interner, state: ComponentState, partner: ComponentState
) -> int:
    """``intern((memory-part id, thread-view operation ids))``, cached
    on the state next to the scope and memory-part id it was built
    from."""
    scope = tables.scope
    ident = _mem_ident(tables, state)
    mem = ident.mem
    if mem is None:
        mem = _mem_id(tables, state, ident, partner)
    cached = state.__dict__.get("_component_id")
    if cached is not None and cached[0] is scope and cached[1] == mem:
        return cached[2]
    own = ident.table
    tview = tuple([(k, own[op]) for k, op in state.tview.items_ordered()])
    comps = tables.comps
    cid = comps.setdefault((mem, tview), len(comps))
    object.__setattr__(state, "_component_id", (scope, mem, cid))
    return cid


def canonical_key(program: Program, cfg: Config) -> Tuple:
    """A hashable key identifying ``cfg`` up to per-variable timestamp
    relabelling: ``(scope, cmds, locals, γ-id, β-id)``.

    ``cmds`` and ``locals`` are the configuration's own maps (their
    hashes are cached on them); the two component ids are drawn from
    ``program``'s intern tables.  Hashing or comparing a key therefore
    never walks nested operation encodings.

    ``program`` is the key's scope.  Keys of different programs never
    compare equal: their leading :class:`KeyScope` tags differ, and no
    id is ever compared across tables.  Within one program two keys are
    equal exactly when their :func:`canonical_encoding` values are: each id
    is a dense index into a dict of the structural values it stands
    for, so id equality is value equality, with no hash collision to
    rule out.  Keys are process-local; anything that leaves the process
    uses :func:`canonical_encoding`.

    Cached on ``cfg``; a key cached under another program's scope is
    recognised by its tag and replaced.
    """
    tables = _interner(program)
    cached = cfg.__dict__.get("_canonical_key")
    if cached is not None and cached[0] is tables.scope:
        return cached
    gamma = cfg.gamma
    beta = cfg.beta
    key = (
        tables.scope,
        cfg.cmds,
        cfg.locals,
        _component_id(tables, gamma, beta),
        _component_id(tables, beta, gamma),
    )
    object.__setattr__(cfg, "_canonical_key", key)
    return key


def component_ids(program: Program, cfg: Config) -> Tuple[int, int]:
    """``(γ-id, β-id)``: the interned component ids of ``cfg``'s
    canonical key — the identity of its memory up to per-variable
    timestamp relabelling, the key of the visible-step memo
    (:func:`repro.semantics.step.successors`).  Read off the key cached
    on ``cfg`` (an explorer has keyed every configuration it expands),
    derived only when it is missing or of another scope."""
    cached = cfg.__dict__.get("_canonical_key")
    if cached is None or cached[0] is not _interner(program).scope:
        cached = canonical_key(program, cfg)
    return cached[3], cached[4]


def canonical_encoding(program: Program, cfg: Config) -> Tuple:
    """The structural form of :func:`canonical_key`: the same quotient,
    spelled as nested tuples of ``(action, rank)`` operation encodings.

    Independent of the process and of the program object (no intern
    ids), and what meets the naive oracle (:mod:`repro.memory.naive`).
    A pure function of the configuration, cached on ``cfg``;
    ``program`` is unused.
    """
    cached = cfg.__dict__.get("_canonical_encoding")
    if cached is not None:
        return cached
    genc = _enc_table(cfg.gamma)
    benc = _enc_table(cfg.beta)

    cmds = cfg.cmds.items_ordered()
    locals_ = tuple(
        (tid, ls.items_sorted()) for tid, ls in cfg.locals.items_ordered()
    )
    key = (
        cmds,
        locals_,
        _enc_state(cfg.gamma, genc, benc),
        _enc_state(cfg.beta, benc, genc),
    )
    object.__setattr__(cfg, "_canonical_encoding", key)
    return key


def client_state_key(program: Program, cfg: Config) -> Tuple:
    """Canonical key of the *client-observable* part of a configuration.

    Used by the refinement machinery (paper §6.1): client-projected local
    states plus the canonicalised client component.  Library registers
    (``LVar_L``) are excluded from local states.  Cached per
    configuration (the library-register set is a fixture of the program
    the configuration belongs to).
    """
    cached = cfg.__dict__.get("_client_state_key")
    if cached is not None:
        return cached
    enc = _enc_table(cfg.gamma)
    lib_regs = program.lib_registers()

    gamma = cfg.gamma
    ops = frozenset(enc[op] for op in gamma.ops)
    tview = tuple(
        (key, enc[op]) for key, op in gamma.tview.items_ordered()
    )
    cvd = frozenset(enc[op] for op in gamma.cvd)
    locals_ = tuple(
        (
            tid,
            tuple(
                sorted(
                    (r, v) for r, v in ls.items() if r not in lib_regs
                )
            ),
        )
        for tid, ls in cfg.locals.items_ordered()
    )
    key = (locals_, ops, tview, cvd)
    object.__setattr__(cfg, "_client_state_key", key)
    return key
