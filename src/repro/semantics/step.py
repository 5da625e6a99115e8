"""Successor generation: the ``=⇒`` relation of Section 3.2.

For each thread we enumerate every transition its continuation admits:
silent (ε) program steps, memory steps constrained by Figure 5 (with all
read-from and placement nondeterminism), and abstract method transitions
(Section 4).  Steps arising inside a :class:`~repro.lang.ast.LibBlock` or
from a :class:`~repro.lang.ast.MethodCall` are *library* steps: they
execute against ``β`` with ``γ`` as context, and are tagged ``'L'``.

Silent steps are factored into :func:`silent_step`, the single source of
truth shared with the reduction layer (:mod:`repro.semantics.reduce`):
a command's step set is *homogeneous* — either its head admits exactly
one silent step (``LocalAssign``/``If``/``While`` bookkeeping, possibly
under ``Seq``/``Labeled``/``LibBlock`` wrappers) or every step it admits
is a visible memory/method step.  ``_steps`` therefore consults
``silent_step`` first and only enumerates the visible rules when it
returns nothing, so the ε-fragment cannot drift between ordinary and
ε-closed successor generation.

Visible steps go through one rule function per command kind
(``_write_rule``, ``_read_rule``, ``_cas_rule``, ``_fai_rule``,
``_method_rule``).  Each is a function of the configuration's component
states, the stepping thread, the lib/client orientation and the
command's *evaluated* operands, and returns every ``(action, register
value, γ', β')`` step; ``_steps`` binds the register.  That makes a
visible step memoisable: the sequential explorer passes a
per-exploration dict as ``successors(..., memo=)``, keyed by the
configuration's interned ``(γ-id, β-id)``
(:func:`repro.semantics.canon.component_ids`) plus the thread,
orientation, rule and operands.  Equal ids mean memories equal up to
per-variable timestamp relabelling, and the rules commute with such
relabellings ("Verifying C11 Programs Operationally", the argument the
canonical key rests on), so the first-seen configuration's successor
states serve every later one with the same key — with their interned
ids already cached on them.  Every other caller (the ε-closure, dpor,
witness replay, the proof-rule checkers, raw-keyed exploration) runs the same rule functions without a memo.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.lang import ast as A
from repro.lang.expr import Value, eval_expr
from repro.lang.program import Program
from repro.memory.actions import Action
from repro.memory.state import ComponentState
from repro.memory.transitions import (
    ANY_VALUE,
    read_steps,
    update_steps,
    write_steps,
)
from repro.obs import metrics as _metrics
from repro.semantics.canon import component_ids
from repro.semantics.config import Config
from repro.util.errors import SemanticsError
from repro.util.fmap import FMap


class Transition:
    """One step of the combined semantics.

    A slotted value class (matching the :class:`~repro.memory.actions.Op`
    treatment): transitions are created once per edge on the explorer's
    hottest allocation path and never mutated.
    """

    __slots__ = ("tid", "component", "action", "target")

    def __init__(
        self,
        tid: str,
        component: str,  # 'C' for client steps, 'L' for library steps
        action: Optional[Action],  # None for silent (ε) steps
        target: Config,
    ) -> None:
        self.tid = tid
        self.component = component
        self.action = action
        self.target = target

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Transition):
            return (
                self.tid == other.tid
                and self.component == other.component
                and self.action == other.action
                and self.target == other.target
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.tid, self.component, self.action, self.target))

    def __repr__(self) -> str:
        return (
            f"Transition(tid={self.tid!r}, component={self.component!r}, "
            f"action={self.action!r}, target={self.target!r})"
        )


#: Internal: (action, component, cmd', ls', γ', β').
_ThreadStep = Tuple[
    Optional[Action], str, A.Com, FMap, ComponentState, ComponentState
]

#: Internal: one visible step as a rule returns it —
#: (action, register value, γ', β').
_VisibleStep = Tuple[Action, Value, ComponentState, ComponentState]

#: Internal: a visible-step memo table with the interned ``(γ-id,
#: β-id)`` of the configuration being expanded.
_MemoContext = Tuple[Dict[Tuple, List[_VisibleStep]], int, int]

#: Continuation summary for the covering-read prune: the set of global
#: variables the continuation may still access, and whether it may still
#: *publish* thread views (write/update/method/lib steps record the
#: stepping thread's whole view map in new operations' modification
#: views, so any of them can export an otherwise-dead viewfront entry).
_Rest = Tuple[FrozenSet, bool]

_REST_EMPTY: _Rest = (frozenset(), False)


def successors(
    program: Program,
    cfg: Config,
    prune: bool = False,
    close=None,
    memo: Optional[Dict] = None,
) -> List[Transition]:
    """All ``=⇒`` successors of ``cfg`` across every thread.

    One shared output list, appended to directly per thread — no
    per-thread generator materialisation and second ``extend`` pass.
    ``prune=True`` enables the covering-read prune (sound only as part
    of the reduction layer; see :mod:`repro.semantics.reduce`).

    ``close``, when given, is the reduction layer's ε-closure
    ``(cmd, ls) -> (cmd', ls', fused)`` applied to each successor's
    stepping thread *before* the transition is constructed: silent
    chains touch only the continuation and locals by construction, so
    fusing them here builds each macro-step target exactly once instead
    of materialising a throwaway intermediate Transition/Config pair
    per closed successor.

    ``memo``, when given, is the exploration's visible-step memo: a dict
    the caller owns for one exploration of ``program`` and passes to
    every call.  Each visible rule application is keyed by the interned
    ``(γ-id, β-id)`` of ``cfg``'s canonical key plus the thread, the
    component orientation, the rule and its evaluated operands, and a
    repeated key returns the stored successor component states instead
    of re-running the rule.  Ids are exact value identity, so the stored
    states are equal, up to per-variable timestamp relabelling, to the
    ones the rule would build; the rules commute with such relabellings,
    so every successor has the same label and the same canonical key as
    without the memo.  The memo is only meaningful where states are
    identified by :func:`~repro.semantics.canon.canonical_key`.
    """
    out: List[Transition] = []
    append = out.append
    rest = _REST_EMPTY if prune else None
    context: Optional[_MemoContext] = None
    if memo is not None:
        gid, bid = component_ids(program, cfg)
        context = (memo, gid, bid)
    for tid in program.tids:
        cmd = cfg.cmds[tid]
        if cmd is None:
            continue
        ls = cfg.locals[tid]
        for action, comp, cmd2, ls2, gamma2, beta2 in _steps(
            program, cmd, tid, ls, cfg.gamma, cfg.beta, False, rest, context
        ):
            if close is not None and cmd2 is not None:
                cmd2, ls2, _fused = close(cmd2, ls2)
            append(
                Transition(
                    tid, comp, action,
                    cfg.with_thread(tid, cmd2, ls2, gamma2, beta2),
                )
            )
    return out


def thread_successors(
    program: Program, cfg: Config, tid: str
) -> Iterator[Transition]:
    """Successors contributed by thread ``tid`` (always unpruned — the
    covering-read prune is only sound composed with the ε-closure, so
    it is reachable solely through ``successors(prune=True)`` inside
    the reduction layer)."""
    cmd = cfg.cmds[tid]
    if cmd is None:
        return
    ls = cfg.locals[tid]
    for action, comp, cmd2, ls2, gamma2, beta2 in _steps(
        program, cmd, tid, ls, cfg.gamma, cfg.beta, in_lib=False,
        rest=None,
    ):
        yield Transition(
            tid=tid,
            component=comp,
            action=action,
            target=cfg.with_thread(tid, cmd2, ls2, gamma2, beta2),
        )


def silent_step(
    cmd: A.Node, ls: FMap, in_lib: bool = False
) -> Optional[Tuple[str, Optional[A.Node], FMap]]:
    """The unique silent (ε) step of ``cmd``, or None if its head is a
    memory/method command.

    Returns ``(component, cmd', ls')``.  Silent steps touch only the
    stepping thread's continuation and local state — never ``γ`` or
    ``β`` — and are deterministic: ``LocalAssign``, ``If`` and ``While``
    each admit exactly one step, a function of ``ls`` alone, and the
    ``Seq``/``Labeled``/``LibBlock`` wrappers preserve uniqueness.
    """
    if isinstance(cmd, A.LocalAssign):
        comp = "L" if in_lib else "C"
        return comp, None, ls.set(cmd.reg, eval_expr(cmd.expr, ls))

    if isinstance(cmd, A.If):
        comp = "L" if in_lib else "C"
        branch = (
            cmd.then_branch if eval_expr(cmd.cond, ls) else cmd.else_branch
        )
        return comp, branch, ls

    if isinstance(cmd, A.While):
        comp = "L" if in_lib else "C"
        if eval_expr(cmd.cond, ls):
            return comp, A.Seq(cmd.body, cmd), ls
        return comp, None, ls

    if isinstance(cmd, A.Seq):
        inner = silent_step(cmd.first, ls, in_lib)
        if inner is None:
            return None
        comp, first2, ls2 = inner
        return comp, A.seq_cons(first2, cmd.second), ls2

    if isinstance(cmd, A.Labeled):
        inner = silent_step(cmd.body, ls, in_lib)
        if inner is None:
            return None
        comp, body2, ls2 = inner
        wrapped = A.Labeled(cmd.label, body2) if body2 is not None else None
        return comp, wrapped, ls2

    if isinstance(cmd, A.LibBlock):
        inner = silent_step(cmd.body, ls, in_lib=True)
        if inner is None:
            return None
        _comp, body2, ls2 = inner
        wrapped = (
            A.LibBlock(body2, cmd.public_regs) if body2 is not None else None
        )
        return "L", wrapped, ls2

    return None


#: Memoised continuation summaries.  AST nodes are immutable and loop
#: unfoldings rebuild structurally-equal suffixes, so value-keyed
#: memoisation hits across the whole exploration.  Bounded by a crude
#: flush so long-lived processes exploring many distinct programs don't
#: retain every dead program's AST.
_SUMMARIES: Dict[A.Node, _Rest] = {}
_SUMMARIES_MAX = 100_000


def _node_summary(cmd: Optional[A.Node]) -> _Rest:
    """``(vars possibly accessed, may publish views)`` of a command.

    Conservative over all executions: branches union, loops summarise
    their bodies.  ``MethodCall`` (and any unknown node) counts as
    publishing — abstract methods execute against ``β`` with arbitrary
    variable footprints.
    """
    if cmd is None:
        return _REST_EMPTY
    cached = _SUMMARIES.get(cmd)
    if cached is not None:
        return cached
    if isinstance(cmd, A.LocalAssign):
        summary: _Rest = _REST_EMPTY
    elif isinstance(cmd, A.Read):
        summary = (frozenset((cmd.var,)), False)
    elif isinstance(cmd, (A.Write, A.Cas, A.Fai)):
        summary = (frozenset((cmd.var,)), True)
    elif isinstance(cmd, A.Seq):
        summary = _combine(_node_summary(cmd.first), _node_summary(cmd.second))
    elif isinstance(cmd, A.If):
        summary = _combine(
            _node_summary(cmd.then_branch), _node_summary(cmd.else_branch)
        )
    elif isinstance(cmd, A.While):
        summary = _node_summary(cmd.body)
    elif isinstance(cmd, (A.Labeled, A.LibBlock)):
        summary = _node_summary(cmd.body)
    else:  # MethodCall and anything unforeseen: assume everything.
        summary = (frozenset(), True)
    if len(_SUMMARIES) >= _SUMMARIES_MAX:
        _SUMMARIES.clear()
    _SUMMARIES[cmd] = summary
    return summary


def _combine(a: _Rest, b: _Rest) -> _Rest:
    if b is _REST_EMPTY:
        return a
    if a is _REST_EMPTY:
        return b
    return a[0] | b[0], a[1] or b[1]


def _collapse_ok(var: str, rest: Optional[_Rest]) -> bool:
    """Whether the covering-read prune applies to a read of ``var``.

    True when the thread's continuation can neither access ``var`` again
    (so the advanced viewfront is never consulted) nor publish its view
    map (so the front cannot escape into another operation's
    modification view).  Under that condition the only successor
    difference between same-value, non-synchronising read choices is an
    unobservable viewfront entry — the states are covering-equivalent.
    """
    if rest is None:
        return False
    vars_, publishes = rest
    return not publishes and var not in vars_


def _steps(
    program: Program,
    cmd: A.Node,
    tid: str,
    ls: FMap,
    gamma: ComponentState,
    beta: ComponentState,
    in_lib: bool,
    rest: Optional[_Rest] = None,
    memo: Optional[_MemoContext] = None,
) -> Iterator[_ThreadStep]:
    """All steps of ``cmd``.

    ``rest`` is the covering-read prune context: None disables the
    prune (the default, byte-identical to the historical semantics); a
    summary tuple carries what the *rest of the thread* beyond ``cmd``
    may still do, maintained through ``Seq`` descent.

    ``memo`` is the visible-step memo of the configuration ``gamma``
    and ``beta`` belong to (see :func:`successors`); None runs the
    rule directly.
    """
    silent = silent_step(cmd, ls, in_lib)
    if silent is not None:
        comp2, cmd2, ls2 = silent
        yield None, comp2, cmd2, ls2, gamma, beta
        return

    # A visible command: pick its rule, evaluate its operands, and note
    # the register the rule's value binds.
    if isinstance(cmd, A.Write):
        rule, reg = _write_rule, None
        operands = (cmd.var, eval_expr(cmd.expr, ls), cmd.release)
    elif isinstance(cmd, A.Read):
        rule, reg = _read_rule, cmd.reg
        operands = (cmd.var, cmd.acquire, _collapse_ok(cmd.var, rest))
    elif isinstance(cmd, A.Cas):
        rule, reg = _cas_rule, cmd.reg
        operands = (
            cmd.var,
            eval_expr(cmd.expect, ls),
            eval_expr(cmd.new, ls),
            _collapse_ok(cmd.var, rest),
        )
    elif isinstance(cmd, A.Fai):
        rule, reg = _fai_rule, cmd.reg
        operands = (cmd.var,)
    elif isinstance(cmd, A.MethodCall):
        rule, reg = _method_rule, cmd.dest
        arg = None if cmd.arg is None else eval_expr(cmd.arg, ls)
        operands = (cmd.obj, cmd.method, arg)

    elif isinstance(cmd, A.Seq):
        rest2 = None if rest is None else _combine(
            _node_summary(cmd.second), rest
        )
        for action, comp2, first2, ls2, g2, b2 in _steps(
            program, cmd.first, tid, ls, gamma, beta, in_lib, rest2, memo
        ):
            yield action, comp2, A.seq_cons(first2, cmd.second), ls2, g2, b2
        return

    elif isinstance(cmd, A.LibBlock):
        for action, _comp2, body2, ls2, g2, b2 in _steps(
            program, cmd.body, tid, ls, gamma, beta, True, rest, memo
        ):
            wrapped = (
                A.LibBlock(body2, cmd.public_regs) if body2 is not None else None
            )
            yield action, "L", wrapped, ls2, g2, b2
        return

    elif isinstance(cmd, A.Labeled):
        for action, comp2, body2, ls2, g2, b2 in _steps(
            program, cmd.body, tid, ls, gamma, beta, in_lib, rest, memo
        ):
            wrapped = A.Labeled(cmd.label, body2) if body2 is not None else None
            yield action, comp2, wrapped, ls2, g2, b2
        return

    else:
        raise SemanticsError(f"cannot step command: {cmd!r}")

    if memo is None:
        steps = rule(program, gamma, beta, tid, in_lib, *operands)
    else:
        table, gid, bid = memo
        key = (gid, bid, tid, in_lib, rule, operands)
        steps = table.get(key)
        if steps is None:
            steps = rule(program, gamma, beta, tid, in_lib, *operands)
            table[key] = steps
            if _metrics._ACTIVE is not None:
                _metrics._ACTIVE.inc("explore.memo.entries")
        if _metrics._ACTIVE is not None:
            _metrics._ACTIVE.inc("explore.memo.lookups")
    # Abstract method calls are library transitions wherever they occur.
    comp = "L" if in_lib or rule is _method_rule else "C"
    for action, value, g2, b2 in steps:
        yield action, comp, None, ls.set(reg, value) if reg else ls, g2, b2


# ---------------------------------------------------------------------------
# visible-step rules
# ---------------------------------------------------------------------------
#
# One function per visible command kind, each a function of the
# configuration's component states and the command's *evaluated*
# operands only: ``rule(program, γ, β, tid, in_lib, *operands)`` returns
# every ``(action, register value, γ', β')`` step.  ``in_lib`` orients
# the Figure 5 rules: a library step executes against ``β`` with ``γ``
# as context.


def _oriented(in_lib: bool, steps, value) -> List[_VisibleStep]:
    """A Figure 5 rule's ``(action, w, exec', ctx')`` steps as
    ``(action, value(action), γ', β')``."""
    if in_lib:
        return [(a, value(a), g2, b2) for a, _w, b2, g2 in steps]
    return [(a, value(a), g2, b2) for a, _w, g2, b2 in steps]


def _write_rule(program, gamma, beta, tid, in_lib, var, value, release):
    exec_state, ctx_state = (beta, gamma) if in_lib else (gamma, beta)
    return _oriented(
        in_lib,
        write_steps(exec_state, ctx_state, tid, var, value, release),
        lambda _a: None,
    )


def _read_rule(program, gamma, beta, tid, in_lib, var, acquire, collapse):
    exec_state, ctx_state = (beta, gamma) if in_lib else (gamma, beta)
    return _oriented(
        in_lib,
        read_steps(
            exec_state, ctx_state, tid, var, acquire,
            collapse_same_value=collapse,
        ),
        lambda a: a.val,
    )


def _cas_rule(program, gamma, beta, tid, in_lib, var, expect, new, collapse):
    exec_state, ctx_state = (beta, gamma) if in_lib else (gamma, beta)
    # Success: an acquiring-releasing update updRA(x, u, v).
    steps = _oriented(
        in_lib,
        update_steps(exec_state, ctx_state, tid, var, expect, lambda _m: new),
        lambda _a: True,
    )
    # Failure: a relaxed read of any observable value ≠ u.
    steps += _oriented(
        in_lib,
        read_steps(
            exec_state, ctx_state, tid, var, acquire=False, forbid=expect,
            collapse_same_value=collapse,
        ),
        lambda _a: False,
    )
    return steps


def _fai_rule(program, gamma, beta, tid, in_lib, var):
    exec_state, ctx_state = (beta, gamma) if in_lib else (gamma, beta)
    return _oriented(
        in_lib,
        update_steps(exec_state, ctx_state, tid, var, ANY_VALUE, _increment),
        lambda a: a.rdval,
    )


def _method_rule(program, gamma, beta, tid, in_lib, obj_name, method, arg):
    # Abstract method calls are library transitions: the object's home
    # component β executes, the client γ is the context (Figure 6).
    obj = program.object_map.get(obj_name)
    if obj is None:
        raise SemanticsError(f"no abstract object named {obj_name!r}")
    return [
        (step.action, step.retval, step.cli, step.lib)
        for step in obj.method_steps(beta, gamma, tid, method, arg)
    ]


def _increment(m):
    if not isinstance(m, int):
        raise SemanticsError(f"FAI on non-integer value {m!r}")
    return m + 1
