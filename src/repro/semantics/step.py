"""Successor generation: the ``=⇒`` relation of Section 3.2.

For each thread we enumerate every transition its continuation admits:
silent (ε) program steps, memory steps constrained by Figure 5 (with all
read-from and placement nondeterminism), and abstract method transitions
(Section 4).  Steps arising inside a :class:`~repro.lang.ast.LibBlock` or
from a :class:`~repro.lang.ast.MethodCall` are *library* steps: they
execute against ``β`` with ``γ`` as context, and are tagged ``'L'``.

One thread-step function, :func:`_thread_step`, works out what a thread
does next from its continuation and locals alone.  A command's step set
is *homogeneous*: either its head admits exactly one silent step
(``LocalAssign``/``If``/``While`` bookkeeping, possibly under
``Seq``/``Labeled``/``LibBlock`` wrappers), which :func:`silent_step`
returns — the single source of ε-truth shared with the reduction layer
(:mod:`repro.semantics.reduce`) — or every step it admits is a visible
memory/method step.  For a visible head, :func:`_thread_step` returns a
*plan*: the rule function to run against the memory (``_write_rule``,
``_read_rule``, ``_cas_rule``, ``_fai_rule``, ``_method_rule``), its
evaluated operands, the orientation, the register the rule's value
binds, and the continuation every outcome of the rule leaves behind.
Each rule is a function of the configuration's component states, the
stepping thread, the orientation and the operands, and returns every
``(action, register value, γ', β')`` step.

:func:`successors` caches per thread state.  A thread's plan depends
only on ``(tid, cmd, ls)``, which the canonical layer interns to a
thread id (:func:`repro.semantics.canon.thread_ids`), so it is worked
out once per thread id and prune mode, and so is the successor thread
state of each register value: its locals, its continuation (ε-closed
for the reduction layer) and its id.  The tables live with the
program's intern tables, whose thread rows give back the ``(tid, cmd,
ls)`` of each thread id: a missing plan reads its thread state there,
not off the configuration.  What a plan needs besides — the continuation
footprints of the covering-read prune
(:func:`~repro.analysis.footprints.thread_footprint`) and the
ε-closure of each outcome — is worked out with the plan and not cached
on its own.

What varies per configuration is the memory, and that goes through a
visible-step memo, :class:`StepMemo`: the explorer owns one per
exploration under every policy (``off``, and through
:func:`~repro.semantics.reduce.reduced_successors` the ε-closure and
dpor), and a call without one gets a memo of its own.  A rule
application is keyed by the source's interned ``(γ-id, β-id)``
(:func:`repro.semantics.canon.component_ids`) plus the thread,
orientation, rule and operands.  Equal ids mean memories equal up to
per-variable timestamp relabelling, and the rules commute with such
relabellings ("Verifying C11 Programs Operationally", the argument the
canonical key rests on), so the first-seen memory's successor states
serve every later one with the same ids.  The memo stores each
successor pair's ``(γ'-id, β'-id)`` next to it, interned once on the
miss, so every edge :func:`successors` returns is a plain tuple
``(tid, component, action, target key, γ', β')`` whose key — the
source's thread ids with the stepping slot replaced, plus the stored
ids — is read off the memo entry, not derived from a target.

The explorer runs on keys alone: its frontier holds canonical keys, an
expansion reads its thread ids from the key and its memory pair from
the memo's one representative pair per ``(γ-id, β-id)``, and no target
configuration is built.  A configuration is built from its key
(:func:`~repro.semantics.config.keyed_config`) only when something
reads one.  Once the explorer has admitted an expansion's targets, the
memo swaps the states of the steps it stored for the representative
pairs, so it holds the visited states' own component states and no
duplicates of them.

Callers that want each target as a configuration and run no memo —
the naive-representation explorer, witness search, reconstruction and
replay (:mod:`repro.semantics.witness`) — call :func:`transitions`,
which builds every target eagerly, field by field, as a
:class:`Transition`, and interns no memory id: the naive explorer's
states are the unindexed reference, which the id tables must not
touch.  :func:`thread_successors` and the proof-rule checkers
(:mod:`repro.logic.triples`) step a thread through :func:`_run_step`,
which runs :func:`_thread_step` and the rule with no cache at all.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.footprints import (
    FP_EMPTY,
    Footprint,
    fp_union,
    thread_footprint,
)
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
from repro.semantics.canon import (
    _Interner,
    _component_id,
    _interner,
    _thread_id,
    canonical_key,
    component_ids,
    thread_ids,
)
from repro.semantics.config import Config
from repro.util.errors import SemanticsError
from repro.util.fmap import FMap


#: One edge as :func:`successors` returns it: ``(tid, component, action,
#: target key, γ', β')`` — ``tid`` steps, in component ``component``
#: ('C' for client steps, 'L' for library steps), with ``action`` (None
#: for a silent ε step), to the configuration of canonical key ``target
#: key`` on the memory pair ``(γ', β')``.
Edge = Tuple[
    str, str, Optional[Action], Tuple, ComponentState, ComponentState
]


class Transition:
    """One step of the combined semantics with its target built:
    ``tid`` steps, in component ``component``, with ``action`` (None
    for a silent ε step), to the configuration ``target``.

    What :func:`transitions` and :func:`thread_successors` return to
    callers that read targets; the explorer reads :data:`Edge` tuples
    and never builds one.  A slotted value class (matching the
    :class:`~repro.memory.actions.Op` treatment).
    """

    __slots__ = ("tid", "component", "action", "target")

    def __init__(
        self,
        tid: str,
        component: str,
        action: Optional[Action],
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

#: Internal: one visible step as the memo stores it —
#: (action, register value, γ', β', γ'-id, β'-id).
_MemoStep = Tuple[Action, Value, ComponentState, ComponentState, int, int]

class _Plan:
    """One thread state's step, as :func:`successors` caches it per
    thread id: the :func:`_thread_step` result plus, per register
    value, the successor thread state it leads to.

    ``rule`` is None for a silent step, whose one outcome leaves ``γ``
    and ``β`` as they are; ``ls`` is then the silent step's ``ls'`` and
    ``cont`` its ``cmd'``.  ``outcomes`` maps a register value to
    ``(cmd', ls', thread id, fused)``: the continuation and locals
    after the step — ε-closed under ``close``, with the number of
    silent steps the closure fused — and their interned id.
    """

    __slots__ = (
        "tid", "comp", "rule", "operands", "in_lib", "memo_tail", "reg",
        "cont", "ls", "outcomes",
    )

    def __init__(self, tid: str, ls: FMap, step: Tuple) -> None:
        self.tid = tid
        self.outcomes: Dict[Value, Tuple] = {}
        if len(step) == 3:
            self.comp, self.cont, self.ls = step
            self.rule = self.operands = self.in_lib = None
            self.memo_tail = self.reg = None
            return
        rule, operands, in_lib, reg, cont = step
        self.comp = _component(rule, in_lib)
        self.rule = rule
        self.operands = operands
        self.in_lib = in_lib
        self.memo_tail = (tid, in_lib, rule, operands)
        self.reg = reg
        self.cont = cont
        self.ls = ls

    def settle(self, value: Value, close, tables: _Interner) -> Tuple:
        """Work out and cache the outcome of register value ``value``."""
        ls2 = self.ls.set(self.reg, value) if self.reg else self.ls
        cmd2 = self.cont
        fused = 0
        if close is not None and cmd2 is not None:
            cmd2, ls2, fused = close(cmd2, ls2)
        tsid = _thread_id(tables, (self.tid, cmd2, ls2))
        outcome = self.outcomes[value] = (cmd2, ls2, tsid, fused)
        return outcome


#: The plan of a terminated thread: it has no step.
_DONE = object()

#: The covering-read prune's counter, replayed on a memo hit.
_PRUNED = "reduce.covering_pruned"


class StepMemo:
    """One exploration's visible-step memo (:func:`successors`).

    ``steps`` maps a rule application's key ``(γ-id, β-id, tid,
    orientation, rule, operands)`` to its entry: the ``(action, register
    value, γ', β', γ'-id, β'-id)`` of every step the rule returned, the
    successor pair's component ids interned once, on the miss that
    stores the entry, so a hit derives no id at all.  ``pruned`` maps the
    keys whose rule skipped covering-equivalent read candidates to how
    many it skipped (replayed into ``reduce.covering_pruned`` on a hit).

    ``pairs`` maps each ``(γ-id, β-id)`` of an admitted configuration
    to one representative ``(γ, β)`` pair, seeded with ``initial``'s:
    the explorer files an edge's ``(γ', β')`` there when it admits a
    new key whose ids have none, expands a key on the pair of its ids,
    and builds a configuration a caller reads on that pair.  A miss
    stores the rule's states as they are and files its entry in
    ``fresh``; :meth:`settle`, run once the explorer has admitted an
    expansion's targets, swaps each filed step's states for the
    representative of its ids.  Under ``off`` and the ε-closure every
    target is tested against the visited set, so every step's ids have
    a representative and the memo holds the visited set's own states
    and no duplicate of them; under dpor a step of a thread left
    outside every persistent set may lead to ids that are never
    admitted, and keeps the rule's states.
    """

    __slots__ = ("steps", "pruned", "pairs", "fresh")

    def __init__(self, program: Program, initial: Config) -> None:
        self.steps: Dict[Tuple, List[_MemoStep]] = {}
        self.pruned: Dict[Tuple, int] = {}
        self.pairs: Dict[
            Tuple[int, int], Tuple[ComponentState, ComponentState]
        ] = {component_ids(program, initial): (initial.gamma, initial.beta)}
        self.fresh: List[List[_MemoStep]] = []

    def settle(self) -> None:
        """Swap the states of the steps stored since the last call for
        the representatives of their ids."""
        pairs = self.pairs
        for steps in self.fresh:
            for i, step in enumerate(steps):
                pair = pairs.get((step[4], step[5]))
                if pair is not None:
                    steps[i] = (step[0], step[1], *pair, step[4], step[5])
        self.fresh.clear()


def _plan(plans: Dict, rows: List[Tuple], tsid: int, prune: bool):
    """The plan of thread id ``tsid`` in ``plans`` (one prune/closure
    mode's table), worked out from its thread row on first use."""
    plan = plans.get(tsid)
    if plan is None:
        tid, cmd, ls = rows[tsid]
        if cmd is None:
            plan = _DONE
        else:
            plan = _Plan(
                tid, ls,
                _thread_step(cmd, ls, False, FP_EMPTY if prune else None),
            )
        plans[tsid] = plan
    return plan


def _plans(tables: _Interner, prune: bool, close) -> Dict:
    """The plan table of one ``(prune, close)`` mode."""
    mode = (prune, close)
    plans = tables.plans.get(mode)
    if plans is None:
        plans = tables.plans[mode] = {}
    return plans


def successors(
    program: Program,
    state,
    prune: bool = False,
    close=None,
    memo: Optional[StepMemo] = None,
) -> List[Edge]:
    """All ``=⇒`` edges out of ``state`` across every thread, as
    :data:`Edge` tuples ``(tid, component, action, target key, γ', β')``.

    ``state`` is a configuration, or — what the explorer passes — a
    canonical key ``(scope, thread ids, γ-id, β-id)`` whose memory pair
    ``memo.pairs`` holds.

    ``prune=True`` enables the covering-read prune (sound only as part
    of the reduction layer; see :mod:`repro.semantics.reduce`).

    ``close``, when given, is the reduction layer's ε-closure
    ``(cmd, ls) -> (cmd', ls', fused)`` applied to each successor's
    stepping thread *before* its thread id is interned: silent chains
    touch only the continuation and locals by construction, so fusing
    them here yields each macro-step target's key directly.

    A thread's step depends only on its thread state ``(tid, cmd, ls)``
    and on the memory, so it is worked out once per thread id
    (:func:`~repro.semantics.canon.thread_ids`).  ``program``'s intern
    tables hold, per ``(prune, close)`` mode, each thread id's
    :class:`_Plan`: its :func:`_thread_step` result and, per register
    value, the successor thread state — its locals, its continuation
    (ε-closed under ``close``) and its id.  A repeated outcome replays
    the silent steps its closure fused into ``reduce.epsilon_fused``.
    A target key is ``state``'s thread ids with the stepping thread's
    slot replaced.

    ``memo`` is the exploration's visible-step memo: a
    :class:`StepMemo` the caller owns for one exploration of ``program``
    and passes to every call, with or without ``prune``/``close``; a
    call without one runs on a memo of its own.  Each visible rule
    application is keyed by the source's interned ``(γ-id, β-id)`` plus
    the thread, the component orientation, the rule and its evaluated
    operands, and a repeated key returns the stored successor component
    states and their ids instead of re-running the rule.  Ids are exact
    value identity, so the stored states are equal, up to per-variable
    timestamp relabelling, to the ones the rule would build; the rules
    commute with such relabellings, so every edge has the same label and
    the same target key as without the memo.  A hit also replays the
    read candidates the covering-read prune skipped into
    ``reduce.covering_pruned``.  A miss files its entry for
    :meth:`StepMemo.settle`.  No configuration is built.
    """
    tables = _interner(program)
    if type(state) is tuple:
        scope, ids, gid, bid = state
        gamma, beta = memo.pairs[(gid, bid)]
    else:
        scope, ids, gid, bid = canonical_key(program, state)
        gamma = state.gamma
        beta = state.beta
        if memo is None:
            memo = StepMemo(program, state)
    rows = tables.rows
    plans = _plans(tables, prune, close)
    memo_steps = memo.steps
    active = _metrics._ACTIVE
    out: List[Edge] = []
    append = out.append
    for i, tid in enumerate(program.tids):
        plan = plans.get(ids[i])
        if plan is None:
            plan = _plan(plans, rows, ids[i], prune)
        if plan is _DONE:
            continue
        rule = plan.rule
        if rule is None:
            steps = ((None, None, gamma, beta, gid, bid),)
        else:
            key = (gid, bid, *plan.memo_tail)
            steps = memo_steps.get(key)
            if steps is None:
                if prune and active is not None:
                    pruned = active.counters.get(_PRUNED, 0)
                steps = memo_steps[key] = [
                    (
                        action, value, g2, b2,
                        _component_id(tables, g2, b2),
                        _component_id(tables, b2, g2),
                    )
                    for action, value, g2, b2 in rule(
                        program, gamma, beta, tid, plan.in_lib,
                        *plan.operands,
                    )
                ]
                if active is not None:
                    if prune:
                        pruned = active.counters.get(_PRUNED, 0) - pruned
                        if pruned:
                            memo.pruned[key] = pruned
                    active.inc("explore.memo.entries")
                if steps:
                    memo.fresh.append(steps)
            elif prune and active is not None:
                pruned = memo.pruned.get(key)
                if pruned:
                    active.inc(_PRUNED, pruned)
            if active is not None:
                active.inc("explore.memo.lookups")
        comp = plan.comp
        outcomes = plan.outcomes
        head = ids[:i]
        tail = ids[i + 1:]
        for action, value, g2, b2, gid2, bid2 in steps:
            outcome = outcomes.get(value)
            if outcome is None:
                outcome = plan.settle(value, close, tables)
            elif outcome[3] and active is not None:
                active.inc("reduce.epsilon_fused", outcome[3])
            append((
                tid, comp, action,
                (scope, head + (outcome[2],) + tail, gid2, bid2), g2, b2,
            ))
    return out


def transitions(
    program: Program, cfg: Config, prune: bool = False, close=None
) -> List[Transition]:
    """The edges of :func:`successors` out of configuration ``cfg``
    (same order, same ``prune``/``close`` modes) as :class:`Transition`
    objects whose targets are built at once, field by field, for callers
    that read every target: witness search and replay, the
    naive-representation explorer.  Runs no memo and interns no memory
    id; each target arrives with its thread ids."""
    tables = _interner(program)
    scope = tables.scope
    rows = tables.rows
    plans = _plans(tables, prune, close)
    ids = thread_ids(program, cfg)
    gamma = cfg.gamma
    beta = cfg.beta
    active = _metrics._ACTIVE
    out: List[Transition] = []
    for i, tid in enumerate(program.tids):
        plan = _plan(plans, rows, ids[i], prune)
        if plan is _DONE:
            continue
        if plan.rule is None:
            steps = ((None, None, gamma, beta),)
        else:
            steps = plan.rule(
                program, gamma, beta, tid, plan.in_lib, *plan.operands
            )
        head = ids[:i]
        tail = ids[i + 1:]
        for action, value, g2, b2 in steps:
            outcome = plan.outcomes.get(value)
            if outcome is None:
                outcome = plan.settle(value, close, tables)
            elif outcome[3] and active is not None:
                active.inc("reduce.epsilon_fused", outcome[3])
            target = Config(
                cfg.cmds.set(tid, outcome[0]),
                cfg.locals.set(tid, outcome[1]),
                g2, b2,
            )
            object.__setattr__(
                target, "_thread_ids", (scope, head + (outcome[2],) + tail)
            )
            out.append(Transition(tid, plan.comp, action, target))
    return out


def thread_successors(
    program: Program, cfg: Config, tid: str
) -> Iterator[Transition]:
    """Successors contributed by thread ``tid`` (always unpruned — the
    covering-read prune is only sound composed with the ε-closure, so
    it is reachable solely through ``successors(prune=True)`` inside
    the reduction layer).  Worked out afresh, with no cache."""
    cmd = cfg.cmds[tid]
    if cmd is None:
        return
    for action, comp, cmd2, ls2, gamma2, beta2 in _run_step(
        program, cmd, tid, cfg.locals[tid], cfg.gamma, cfg.beta
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


def _collapse_ok(var: str, rest: Optional[Footprint]) -> bool:
    """Whether the covering-read prune applies to a read of ``var``.

    ``rest`` is the footprint of the thread's continuation beyond the
    read (:func:`~repro.analysis.footprints.thread_footprint`).  True
    when it can neither access ``var`` again (so the advanced viewfront
    is never consulted) nor publish its view map: it has no write or
    update and is not ⊤ (write/update/method steps record the stepping
    thread's whole view map in new operations' modification views, so
    any of them can export an otherwise-dead viewfront entry).  Under
    that condition the only successor difference between same-value,
    non-synchronising read choices is an unobservable viewfront entry —
    the states are covering-equivalent.
    """
    if rest is None:
        return False
    reads, writes, top = rest
    return not top and not writes and all(v != var for _c, v in reads)


def _thread_step(
    cmd: A.Node, ls: FMap, in_lib: bool, rest: Optional[Footprint]
) -> Tuple:
    """The step of one thread whose continuation is ``cmd``: a function
    of ``(cmd, ls)`` and the orientation alone, never of the memory.

    Returns the silent step ``(comp, cmd', ls')`` (:func:`silent_step`)
    when there is one.  Otherwise ``cmd``'s head is a visible command,
    and the result is its plan ``(rule, operands, in_lib, reg,
    continuation)``: the rule to run against the memory, its evaluated
    operands, the orientation at the head (inside a ``LibBlock`` it is
    a library step), the register the rule's value binds (None for a
    write), and the ``Seq``/``Labeled``/``LibBlock`` spine rebuilt
    around the finished head — the continuation of every outcome of
    the rule.

    ``rest`` is the covering-read prune context: None disables the
    prune (the default, byte-identical to the historical semantics); a
    footprint carries what the *rest of the thread* beyond ``cmd`` may
    still touch, extended through the ``Seq`` descent.
    """
    silent = silent_step(cmd, ls, in_lib)
    if silent is not None:
        return silent

    spine = []
    while True:
        if isinstance(cmd, A.Seq):
            if rest is not None:
                rest = fp_union(thread_footprint(cmd.second), rest)
            spine.append(cmd)
            cmd = cmd.first
        elif isinstance(cmd, A.LibBlock):
            in_lib = True
            spine.append(cmd)
            cmd = cmd.body
        elif isinstance(cmd, A.Labeled):
            spine.append(cmd)
            cmd = cmd.body
        else:
            break

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
    else:
        raise SemanticsError(f"cannot step command: {cmd!r}")

    cont = None
    for node in reversed(spine):
        if isinstance(node, A.Seq):
            cont = A.seq_cons(cont, node.second)
        elif cont is None:
            pass  # a finished Labeled/LibBlock body finishes the wrapper
        elif isinstance(node, A.LibBlock):
            cont = A.LibBlock(cont, node.public_regs)
        else:
            cont = A.Labeled(node.label, cont)
    return rule, operands, in_lib, reg, cont


def _component(rule, in_lib: bool) -> str:
    """The component tag of a visible step: abstract method calls are
    library transitions wherever they occur."""
    return "L" if in_lib or rule is _method_rule else "C"


def _run_step(
    program: Program,
    cmd: A.Node,
    tid: str,
    ls: FMap,
    gamma: ComponentState,
    beta: ComponentState,
) -> List[_ThreadStep]:
    """Every ``(action, comp, cmd', ls', γ', β')`` of thread ``tid``
    running ``cmd`` from locals ``ls`` and memory ``(γ, β)``, unpruned
    and worked out afresh through :func:`_thread_step`, with no cache."""
    step = _thread_step(cmd, ls, False, None)
    if len(step) == 3:
        comp, cmd2, ls2 = step
        return [(None, comp, cmd2, ls2, gamma, beta)]
    rule, operands, in_lib, reg, cont = step
    comp = _component(rule, in_lib)
    return [
        (action, comp, cont, ls.set(reg, value) if reg else ls, g2, b2)
        for action, value, g2, b2 in rule(
            program, gamma, beta, tid, in_lib, *operands
        )
    ]


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
