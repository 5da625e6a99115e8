"""The footprint algebra and the flow walk the analysis passes share.

The algebra is ``(reads, writes, top)`` over ``(component, variable)``
locations.  :func:`thread_footprint` folds it over every execution of a
continuation: branches union and loops summarise their bodies.  DPOR's
conflict graph (:mod:`repro.semantics.dpor`) and the covering-read
prune (:mod:`repro.semantics.step`) read it.

:func:`walk_flow` is the one walk over the nodes an execution can
reach.  It threads an environment of *exactly-known* register values
(seeded from a concrete local state, so every entry is exact, not
abstract) and constant-folds branch conditions under it: an ``If``
whose condition evaluates walks only the taken branch, and a ``While``
whose condition is false is not entered.  Each pass is a visitor on it:

* :func:`phase_footprint` refines :func:`thread_footprint` in two ways
  the whole-continuation fold cannot express.  It is *flow sensitive*:
  locations touched only by statically-dead code drop out.  It is
  *phase sensitive*: DPOR calls it per thread state, on the remaining
  continuation with the current locals, so the summary shrinks as
  execution advances (a mode register read in an earlier phase
  resolves the conditionals of later phases);
* lint's flow pass (:mod:`repro.analysis.lint`) reports the
  unreachable branches and silent loops it meets;
* the race detector (:mod:`repro.analysis.races`) records the accesses
  and forced awaits it reaches, in program order.

Soundness: environment entries are exact values of the thread's local
state, so a folded condition evaluates exactly as ``silent_step``
would — an eliminated branch is truly unreachable from this
configuration.  Registers whose value is not certain (assigned from a
read, an update, a method, or inside a loop body) are dropped from the
environment.  Hence a phase footprint always over-approximates the
locations any execution of the continuation may still touch — the
contract DPOR's persistent-set argument needs — while staying a subset
of the whole-continuation footprint.

Nothing here is memoised.  A thread's footprints are functions of its
thread state ``(tid, cmd, ls)``, so DPOR keeps one per thread id in the
program's intern tables (:mod:`repro.semantics.canon`) and the walk
runs once per thread state, not once per configuration.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, List, Mapping, Optional, Tuple

from repro.lang import ast as A
from repro.lang.expr import (
    _BIN_OPS,
    _UN_OPS,
    BinOp,
    Expr,
    Lit,
    Reg,
    UnOp,
    Value,
)
from repro.lang.walk import assigned_register, children, fold, iter_nodes

# -- footprint algebra -------------------------------------------------------

#: ``(reads, writes, top)`` over ``(component, variable)`` locations;
#: ``top`` is the ⊤ element (may touch anything — ``MethodCall``).
Footprint = Tuple[FrozenSet, FrozenSet, bool]

FP_EMPTY: Footprint = (frozenset(), frozenset(), False)
FP_TOP: Footprint = (frozenset(), frozenset(), True)


def fp_union(a: Footprint, b: Footprint) -> Footprint:
    if a[2] or b[2]:
        return FP_TOP
    if a is FP_EMPTY:
        return b
    if b is FP_EMPTY:
        return a
    return a[0] | b[0], a[1] | b[1], False


def fp_conflict(a: Footprint, b: Footprint) -> bool:
    """Whether two footprints may touch a common location with at least
    one write (⊤ conflicts with everything)."""
    if a[2] or b[2]:
        return True
    ra, wa, _ = a
    rb, wb, _ = b
    return bool(wa & (rb | wb)) or bool(wb & ra)


# -- constant evaluation -----------------------------------------------------


class _Unknown(Exception):
    """Raised inside :func:`try_eval` when a register is not known."""


def _ev(expr: Expr, env: Mapping[str, Value]) -> Value:
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, Reg):
        try:
            return env[expr.name]
        except KeyError:
            raise _Unknown from None
    if isinstance(expr, UnOp):
        return _UN_OPS[expr.op](_ev(expr.operand, env))
    if isinstance(expr, BinOp):
        return _BIN_OPS[expr.op](_ev(expr.left, env), _ev(expr.right, env))
    raise _Unknown


def try_eval(
    expr: Expr, env: Mapping[str, Value]
) -> Tuple[bool, Optional[Value]]:
    """``(True, value)`` when ``expr`` evaluates under the known-register
    environment ``env``; ``(False, None)`` otherwise.

    Unknown operators and type errors also yield unknown — operationally
    they stick the thread, so any over-approximation is sound.
    """
    try:
        return True, _ev(expr, env)
    except _Unknown:
        return False, None
    except Exception:
        return False, None


# -- per-node register summaries ---------------------------------------------


def _assigned_regs_fold(node, in_lib, child_values) -> frozenset:
    if node is None:
        return frozenset()
    reg = assigned_register(node)
    acc = frozenset({reg}) if reg is not None else frozenset()
    for value in child_values:
        acc |= value
    return acc


def assigned_registers(cmd: A.Com) -> frozenset:
    """Registers any execution of ``cmd`` may assign."""
    return fold(cmd, _assigned_regs_fold)


#: Nodes whose execution is a visible (non-ε) transition.
_VISIBLE = (A.Read, A.Write, A.Cas, A.Fai, A.MethodCall)


def visible_nodes(cmd: A.Com) -> List[A.Node]:
    """The nodes of ``cmd`` whose execution is a visible transition, in
    pre-order."""
    return [v.node for v in iter_nodes(cmd) if isinstance(v.node, _VISIBLE)]


# -- whole-continuation footprints -------------------------------------------


def _fp_fold(node: Optional[A.Node], in_lib: bool, child_values) -> Footprint:
    if node is None:
        return FP_EMPTY
    comp = "L" if in_lib else "C"
    if isinstance(node, A.LocalAssign):
        return FP_EMPTY
    if isinstance(node, A.Read):
        return (frozenset(((comp, node.var),)), frozenset(), False)
    if isinstance(node, A.Write):
        return (frozenset(), frozenset(((comp, node.var),)), False)
    if isinstance(node, (A.Cas, A.Fai)):
        loc = frozenset(((comp, node.var),))
        return (loc, loc, False)
    if isinstance(node, A.MethodCall):
        return FP_TOP  # abstract methods have arbitrary footprints
    # Seq/If/While/Labeled/LibBlock: union over children (a LibBlock's
    # body was already folded with the library component flag).
    acc: Footprint = FP_EMPTY
    for value in child_values:
        acc = fp_union(acc, value)
    return acc


def thread_footprint(
    cmd: Optional[A.Node], in_lib: bool = False
) -> Footprint:
    """The footprint of every possible execution of ``cmd``.

    Conservative over all executions: branches union, loops summarise
    their bodies; ``Cas``/``Fai`` both read and write their location;
    commands inside a ``LibBlock`` touch ``'L'`` locations.
    """
    return fold(cmd, _fp_fold, in_lib=in_lib)


# -- the flow walk -----------------------------------------------------------

#: ``visit(node, env, in_lib, path, depth)``: called on each reached
#: node, before its children, with the environment on entry to it.  A
#: callable it returns is called once the node's subtree is walked.
FlowVisit = Callable[..., Optional[Callable[[], None]]]


def walk_flow(
    node: A.Com,
    env: Mapping[str, Value],
    visit: FlowVisit,
    in_lib: bool = False,
    path: Tuple[str, ...] = (),
    depth: int = 0,
) -> Mapping[str, Value]:
    """Walk the nodes of ``node`` that an execution from a local state
    agreeing with ``env`` may reach, threading the environment of
    exactly-known register values; returns the post-state environment.

    ``If``/``While`` conditions that evaluate under the environment are
    folded: only the taken branch is walked, and a loop whose condition
    is false is not entered.  An undecided ``If`` walks both arms and
    keeps the registers they agree on; a loop body is walked once under
    the entry environment minus every register the body assigns, which
    over-approximates every iteration and is the post-loop environment.
    ``path`` is the field path from the root (as in
    :func:`repro.lang.walk.iter_nodes`); ``depth`` counts the undecided
    ``If`` arms and loop bodies around a node (0 = top level).  The
    ``env`` mappings handed to ``visit`` are never mutated.  Raises
    :class:`TypeError` on objects outside the AST.
    """
    if node is None:
        return env
    after = visit(node, env, in_lib, path, depth)
    if isinstance(node, (A.Seq, A.Labeled, A.LibBlock)):
        child_lib = in_lib or isinstance(node, A.LibBlock)
        for field, child in children(node):
            env = walk_flow(
                child, env, visit, child_lib, path + (field,), depth
            )
    elif isinstance(node, A.If):
        known, value = try_eval(node.cond, env)
        if known:
            field = "then_branch" if value else "else_branch"
            env = walk_flow(
                getattr(node, field), env, visit, in_lib, path + (field,),
                depth,
            )
        else:
            env_t = walk_flow(
                node.then_branch, env, visit, in_lib,
                path + ("then_branch",), depth + 1,
            )
            env_e = walk_flow(
                node.else_branch, env, visit, in_lib,
                path + ("else_branch",), depth + 1,
            )
            env = {
                r: v for r, v in env_t.items()
                if r in env_e and env_e[r] == v
            }
    elif isinstance(node, A.While):
        known, value = try_eval(node.cond, env)
        if value or not known:
            body_assigns = assigned_registers(node.body)
            env = {r: v for r, v in env.items() if r not in body_assigns}
            walk_flow(
                node.body, env, visit, in_lib, path + ("body",), depth + 1
            )
    elif isinstance(node, A.LocalAssign):
        known, value = try_eval(node.expr, env)
        env = dict(env)
        if known:
            env[node.reg] = value
        else:
            env.pop(node.reg, None)
    else:
        children(node)  # a leaf; raises TypeError for unknown nodes
        reg = assigned_register(node)
        if reg in env:
            env = dict(env)
            del env[reg]
    if after is not None:
        after()
    return env


# -- phase footprints --------------------------------------------------------


def phase_footprint(
    cmd: A.Com, ls: Mapping[str, Value], in_lib: bool = False
) -> Footprint:
    """The footprint of every execution of ``cmd`` starting from the
    concrete local state ``ls``: the leaves :func:`walk_flow` reaches
    from ``ls``, a subset of :func:`thread_footprint` with
    statically-dead branches removed."""
    acc = [FP_EMPTY]

    def visit(node, env, in_lib, path, depth):
        acc[0] = fp_union(acc[0], _fp_fold(node, in_lib, ()))

    walk_flow(cmd, dict(ls.items()), visit, in_lib)
    return acc[0]
