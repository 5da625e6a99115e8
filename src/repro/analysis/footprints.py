"""Phase-sensitive footprint summaries feeding DPOR's conflict graph.

The footprint algebra (``(reads, writes, top)`` over ``(component,
variable)`` locations) lives here together with a small abstract
interpreter that refines :func:`repro.semantics.dpor.thread_footprint`
in two ways the whole-continuation recursion cannot express:

* **flow sensitivity** — the interpreter threads an environment of
  *exactly-known* register values (seeded from the thread's concrete
  local state, so every entry is exact, not abstract) and uses it to
  constant-fold branch conditions: an ``If`` whose condition evaluates
  under the environment contributes only the taken branch, so locations
  touched exclusively by statically-dead code drop out of the summary;
* **phase sensitivity** — because DPOR calls it per thread state, on
  the *remaining* continuation with the *current* locals, the
  summary shrinks as execution advances: a mode register read in an
  earlier phase resolves the conditionals of later phases.

Soundness: environment entries are exact values of the thread's local
state, so a folded condition evaluates exactly as ``silent_step``
would — an eliminated branch is truly unreachable from this
configuration.  Registers whose value is not certain (assigned from a
read, an update, a method, or inside a loop body) are dropped from the
environment, falling back to the whole-continuation union.  Hence the
result always over-approximates the locations any execution of the
continuation may still touch — the contract DPOR's persistent-set
argument needs — while staying a subset of the whole-continuation
footprint.

Nothing here is memoised.  A thread's phase footprint is a function of
its thread state ``(tid, cmd, ls)``, so DPOR keeps one per thread id in
the program's intern tables (:mod:`repro.semantics.canon`) and the
interpreter runs once per thread state, not once per configuration.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Mapping, Optional, Tuple

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
from repro.lang.walk import assigned_register, fold

# -- footprint algebra -------------------------------------------------------

#: ``(reads, writes, top)`` over ``(component, variable)`` locations;
#: ``top`` is the ⊤ element (may touch anything — ``MethodCall`` and
#: unknown nodes).
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


# -- the phase-sensitive interpreter -----------------------------------------

_Env = Dict[str, Value]


def _without(env: _Env, reg: Optional[str]) -> _Env:
    if reg is None or reg not in env:
        return env
    out = dict(env)
    del out[reg]
    return out


def _without_many(env: _Env, regs: frozenset) -> _Env:
    if not regs:
        return env
    return {r: v for r, v in env.items() if r not in regs}


def _analyse(
    node: A.Com, env: _Env, in_lib: bool
) -> Tuple[Footprint, _Env]:
    if node is None:
        return FP_EMPTY, env
    comp = "L" if in_lib else "C"
    if isinstance(node, A.LocalAssign):
        known, value = try_eval(node.expr, env)
        if known:
            out = dict(env)
            out[node.reg] = value
            return FP_EMPTY, out
        return FP_EMPTY, _without(env, node.reg)
    if isinstance(node, A.Read):
        fp = (frozenset(((comp, node.var),)), frozenset(), False)
        return fp, _without(env, node.reg)
    if isinstance(node, A.Write):
        return (frozenset(), frozenset(((comp, node.var),)), False), env
    if isinstance(node, (A.Cas, A.Fai)):
        loc = frozenset(((comp, node.var),))
        return (loc, loc, False), _without(env, node.reg)
    if isinstance(node, A.MethodCall):
        return FP_TOP, _without(env, node.dest)
    if isinstance(node, A.Seq):
        fp1, env1 = _analyse(node.first, env, in_lib)
        fp2, env2 = _analyse(node.second, env1, in_lib)
        return fp_union(fp1, fp2), env2
    if isinstance(node, A.If):
        known, value = try_eval(node.cond, env)
        if known:
            branch = node.then_branch if value else node.else_branch
            return _analyse(branch, env, in_lib)
        fp_t, env_t = _analyse(node.then_branch, env, in_lib)
        fp_e, env_e = _analyse(node.else_branch, env, in_lib)
        joined = {
            r: v for r, v in env_t.items() if r in env_e and env_e[r] == v
        }
        return fp_union(fp_t, fp_e), joined
    if isinstance(node, A.While):
        known, value = try_eval(node.cond, env)
        if known and not value:
            return FP_EMPTY, env
        # Iterations beyond the first see body-assigned registers with
        # unknown values: weaken the environment before summarising,
        # which both over-approximates every iteration and is the
        # post-loop environment.
        env_w = _without_many(env, assigned_registers(node.body))
        fp, _ignored = _analyse(node.body, env_w, in_lib)
        return fp, env_w
    if isinstance(node, A.Labeled):
        return _analyse(node.body, env, in_lib)
    if isinstance(node, A.LibBlock):
        return _analyse(node.body, env, True)
    return FP_TOP, {}


def phase_footprint(
    cmd: A.Com, ls: Mapping[str, Value], in_lib: bool = False
) -> Footprint:
    """The footprint of every execution of ``cmd`` starting from the
    concrete local state ``ls`` — a subset of
    :func:`repro.semantics.dpor.thread_footprint` with statically-dead
    branches removed."""
    if cmd is None:
        return FP_EMPTY
    fp, _env = _analyse(cmd, dict(ls.items()), in_lib)
    return fp
