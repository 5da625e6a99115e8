"""Command syntax ``ACom``/``Com`` from Figure 4 of the paper.

All nodes are immutable (frozen dataclasses) so that continuations can be
stored inside hashable configurations.  A *terminated* command is
represented by ``None`` (the paper's ``⊥``): ``Seq`` stepping collapses a
finished first component, and a thread whose whole continuation is
``None`` has terminated.

Two nodes go beyond the paper's surface grammar but implement its
semantics directly:

* :class:`MethodCall` — an abstract method call ``o.m([u])`` occupying a
  hole.  Its execution is a *library* transition governed by the abstract
  object semantics (paper Section 4, rule ``Lib`` in Figure 4).
* :class:`LibBlock` — a hole filled with a concrete implementation
  (``• ::= Com``).  Every global access inside executes against the
  library state ``β`` and is tagged as a library step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.lang.expr import Expr, Lit, UnOp

#: A command is an AST node or ``None`` (terminated, the paper's ``⊥``).
Com = Optional["Node"]

#: Labels are small ints or strings; used for proof-outline program counters.
Label = Union[int, str]


@dataclass(frozen=True)
class Node:
    """Base class for command AST nodes."""


@dataclass(frozen=True)
class LocalAssign(Node):
    """``r := E`` — a silent (ε) step updating a local register."""

    reg: str
    expr: Expr


@dataclass(frozen=True)
class Write(Node):
    """``x :=[R] E`` — a relaxed or releasing write to a global variable."""

    var: str
    expr: Expr
    release: bool = False


@dataclass(frozen=True)
class Read(Node):
    """``r ←[A] x`` — a relaxed or acquiring read of a global variable."""

    reg: str
    var: str
    acquire: bool = False


@dataclass(frozen=True)
class Cas(Node):
    """``r ← CAS(x, u, v)^RA``.

    Success performs an acquiring-releasing update ``updRA(x, u, v)`` and
    sets ``r := true``; failure is a relaxed read of a value ``≠ u`` and
    sets ``r := false`` (paper Figure 4).  ``expect``/``new`` are local
    expressions, evaluated at step time — the sequence lock's
    ``CAS(glb, r, r + 1)`` needs register operands.
    """

    reg: str
    var: str
    expect: Expr
    new: Expr


@dataclass(frozen=True)
class Fai(Node):
    """``r ← FAI(x)^RA`` — fetch-and-increment, an update ``updRA(x, u, u+1)``."""

    reg: str
    var: str


@dataclass(frozen=True)
class MethodCall(Node):
    """Abstract method call ``o.m([u])``, optionally binding its result.

    ``dest`` receives the method's return value (a popped element, a lock
    version).  Execution is a single *library* transition defined by the
    abstract object registered under ``obj``.
    """

    obj: str
    method: str
    arg: Optional[Expr] = None
    dest: Optional[str] = None


@dataclass(frozen=True)
class Seq(Node):
    """``Com; Com``."""

    first: Node
    second: Node


@dataclass(frozen=True)
class If(Node):
    """``if B then C1 else C2`` with a local condition ``B``."""

    cond: Expr
    then_branch: Com
    else_branch: Com = None


@dataclass(frozen=True)
class While(Node):
    """``while B do C`` with a local condition ``B``."""

    cond: Expr
    body: Node


@dataclass(frozen=True)
class LibBlock(Node):
    """A hole filled with a concrete library implementation.

    All global accesses in ``body`` target the library state ``β`` and are
    tagged as library steps (the ``Lib`` rule of Figure 4).  Registers
    written inside are library-local (``LVar_L``), *except* those named in
    ``public_regs``: an implementation whose method returns a value binds
    the client-visible result register at its linearization step —
    mirroring the abstract semantics, where the return value is bound
    atomically with the method transition (paper Example 1:
    ``ls' = ls[rval := true]``).
    """

    body: Node
    public_regs: frozenset = frozenset()


@dataclass(frozen=True)
class Labeled(Node):
    """A command carrying a proof-outline label (program counter value).

    The label is retained while the wrapped command executes, so a label
    wrapping a loop or an inlined method body denotes the whole region —
    exactly how Figures 3 and 7 of the paper annotate statements.
    """

    label: Label
    body: Node


def seq(*cmds: Com) -> Com:
    """Right-nested sequencing of commands, skipping ``None`` entries."""
    result: Com = None
    for cmd in reversed(cmds):
        if cmd is None:
            continue
        result = cmd if result is None else Seq(cmd, result)
    return result


def do_until(body: Node, cond: Expr) -> Node:
    """``do C until B``  ≡  ``C; while ¬B do C`` (paper §3.1)."""
    return Seq(body, While(UnOp("not", cond), body))


def skip() -> Node:
    """A no-op command (an ε local step); useful in tests."""
    return LocalAssign("__skip__", Lit(0))


def seq_cons(first: Com, second: Node) -> Node:
    """Rebuild a sequence after the first component stepped.

    Implements the rule ``(v; C2, ls) −ε→ (C2, ls)``: when the first
    component has terminated (``None``), the continuation is ``second``.
    """
    if first is None:
        return second
    return Seq(first, second)


_NO_REGS: frozenset = frozenset()


def _lib_regs_fold(node: Com, in_lib: bool, child_values) -> frozenset:
    if node is None:
        return _NO_REGS
    if isinstance(node, (LocalAssign, Read, Cas, Fai)):
        return frozenset({node.reg}) if in_lib else _NO_REGS
    acc = _NO_REGS
    for value in child_values:
        acc |= value
    if isinstance(node, LibBlock):
        # Scoped subtraction: only *this* block's public registers are
        # client-visible; an enclosing block's privacy is unaffected.
        return acc - node.public_regs
    return acc


def library_registers(cmd: Com) -> frozenset:
    """Registers assigned inside ``LibBlock`` regions of ``cmd``.

    These constitute ``LVar_L``; the client trace projection (paper §6.1)
    removes them from local states.
    """
    from repro.lang.walk import fold  # walk imports this module

    return fold(cmd, _lib_regs_fold)
