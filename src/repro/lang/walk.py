"""Generic traversal over the command AST (:mod:`repro.lang.ast`).

Every consumer that used to hand-roll the same structural recursion —
register collection in ``ast.py``, label search in ``labels.py``,
footprint summaries, and the whole static analysis layer
(:mod:`repro.analysis`) — walks the tree through three primitives
instead, so the node shape table lives in exactly one place:

:func:`iter_nodes`
    a pre-order generator yielding ``(node, path, in_lib)`` visits —
    ``path`` is the tuple of dataclass field names from the root (the
    stable "node path" of lint diagnostics) and ``in_lib`` flags
    :class:`~repro.lang.ast.LibBlock` regions;
:func:`fold`
    a bottom-up combinator ``fn(node, in_lib, child_values)`` with full
    control at every node (a ``LibBlock`` can subtract its
    ``public_regs``, a ``Labeled`` can ignore its children);
:func:`repro.analysis.footprints.walk_flow`
    the flow walk: only the nodes an execution from a given local state
    can reach, each visited with the environment of exactly-known
    register values on entry to it (it lives with the constant
    evaluator it folds conditions with).

All treat ``None`` (the terminated command ``⊥``) as the empty tree.
"""

from __future__ import annotations

from typing import (
    Callable,
    Iterator,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
    Type,
)

from repro.lang.ast import (
    Cas,
    Com,
    Fai,
    If,
    Labeled,
    LibBlock,
    LocalAssign,
    MethodCall,
    Node,
    Read,
    Seq,
    While,
    Write,
)
from repro.lang.expr import Expr

#: Child field names per interior node type; leaves are absent.
CHILD_FIELDS: Mapping[Type[Node], Tuple[str, ...]] = {
    Seq: ("first", "second"),
    If: ("then_branch", "else_branch"),
    While: ("body",),
    Labeled: ("body",),
    LibBlock: ("body",),
}

#: Expression field names per node type (nodes without expressions are
#: absent).  ``MethodCall.arg`` may be ``None`` and is skipped then.
EXPR_FIELDS: Mapping[Type[Node], Tuple[str, ...]] = {
    LocalAssign: ("expr",),
    Write: ("expr",),
    Cas: ("expect", "new"),
    MethodCall: ("arg",),
    If: ("cond",),
    While: ("cond",),
}

_LEAVES = (LocalAssign, Write, Read, Cas, Fai, MethodCall)


def children(node: Node) -> Tuple[Tuple[str, Com], ...]:
    """``(field_name, child)`` pairs of ``node``, in evaluation order.

    ``None`` children (an absent ``else`` branch) are included so that
    positions stay stable; leaves return ``()``.  Raises
    :class:`TypeError` on objects outside the AST, mirroring the strict
    recursions this module replaced.
    """
    fields = CHILD_FIELDS.get(type(node))
    if fields is None:
        if isinstance(node, _LEAVES):
            return ()
        raise TypeError(f"unknown command node: {node!r}")
    return tuple((f, getattr(node, f)) for f in fields)


def node_exprs(node: Node) -> Tuple[Expr, ...]:
    """The expressions evaluated directly by ``node`` (no descent)."""
    fields = EXPR_FIELDS.get(type(node))
    if fields is None:
        return ()
    return tuple(
        e for e in (getattr(node, f) for f in fields) if e is not None
    )


def assigned_register(node: Node) -> Optional[str]:
    """The register ``node`` writes, or ``None``.

    ``LocalAssign``/``Read``/``Cas``/``Fai`` bind their ``reg``;
    ``MethodCall`` binds its optional ``dest``.
    """
    if isinstance(node, (LocalAssign, Read, Cas, Fai)):
        return node.reg
    if isinstance(node, MethodCall):
        return node.dest
    return None


class NodeVisit(NamedTuple):
    """One pre-order visit: the node, its field path from the root, and
    whether it lies inside a ``LibBlock`` region."""

    node: Node
    path: Tuple[str, ...]
    in_lib: bool


def iter_nodes(cmd: Com, in_lib: bool = False) -> Iterator[NodeVisit]:
    """Pre-order traversal of ``cmd`` (empty for a terminated ``None``)."""
    if cmd is None:
        return
    stack = [NodeVisit(cmd, (), in_lib)]
    while stack:
        visit = stack.pop()
        yield visit
        child_lib = visit.in_lib or isinstance(visit.node, LibBlock)
        for field, child in reversed(children(visit.node)):
            if child is not None:
                stack.append(
                    NodeVisit(child, visit.path + (field,), child_lib)
                )


def format_path(path: Tuple[str, ...]) -> str:
    """Render a node path for diagnostics (the root is ``<body>``)."""
    return ".".join(path) if path else "<body>"


def fold(cmd: Com, fn: Callable, in_lib: bool = False):
    """Bottom-up reduction of ``cmd``: ``fn(node, in_lib, child_values)``.

    ``child_values`` holds one value per :func:`children` entry (a
    ``None`` child folds through ``fn(None, in_lib, ())``, so ``fn``
    sees the terminated command exactly once per absent branch).
    ``in_lib`` flips to ``True`` below a ``LibBlock`` — the block node
    itself is folded with the *outer* flag, its body with the inner
    one, which is what lets ``fn`` scope ``public_regs`` subtraction.

    Nothing is memoised: a fact that is hot per thread state is kept
    per thread id in the program's intern tables
    (:class:`repro.semantics.canon._Interner`), not per node here.
    """
    if cmd is None:
        return fn(None, in_lib, ())
    child_lib = in_lib or isinstance(cmd, LibBlock)
    values = tuple(
        fold(child, fn, child_lib) for _field, child in children(cmd)
    )
    return fn(cmd, in_lib, values)
