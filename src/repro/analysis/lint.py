"""The lint pass: structural and flow-sensitive well-formedness checks.

Codes (see the README pass table):

``unbound-register`` (error)
    an expression reads a register that no node of the thread assigns
    and ``init_locals`` does not seed — :func:`~repro.lang.expr.eval_expr`
    raises :class:`~repro.util.errors.SemanticsError` the moment it runs;
``silent-loop`` (error)
    a ``While`` whose body performs no global access or method call and
    never assigns a condition register — once entered with the
    condition true it ε-diverges, which wedges the closure reduction's
    silent-chain fusion;
``dead-write`` (warning)
    a global location written (or updated) somewhere but read nowhere
    in the whole program;
``unreachable-branch`` (warning)
    an ``If`` branch or ``While`` body made unreachable by a condition
    that constant-folds under the flow environment (exactly-known
    register values propagated from ``init_locals`` through straight-
    line ``LocalAssign``s);
``duplicate-label`` (warning)
    two ``Labeled`` nodes of one thread carry the same label, making
    proof-outline program counters ambiguous;
``register-shadow`` (warning)
    a register assigned by a thread's client code is also assigned as a
    library-*private* register inside one of its ``LibBlock`` regions —
    the client trace projection (paper §6.1) will strip the client's
    own binding.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.analysis.diagnostics import (
    ERROR,
    WARNING,
    AnalysisReport,
    Diagnostic,
)
from repro.analysis.footprints import (
    assigned_registers,
    try_eval,
    visible_nodes,
    walk_flow,
)
from repro.lang import ast as A
from repro.lang.expr import registers_of
from repro.lang.program import Program
from repro.lang.walk import assigned_register, iter_nodes, node_exprs

UNBOUND_REGISTER = "unbound-register"
SILENT_LOOP = "silent-loop"
DEAD_WRITE = "dead-write"
UNREACHABLE_BRANCH = "unreachable-branch"
DUPLICATE_LABEL = "duplicate-label"
REGISTER_SHADOW = "register-shadow"

def lint_program(program: Program) -> AnalysisReport:
    """All lint findings of ``program`` (race detection is separate —
    see :func:`repro.analysis.races.detect_races`)."""
    out: List[Diagnostic] = []
    reads: Set[Tuple[str, str]] = set()
    writes: Dict[Tuple[str, str], Tuple[str, Tuple[str, ...]]] = {}

    for tid in program.tids:
        body = program.body_of(tid)
        out.extend(_lint_registers(program, tid, body))
        out.extend(_lint_labels(tid, body))
        out.extend(_lint_shadowing(program, tid, body))
        _collect_global_accesses(body, reads, writes, tid)
        out.extend(
            _lint_flow(body, dict(program.initial_locals_of(tid)), tid)
        )

    for loc in sorted(set(writes) - reads):
        tid, path = writes[loc]
        comp, var = loc
        out.append(
            Diagnostic(
                code=DEAD_WRITE,
                severity=WARNING,
                message=(
                    f"global {var!r} ({'library' if comp == 'L' else 'client'}"
                    " component) is written but never read"
                ),
                tid=tid,
                path=path,
            )
        )
    return AnalysisReport(tuple(out))


# -- unbound registers -------------------------------------------------------


def _lint_registers(
    program: Program, tid: str, body: A.Com
) -> List[Diagnostic]:
    assigned = set(assigned_registers(body))
    assigned.update(program.initial_locals_of(tid))
    seen: Set[str] = set()
    out: List[Diagnostic] = []
    for visit in iter_nodes(body):
        for expr in node_exprs(visit.node):
            for reg in sorted(registers_of(expr)):
                if reg in assigned or reg in seen:
                    continue
                seen.add(reg)
                out.append(
                    Diagnostic(
                        code=UNBOUND_REGISTER,
                        severity=ERROR,
                        message=(
                            f"register {reg!r} is read but never assigned"
                            " in this thread"
                        ),
                        tid=tid,
                        path=visit.path,
                    )
                )
    return out


# -- duplicate labels --------------------------------------------------------


def _lint_labels(tid: str, body: A.Com) -> List[Diagnostic]:
    seen: Dict[object, Tuple[str, ...]] = {}
    out: List[Diagnostic] = []
    flagged: Set[object] = set()
    for visit in iter_nodes(body):
        if not isinstance(visit.node, A.Labeled):
            continue
        label = visit.node.label
        if label in seen and label not in flagged:
            flagged.add(label)
            out.append(
                Diagnostic(
                    code=DUPLICATE_LABEL,
                    severity=WARNING,
                    message=(
                        f"label {label!r} occurs more than once; program"
                        " counters are ambiguous"
                    ),
                    tid=tid,
                    path=visit.path,
                )
            )
        seen.setdefault(label, visit.path)
    return out


# -- client/library register shadowing ---------------------------------------


def _lint_shadowing(
    program: Program, tid: str, body: A.Com
) -> List[Diagnostic]:
    lib_private = A.library_registers(body)
    if not lib_private:
        return []
    client_assigned = set(program.initial_locals_of(tid))
    for visit in iter_nodes(body):
        if visit.in_lib:
            continue
        reg = assigned_register(visit.node)
        if reg is not None and not isinstance(visit.node, A.LibBlock):
            client_assigned.add(reg)
    out: List[Diagnostic] = []
    for reg in sorted(lib_private & client_assigned):
        out.append(
            Diagnostic(
                code=REGISTER_SHADOW,
                severity=WARNING,
                message=(
                    f"register {reg!r} is assigned by client code and as a"
                    " library-private register; the client trace projection"
                    " strips it"
                ),
                tid=tid,
            )
        )
    return out


# -- global access census (dead writes) --------------------------------------


def _collect_global_accesses(
    body: A.Com,
    reads: Set[Tuple[str, str]],
    writes: Dict[Tuple[str, str], Tuple[str, Tuple[str, ...]]],
    tid: str,
) -> None:
    for visit in iter_nodes(body):
        node = visit.node
        comp = "L" if visit.in_lib else "C"
        if isinstance(node, A.Read):
            reads.add((comp, node.var))
        elif isinstance(node, A.Write):
            writes.setdefault((comp, node.var), (tid, visit.path))
        elif isinstance(node, (A.Cas, A.Fai)):
            # Updates read their location too, so they are never dead.
            reads.add((comp, node.var))
            writes.setdefault((comp, node.var), (tid, visit.path))


# -- flow-sensitive pass: constant branches, silent loops --------------------


def _lint_flow(body: A.Com, env: Dict, tid: str) -> List[Diagnostic]:
    """``unreachable-branch`` and ``silent-loop`` findings of ``body``,
    a visitor on :func:`~repro.analysis.footprints.walk_flow` from the
    exactly-known register environment ``env``."""
    out: List[Diagnostic] = []

    def finding(code, severity, message, path):
        out.append(
            Diagnostic(
                code=code, severity=severity, message=message, tid=tid,
                path=path,
            )
        )

    def visit(node, env, in_lib, path, depth):
        if isinstance(node, A.If):
            known, value = try_eval(node.cond, env)
            dead = node.else_branch if value else node.then_branch
            if known and dead is not None:
                which = "else" if value else "then"
                finding(
                    UNREACHABLE_BRANCH, WARNING,
                    f"condition is always {bool(value)}; the {which}"
                    " branch is unreachable",
                    path,
                )
        elif isinstance(node, A.While):
            known, value = try_eval(node.cond, env)
            if known and not value:
                finding(
                    UNREACHABLE_BRANCH, WARNING,
                    "loop condition is always False; the body is"
                    " unreachable",
                    path,
                )
            elif not visible_nodes(node.body) and not (
                registers_of(node.cond) & assigned_registers(node.body)
            ):
                certainty = (
                    "diverges" if known and value else "diverges once entered"
                )
                finding(
                    SILENT_LOOP, ERROR,
                    f"silent loop {certainty}: the body performs no"
                    " global access and never assigns a condition"
                    " register (ε-divergence)",
                    path,
                )

    walk_flow(body, env, visit)
    return out
