"""The diagnostics model shared by every static pass.

A :class:`Diagnostic` is one finding — a stable code, a severity, a
human message, and (when the finding anchors to program text) the
thread id and the node path from that thread's body root (the
:func:`repro.lang.walk.iter_nodes` path).  An :class:`AnalysisReport`
bundles the findings of one program and is what
:func:`repro.analysis.analyse_program` returns and the ``lint`` CLI
prints.

Severities
----------
``error``
    the program is malformed or certain to misbehave (an unbound
    register read raises at step time, a silent loop never
    terminates); ``repro lint`` exits non-zero.
``warning``
    suspicious but legitimate — statically racy pairs, dead writes,
    unreachable branches; ``repro lint`` prints them and passes.
``info``
    reserved for advisory output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

from repro.lang.walk import format_path

ERROR = "error"
WARNING = "warning"
INFO = "info"

#: Recognised severities, most severe first.
SEVERITIES: Tuple[str, ...] = (ERROR, WARNING, INFO)

_RANK = {sev: i for i, sev in enumerate(SEVERITIES)}


@dataclass(frozen=True)
class Diagnostic:
    """One static-analysis finding."""

    code: str
    severity: str
    message: str
    tid: Optional[str] = None
    path: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.severity not in _RANK:
            raise ValueError(f"unknown severity {self.severity!r}")

    def format(self) -> str:
        """``severity[CODE] thread t @ path: message`` (one line)."""
        where = ""
        if self.tid is not None:
            where = f" thread {self.tid} @ {format_path(self.path)}"
        return f"{self.severity}[{self.code}]{where}: {self.message}"


@dataclass(frozen=True)
class AnalysisReport:
    """All findings of one program, sorted most-severe-first."""

    diagnostics: Tuple[Diagnostic, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(
                self.diagnostics,
                key=lambda d: (_RANK[d.severity], d.code, d.tid or "", d.path),
            )
        )
        object.__setattr__(self, "diagnostics", ordered)

    def __iter__(self):
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    @property
    def errors(self) -> Tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == ERROR)

    @property
    def warnings(self) -> Tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == WARNING)

    def codes(self) -> FrozenSet[str]:
        """The set of finding codes (the catalog annotation currency)."""
        return frozenset(d.code for d in self.diagnostics)

    def clean(self) -> bool:
        return not self.diagnostics

    def describe(self) -> str:
        """One line per finding; ``"clean"`` when there are none."""
        if not self.diagnostics:
            return "clean"
        return "\n".join(d.format() for d in self.diagnostics)


def merge_reports(*reports: AnalysisReport) -> AnalysisReport:
    """One report holding every finding of ``reports``."""
    out: list = []
    for report in reports:
        out.extend(report.diagnostics)
    return AnalysisReport(tuple(out))
