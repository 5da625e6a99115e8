"""Static program analysis over the :mod:`repro.lang` AST.

Three passes over the program text:

* :mod:`repro.analysis.lint` — structural and flow-sensitive
  well-formedness checks (unbound registers, silent loops, dead writes,
  unreachable branches, duplicate labels, register shadowing);
* :mod:`repro.analysis.races` — a static race detector built on
  flow-sensitive per-thread access summaries with ordering annotations;
* :mod:`repro.analysis.footprints` — phase-sensitive footprint
  summaries feeding the DPOR reduction's conflict partitioning.

:func:`analyse_program` bundles lint and race findings into one
:class:`~repro.analysis.diagnostics.AnalysisReport`, the one way in
to static analysis: ``repro lint`` runs it over the shipped corpus,
and library callers call it directly.  Exploration never runs it.
"""

from __future__ import annotations

from repro.analysis.diagnostics import (
    ERROR,
    INFO,
    SEVERITIES,
    WARNING,
    AnalysisReport,
    Diagnostic,
    merge_reports,
)
from repro.analysis.footprints import (
    FP_EMPTY,
    FP_TOP,
    Footprint,
    fp_conflict,
    fp_union,
    phase_footprint,
)
from repro.analysis.lint import lint_program
from repro.analysis.races import detect_races, operational_races
from repro.lang.program import Program

def analyse_program(program: Program) -> AnalysisReport:
    """Every static finding of ``program``: lint plus race detection."""
    return merge_reports(lint_program(program), detect_races(program))


__all__ = [
    "AnalysisReport",
    "Diagnostic",
    "ERROR",
    "FP_EMPTY",
    "FP_TOP",
    "Footprint",
    "INFO",
    "SEVERITIES",
    "WARNING",
    "analyse_program",
    "detect_races",
    "fp_conflict",
    "fp_union",
    "lint_program",
    "merge_reports",
    "operational_races",
    "phase_footprint",
]
