"""Batch job runner: named verification jobs, run concurrently.

A *job* is a self-contained verification workload — the litmus battery,
the paper-figure checks, or one lock-refinement proof — returning a
JSON-safe verdict.  :func:`run_batch` executes a list of jobs, spreading
them across worker processes when ``workers > 1`` (each job explores
in-process, so the parallelism is job-level only), and emits a
machine-readable report.  ``use_cache`` governs the litmus
battery, the one workload whose verdicts are summary-shaped and hence
cacheable; the figure and refinement jobs need full transition graphs
and always explore live.  Usage::

    python -m repro batch --workers 2 --json report.json

Job functions import their subject modules lazily so this module stays
importable from ``repro.engine`` without dragging in the whole
framework at startup.
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.obs.metrics import Metrics


def _job_litmus(use_cache: bool, reduction: str = "closure") -> Dict:
    from repro.analysis import analyse_program
    from repro.engine.cache import ResultCache, cache_enabled_by_env
    from repro.engine.core import ExplorationEngine
    from repro.litmus.catalog import (
        LITMUS_TESTS,
        reduction_baseline,
        run_litmus,
    )

    metrics = Metrics()
    engine = ExplorationEngine(
        cache=ResultCache() if use_cache and cache_enabled_by_env() else None,
        reduction=reduction,
        metrics=metrics,
    )
    # "Full" states per test come from the committed reduction-benchmark
    # baseline — the unreduced exploration is *not* re-run here.
    baseline = reduction_baseline() if reduction == "closure" else None
    rows = []
    ok = True
    diag_errors = 0
    diag_warnings = 0
    diag_by_test: Dict[str, List[str]] = {}
    for test in LITMUS_TESTS:
        report = analyse_program(test.build())
        diag_errors += len(report.errors)
        diag_warnings += len(report.warnings)
        if not report.clean():
            diag_by_test[test.name] = sorted(report.codes())
        verdict = run_litmus(test, engine=engine, use_cache=use_cache)
        ok &= verdict["verdict_ok"]
        row = {
            "name": verdict["name"],
            "verdict_ok": verdict["verdict_ok"],
            "states": verdict["states"],
            "weak_observed": verdict["weak_observed"],
            "cached": verdict["cached"],
            "reduction": reduction,
        }
        if not verdict["verdict_ok"]:
            # A forbidden-outcome violation embeds the witness schedule
            # in the JSON report (None for absence-only violations).
            row["witness"] = verdict.get("witness")
        if baseline is not None:
            row["full_states"] = baseline.get(test.name)
        rows.append(row)
    if engine.cache is not None:
        # Structured cache counts ride with the telemetry (the entry
        # count is a point-in-time reading, hence a gauge).
        cache_stats = engine.cache.stats()
        metrics.gauge_max("cache.entries", cache_stats["entries"])
    return {
        "ok": ok,
        "detail": rows,
        "metrics": metrics.snapshot(),
        "diagnostics": {
            "analysed": len(LITMUS_TESTS),
            "errors": diag_errors,
            "warnings": diag_warnings,
            "by_test": diag_by_test,
        },
    }


def _job_figures() -> Dict:
    from repro.figures import figure_checks

    rows = figure_checks()
    return {"ok": all(r["ok"] for r in rows), "detail": rows}


def _job_refine(impl: str) -> Dict:
    from repro.impls import LOCKS
    from repro.toolkit import verify_lock_implementation

    fill, lib_vars = LOCKS[impl]
    report = verify_lock_implementation(fill, lib_vars)
    clients = [
        {
            "client": v.client,
            "ok": v.ok,
            "simulation_found": v.simulation.found,
            "relation_size": v.simulation.relation_size,
            "traces_ok": None if v.traces is None else bool(v.traces.refines),
        }
        for v in report.verdicts
    ]
    return {
        "ok": report.ok,
        "detail": {"implementation": report.implementation, "clients": clients},
    }


#: Version of the batch-report JSON layout.  2 added the ``meta`` block,
#: per-job ``metrics`` snapshots and the aggregated report ``metrics``
#: (the un-versioned original layout is retroactively 1); 3 added the
#: per-job ``diagnostics`` block (static-analysis summaries — populated
#: by the litmus battery, ``null`` for jobs that don't run the passes);
#: 4 dropped the ``meta`` block's ``engine_backend``/``engine_transport``
#: (the engine now picks its path per exploration); 5 dropped
#: ``engine_workers`` (the engine always explores in-process).
REPORT_SCHEMA = 5


def batch_meta(
    workers: int,
    use_cache: bool,
    reduction: str,
    jobs: Optional[Sequence[str]] = None,
) -> Dict[str, object]:
    """The self-describing ``meta`` block of a batch JSON report:
    enough provenance that an archived report answers "what ran this,
    where, with which engine settings" without the shell history.

    ``jobs`` records the *effective* per-job reduction policy: the
    batch-level ``reduction`` applies to the litmus battery only, while
    the figure checks and refinement jobs always explore unreduced
    (see :func:`run_job`) — so an archived report states which policy
    produced each job's numbers instead of leaving the reader to infer
    the exception.
    """
    return {
        "schema": REPORT_SCHEMA,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "workers": workers,
        "use_cache": use_cache,
        "reduction": reduction,
        "jobs": {
            name: {
                "reduction": reduction if name == "litmus" else "off",
            }
            for name in (jobs if jobs is not None else JOB_NAMES)
        },
    }


#: Registered job names, in default execution order.
JOB_NAMES = (
    "litmus",
    "figures",
    "refine-seqlock",
    "refine-ticketlock",
    "refine-spinlock",
)


@dataclass
class JobResult:
    """Verdict of one batch job."""

    name: str
    ok: bool
    elapsed: float
    detail: object = None
    error: Optional[str] = None
    #: Telemetry snapshot (``Metrics.snapshot()``) for jobs that run the
    #: exploration engine with a metrics sink — currently the litmus
    #: battery; None for the rest.
    metrics: Optional[Dict] = None
    #: Static-analysis summary for jobs that run the passes — the litmus
    #: battery reports ``{analysed, errors, warnings, by_test}`` (codes
    #: per non-clean test); None for the rest.
    diagnostics: Optional[Dict] = None

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "elapsed": round(self.elapsed, 3),
            "detail": self.detail,
            "error": self.error,
            "metrics": self.metrics,
            "diagnostics": self.diagnostics,
        }


@dataclass
class BatchReport:
    """Aggregated verdicts of one batch run."""

    jobs: List[JobResult] = field(default_factory=list)
    workers: int = 1
    elapsed: float = 0.0
    #: Provenance block (:func:`batch_meta`); empty for hand-built
    #: reports.
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(j.ok for j in self.jobs)

    def aggregate_metrics(self) -> Optional[Dict]:
        """All jobs' telemetry merged into one snapshot (None when no
        job collected any)."""
        merged = Metrics()
        found = False
        for j in self.jobs:
            if j.metrics:
                merged.merge(j.metrics)
                found = True
        return merged.snapshot() if found else None

    def to_dict(self) -> Dict:
        return {
            "ok": self.ok,
            "workers": self.workers,
            "elapsed": round(self.elapsed, 3),
            "meta": self.meta,
            "metrics": self.aggregate_metrics(),
            "jobs": [j.to_dict() for j in self.jobs],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def describe(self) -> str:
        lines = [f"{'job':20s} {'elapsed':>8s}  verdict"]
        for j in self.jobs:
            verdict = "OK" if j.ok else "FAIL"
            if j.error:
                verdict = f"ERROR ({j.error})"
            lines.append(f"{j.name:20s} {j.elapsed:7.2f}s  {verdict}")
        lines.append(
            f"batch {'PASS' if self.ok else 'FAIL'} "
            f"({len(self.jobs)} jobs, {self.workers} workers, "
            f"{self.elapsed:.2f}s)"
        )
        return "\n".join(lines)


def run_job(
    name: str, use_cache: bool = True, reduction: str = "closure"
) -> JobResult:
    """Execute one named job, capturing failures as a verdict.

    ``reduction`` applies to the litmus battery only: the figure checks
    enumerate proof outlines over intermediate configurations and the
    refinement jobs consume un-fused transition graphs, so both always
    explore with the reduction off (their internal call sites request
    it explicitly).
    """
    if name not in JOB_NAMES:
        raise ValueError(
            f"unknown job {name!r}; available: {', '.join(JOB_NAMES)}"
        )
    start = time.perf_counter()
    try:
        if name == "litmus":
            outcome = _job_litmus(use_cache, reduction)
        elif name == "figures":
            outcome = _job_figures()
        else:
            outcome = _job_refine(name.split("-", 1)[1])
    except Exception as exc:  # a crashing job fails the batch, not the runner
        return JobResult(
            name=name,
            ok=False,
            elapsed=time.perf_counter() - start,
            error=f"{type(exc).__name__}: {exc}",
        )
    return JobResult(
        name=name,
        ok=bool(outcome["ok"]),
        elapsed=time.perf_counter() - start,
        detail=outcome.get("detail"),
        metrics=outcome.get("metrics"),
        diagnostics=outcome.get("diagnostics"),
    )


def _pool_context():
    """Prefer fork (cheap, no re-import) where available.  Imported
    here, not at module level, so ``import repro.engine`` stays free of
    :mod:`multiprocessing`."""
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def run_batch(
    jobs: Optional[Sequence[str]] = None,
    workers: int = 1,
    use_cache: bool = True,
    json_path: Optional[str] = None,
    reduction: str = "closure",
    trace=None,
) -> BatchReport:
    """Run ``jobs`` (default: all registered) with ``workers`` processes.

    ``workers == 1`` runs the jobs in-process, sequentially and
    deterministically; otherwise the jobs are distributed over a process
    pool.  When ``json_path`` is given the report is also written there.
    ``reduction`` selects the litmus battery's exploration policy (see
    :func:`run_job`).

    ``trace`` (a :class:`repro.obs.trace.TraceWriter`) receives
    ``batch.start``/``batch.job.start``/``batch.job.finish``/
    ``batch.finish`` lifecycle events.  All events are emitted from the
    coordinating process — the writer never crosses into the pool (it
    is not picklable), so under ``workers > 1`` job-start events mark
    submission and job-finish events completion-arrival order.
    """
    names = list(jobs) if jobs is not None else list(JOB_NAMES)
    for name in names:
        if name not in JOB_NAMES:
            raise ValueError(
                f"unknown job {name!r}; available: {', '.join(JOB_NAMES)}"
            )
    from repro.engine.core import _check_reduction

    _check_reduction(reduction)
    start = time.perf_counter()
    if trace is not None:
        trace.emit("batch.start", jobs=names, workers=workers)
    if workers > 1 and len(names) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=min(workers, len(names)),
            mp_context=_pool_context(),
        ) as pool:
            if trace is not None:
                for name in names:
                    trace.emit("batch.job.start", job=name)
            results = list(
                pool.map(
                    run_job,
                    names,
                    [use_cache] * len(names),
                    [reduction] * len(names),
                )
            )
            if trace is not None:
                for r in results:
                    trace.emit(
                        "batch.job.finish",
                        job=r.name,
                        ok=r.ok,
                        elapsed=r.elapsed,
                    )
    else:
        results = []
        for name in names:
            if trace is not None:
                trace.emit("batch.job.start", job=name)
            r = run_job(name, use_cache, reduction)
            results.append(r)
            if trace is not None:
                trace.emit(
                    "batch.job.finish", job=r.name, ok=r.ok, elapsed=r.elapsed
                )
    report = BatchReport(
        jobs=results,
        workers=workers,
        elapsed=time.perf_counter() - start,
        meta=batch_meta(workers, use_cache, reduction, names),
    )
    if trace is not None:
        trace.emit("batch.finish", ok=report.ok, elapsed=report.elapsed)
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
    return report
