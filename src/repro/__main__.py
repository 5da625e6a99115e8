"""Command-line entry point: ``python -m repro [command] [options]``.

Commands:

* ``litmus``   — run the litmus battery and print the verdict table;
* ``figures``  — verify the paper's figures (1, 2, 3, 7) end to end;
* ``refine``   — verify all lock implementations against the abstract
  lock across the client battery, then print ``engine: N explorations``
  (each client program is explored once: two per client);
* ``witness``  — extract the shortest execution exhibiting a litmus
  test's weak outcome (``witness MP-relaxed``): the engine explores
  with predecessor tracking and reconstructs the concrete schedule,
  re-expanding ε-closure macro-steps when ``--reduction closure``
  (the default) did the searching;
* ``lint``     — statically analyse the shipped program corpus (the
  litmus catalog, the figure programs and the ``examples/`` builders)
  with the :mod:`repro.analysis` passes and print every finding; the
  command fails only on *error*-severity findings (expected warnings —
  the relaxed litmus races — are informational).  It is the CLI's one
  static-analysis command: the exploring commands run no static pass;
* ``all``      — litmus + figures + refine (default).

Options:

* ``--reduction R`` — state-space reduction policy (any name in the
  policy table :data:`repro.semantics.reduce.REDUCTIONS`): ``closure``
  (default: ε-closure + covering-read prune, same verdicts from far
  fewer stored states) | ``dpor`` (sleep-set + persistent-set partial
  order reduction layered on ``closure``) | ``off`` (the unreduced
  semantics) for ``litmus``/``witness``/``all``;
* ``--json PATH``   — write a JSON report of the rows the command
  printed to PATH (``litmus``/``figures``/``refine``/``all``; layout
  in :func:`_write_report`);
* ``--trace PATH``  — append a JSONL telemetry stream (exploration
  spans, metrics samples, the litmus battery span — schema documented
  in :mod:`repro.obs.trace`) to PATH;
* ``--quiet``/``-q`` — suppress the telemetry summary line and the
  live progress heartbeat;
* ``--verbose``/``-v`` — debug-level ``repro`` logging on stderr.

Flags only apply to commands that read them; inapplicable flags are
rejected.  Every verdict comes from an exploration of the current code:
nothing is cached between runs, and no environment variable is read.

Profiling: ``python -m cProfile -o FILE -m repro litmus``.
"""

from __future__ import annotations

import sys
from typing import Optional


def _make_engine(options: Optional[dict] = None):
    """Build the exploration engine the CLI commands route through,
    with the observability sinks attached: an always-on metrics
    registry (the summary line is printed unless ``--quiet``), the
    optional JSONL trace on the ``--trace`` file (the caller closes it)
    and a live progress heartbeat (auto-disabled off-TTY, forced off by
    ``--quiet``)."""
    from repro.engine import ExplorationEngine
    from repro.obs import Metrics, Progress, TraceWriter

    options = options or {}
    quiet = options.get("quiet", False)
    trace = options.get("trace")
    return ExplorationEngine(
        reduction=options.get("reduction", "closure"),
        metrics=Metrics(),
        trace=TraceWriter(trace) if trace else None,
        progress=None if quiet else Progress(),
    )


def _record(options: dict, section: str, rows, metrics=None) -> None:
    """Keep a section's rows (and, for the litmus battery, its engine's
    metrics snapshot) for the ``--json`` report, when one was asked
    for."""
    report = options.get("report")
    if report is not None:
        report[section] = rows
        if metrics is not None:
            report["metrics"] = metrics


def _litmus_row(test, result, baseline) -> dict:
    """One litmus verdict as the table prints it and ``--json``
    records it."""
    row = {
        "name": test.name,
        "states": result["states"],
        "weak_observed": result["weak_observed"],
        "verdict_ok": result["verdict_ok"],
    }
    if baseline is not None:
        row["full_states"] = baseline.get(test.name)
    if not result["verdict_ok"]:
        # A forbidden-outcome violation keeps its witness schedule
        # (None for absence-only violations).
        row["witness"] = result.get("witness")
    return row


def _print_litmus_row(row: dict, with_full: bool) -> None:
    full = ""
    if with_full:
        states = row["full_states"]
        full = f" {'?' if states is None else states:>7}"
    weak = "observed" if row["weak_observed"] else "absent"
    verdict = "OK" if row["verdict_ok"] else "MISMATCH"
    print(f"{row['name']:20s} {row['states']:7d}{full} {weak:>10s} {verdict}")
    if row.get("witness"):
        print("  violating schedule:")
        for line in row["witness"]:
            print(f"    {line}")


def run_litmus(options: Optional[dict] = None) -> bool:
    """Run the litmus battery; True iff every verdict matches RC11 RAR.

    Under ``--reduction closure`` (the default) the ``full`` column
    reports the states an unreduced exploration would store, read from
    the committed reduction-benchmark baseline rather than re-run.
    """
    from repro.litmus.catalog import LITMUS_TESTS, reduction_baseline, run_litmus

    options = options or {}
    engine = _make_engine(options)
    baseline = (
        reduction_baseline() if engine.reduction == "closure" else None
    )
    full_col = f" {'full':>7s}" if baseline is not None else ""
    rows = []
    try:
        if engine.trace is not None:
            engine.trace.emit("litmus.start", tests=len(LITMUS_TESTS))
        print(
            f"{'litmus test':20s} {'states':>7s}{full_col} "
            f"{'weak':>10s} verdict"
        )
        for test in LITMUS_TESTS:
            row = _litmus_row(test, run_litmus(test, engine=engine), baseline)
            rows.append(row)
            _print_litmus_row(row, baseline is not None)
        ok = all(row["verdict_ok"] for row in rows)
        # Both totals run over the tests the baseline covers, so the
        # printed ratio always compares like with like (a catalog entry
        # added since the baseline was regenerated is shown with `?`
        # and excluded).
        covered = [r for r in rows if r.get("full_states") is not None]
        if covered:
            explored_total = sum(r["states"] for r in covered)
            full_total = sum(r["full_states"] for r in covered)
            print(
                f"reduction: {explored_total} states stored vs {full_total} "
                f"unreduced ({full_total / max(explored_total, 1):.2f}x, "
                "baseline benchmarks/BENCH_reduction.json)"
            )
        if not options.get("quiet", False):
            print(engine.metrics.describe())
        if engine.trace is not None:
            engine.trace.emit("litmus.finish", ok=ok)
    finally:
        if engine.trace is not None:
            engine.trace.close()
    _record(options, "litmus", rows, engine.metrics.snapshot())
    return ok


#: How ``figures`` prints each :func:`repro.figures.figure_checks` row.
_FIGURE_LINES = {
    "figure-1": "Figure 1: outcomes {measured}  {verdict}",
    "figure-2": "Figure 2: outcomes {measured}  {verdict}",
    "figure-3-outline": "Figure 3: outline valid = {ok} ({measured})",
    "mp-outline": "MP outline (variable-level): valid = {ok}",
    "figure-7": "Figure 7: outcomes {measured}  {verdict}",
    "lemma-4-outline": "Lemma 4 : outline valid = {ok} ({measured})",
}


def run_figures(options: Optional[dict] = None) -> bool:
    """Verify the paper's figure programs and proof outlines."""
    from repro.figures import figure_checks

    rows = figure_checks()
    for row in rows:
        verdict = "OK" if row["ok"] else "MISMATCH"
        print(_FIGURE_LINES[row["check"]].format(verdict=verdict, **row))
    _record(options or {}, "figures", rows)
    return all(row["ok"] for row in rows)


def _refine_row(report) -> dict:
    """One lock's refinement report as ``--json`` records it."""
    return {
        "implementation": report.implementation,
        "ok": report.ok,
        "clients": [
            {
                "client": v.client,
                "ok": v.ok,
                "simulation_found": v.simulation.found,
                "relation_size": v.simulation.relation_size,
                "traces_ok": (
                    None if v.traces is None else bool(v.traces.refines)
                ),
            }
            for v in report.verdicts
        ],
    }


def run_refine(options: Optional[dict] = None) -> bool:
    """Verify every lock implementation against the abstract lock."""
    from repro.engine import ExplorationEngine
    from repro.impls import LOCKS
    from repro.toolkit import verify_lock_implementation

    options = options or {}
    # Refinement needs full transition graphs: the engine only counts
    # the explorations (two per client — each program is explored once
    # and shared by the simulation game and trace inclusion).
    engine = ExplorationEngine()
    rows = []
    for fill, lib_vars in LOCKS.values():
        report = verify_lock_implementation(fill, lib_vars, engine=engine)
        print(report.describe())
        rows.append(_refine_row(report))
    print(f"engine: {engine.explorations} explorations")
    _record(options, "refine", rows)
    return all(row["ok"] for row in rows)


def run_witness(options: Optional[dict] = None) -> bool:
    """Extract and print the shortest execution exhibiting a litmus
    test's weak outcome; True iff reachability matches the RC11 RAR
    verdict (weak allowed ⇒ witness exists, forbidden ⇒ none).

    The search rides the configured engine and its reduction, with
    predecessor tracking instead of stored configurations; under
    ``--reduction closure`` (the default) the reduced search's
    macro-steps are re-expanded so the printed schedule replays
    step-for-step through the unreduced semantics.
    """
    from repro.litmus.catalog import LITMUS_TESTS
    from repro.util.errors import VerificationError

    options = options or {}
    tests = {t.name: t for t in LITMUS_TESTS}
    name = options.get("test")
    if not name:
        raise ValueError(
            "usage: python -m repro witness <litmus-test> "
            "[--reduction R]; "
            f"available tests: {', '.join(sorted(tests))}"
        )
    if name not in tests:
        raise ValueError(
            f"unknown litmus test {name!r}; "
            f"available: {', '.join(sorted(tests))}"
        )
    test = tests[name]
    engine = _make_engine(options)

    def weak_outcome(cfg) -> bool:
        return test.outcome_of(cfg) in test.weak

    try:
        witness = engine.find_witness(
            test.build(), weak_outcome, terminal_only=True
        )
    except VerificationError as exc:
        print(f"{test.name}: {exc}")
        if engine.trace is not None:
            engine.trace.close()
        return False
    verdict = "allowed" if test.weak_allowed else "forbidden"
    regs = ", ".join(f"{t}.{r}" for t, r in test.regs)
    weak = " | ".join(repr(w) for w in sorted(test.weak, key=repr))
    print(f"{test.name}: weak outcome ({regs}) ∈ {{{weak}}} — "
          f"{verdict} under RC11 RAR")
    if witness is not None:
        print(witness.describe())
        print(f"schedule: {' '.join(witness.schedule())}")
        print(f"engine: {engine!r}")
    else:
        print("unreachable (exhaustive search, no witness exists)")
    ok = (witness is not None) == test.weak_allowed
    print(f"verdict {'OK' if ok else 'MISMATCH'}")
    if not (options or {}).get("quiet", False):
        print(engine.metrics.describe())
    if engine.trace is not None:
        engine.trace.close()
    return ok


def _example_programs():
    """``(label, program)`` pairs from the ``examples/`` directory's
    program builders, imported by file path (the directory is not a
    package); missing files or import failures skip gracefully —
    installed distributions may not ship the examples."""
    import importlib.util
    from pathlib import Path

    root = Path(__file__).resolve().parents[2] / "examples"
    if not root.is_dir():
        return []
    builders = {
        "quickstart": [
            ("message_passing(True, True)",
             lambda m: m.message_passing(True, True)),
            ("message_passing(False, False)",
             lambda m: m.message_passing(False, False)),
        ],
        "work_queue": [
            ("handoff(True)", lambda m: m.handoff(True)),
            ("handoff(False)", lambda m: m.handoff(False)),
        ],
        "custom_object": [
            ("publication_client()", lambda m: m.publication_client()),
        ],
    }
    out = []
    for mod_name, entries in builders.items():
        path = root / f"{mod_name}.py"
        if not path.is_file():
            continue
        spec = importlib.util.spec_from_file_location(
            f"_repro_lint_example_{mod_name}", path
        )
        if spec is None or spec.loader is None:
            continue
        module = importlib.util.module_from_spec(spec)
        try:
            spec.loader.exec_module(module)
        except Exception:
            continue
        for label, build in entries:
            try:
                out.append((f"examples/{mod_name}.{label}", build(module)))
            except Exception:
                continue
    return out


def lint_targets():
    """The shipped program corpus the ``lint`` command analyses:
    ``(label, program)`` for every litmus test, the figure programs,
    Peterson's lock and the example builders."""
    from repro.figures.fig1 import fig1_program
    from repro.figures.fig2 import fig2_program
    from repro.figures.fig7 import fig7_program
    from repro.litmus.catalog import LITMUS_TESTS
    from repro.litmus.peterson import peterson_program

    targets = [(f"litmus/{t.name}", t.build()) for t in LITMUS_TESTS]
    targets += [
        ("figures/fig1", fig1_program()),
        ("figures/fig2", fig2_program()),
        ("figures/fig7", fig7_program()),
        ("litmus/peterson", peterson_program()),
    ]
    targets += _example_programs()
    return targets


def run_lint(options: Optional[dict] = None) -> bool:
    """Statically analyse the shipped program corpus; True iff no
    target has an error-severity finding (warnings are reported but
    expected — the relaxed litmus tests race by design)."""
    from repro.analysis import analyse_program

    options = options or {}
    quiet = options.get("quiet", False)
    targets = lint_targets()
    total_errors = 0
    total_warnings = 0
    clean = 0
    for label, program in targets:
        report = analyse_program(program)
        total_errors += len(report.errors)
        total_warnings += len(report.warnings)
        if report.clean():
            clean += 1
            if not quiet:
                print(f"{label:45s} clean")
            continue
        codes = ", ".join(sorted(report.codes()))
        print(f"{label:45s} {codes}")
        for diag in report.diagnostics:
            print(f"  {diag.format()}")
    print(
        f"lint: {len(targets)} programs analysed, {clean} clean, "
        f"{total_errors} error(s), {total_warnings} warning(s)"
    )
    return total_errors == 0


#: Flags each command actually reads; anything else is a usage error
#: rather than a silent no-op.
_COMMAND_FLAGS = {
    "litmus": {"reduction", "trace", "quiet", "verbose", "json"},
    "figures": {"json"},
    "refine": {"quiet", "verbose", "json"},
    "witness": {"reduction", "trace", "quiet", "verbose"},
    "lint": {"quiet", "verbose"},
    "all": {"reduction", "trace", "quiet", "verbose", "json"},
}


def _parse_options(args, command: str) -> Optional[dict]:
    """Parse trailing CLI flags; None signals a usage error."""
    options = {
        "reduction": "closure",
        "trace": None,
        "json": None,
        "quiet": False,
        "verbose": False,
    }
    given = set()
    i = 0
    while i < len(args):
        flag = args[i]
        if flag in ("--quiet", "-q"):
            options["quiet"] = True
            given.add("quiet")
        elif flag in ("--verbose", "-v"):
            options["verbose"] = True
            given.add("verbose")
        elif flag in ("--json", "--reduction", "--trace"):
            if i + 1 >= len(args):
                return None
            value = args[i + 1]
            i += 1
            name = flag.lstrip("-")
            given.add(name)
            if flag == "--reduction":
                from repro.semantics.reduce import REDUCTIONS

                if value not in REDUCTIONS:
                    print(
                        f"error: unknown reduction {value!r}; expected "
                        + " or ".join(REDUCTIONS)
                    )
                    return None
            options[name] = value
        else:
            return None
        i += 1
    unsupported = given - _COMMAND_FLAGS[command]
    if unsupported:
        flags = ", ".join("--" + f for f in sorted(unsupported))
        print(f"error: {flags} not supported by the {command!r} command")
        return None
    return options


#: Version of the ``--json`` report layout.  5 was the layout of the
#: batch runner's report; 6 is one report per command, with one row
#: list per section that ran; 7 drops ``meta.strategy`` (there is one
#: exploration order); 8 drops ``meta.analysis`` (exploration runs no
#: static analysis).
REPORT_SCHEMA = 8


def _write_report(path: str, ok: bool, options: dict) -> None:
    """Write the ``--json`` report: ``schema``, ``ok``, a ``meta``
    block (where it ran, and the litmus battery's engine settings —
    the figure and refinement checks always explore unreduced), the
    litmus engine's ``metrics`` snapshot (None when the battery did not
    run) and one row list per section that ran (``litmus``,
    ``figures``, ``refine``), the same rows the tables print."""
    import json
    import os
    import platform

    report = {
        "schema": REPORT_SCHEMA,
        "ok": ok,
        "meta": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "reduction": options["reduction"],
        },
        "metrics": None,
    }
    report.update(options["report"])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(report, indent=2) + "\n")


def main(argv) -> int:
    """Dispatch the CLI command; returns a process exit code."""
    command = argv[1] if len(argv) > 1 else "all"
    dispatch = {
        "litmus": [run_litmus],
        "figures": [run_figures],
        "refine": [run_refine],
        "witness": [run_witness],
        "lint": [run_lint],
        "all": [run_litmus, run_figures, run_refine],
    }
    if command not in dispatch:
        print(__doc__)
        return 2
    args = list(argv[2:])
    positional = {}
    if command == "witness" and args and not args[0].startswith("--"):
        positional["test"] = args.pop(0)
    options = _parse_options(args, command)
    if options is None:
        print(__doc__)
        return 2
    options.update(positional)
    if options["json"]:
        options["report"] = {}
    from repro.obs import configure_verbosity

    configure_verbosity(
        quiet=options.get("quiet", False),
        verbose=options.get("verbose", False),
    )
    ok = True
    for i, job in enumerate(dispatch[command]):
        if i:
            print()
        try:
            ok &= job(options)
        except ValueError as exc:  # unknown test, etc.
            print(f"error: {exc}")
            return 2
    if options["json"]:
        _write_report(options["json"], ok, options)
        print(f"report written to {options['json']}")
    print()
    print("ALL CHECKS PASS" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
