"""Command-line entry point: ``python -m repro [command] [options]``.

Commands:

* ``litmus``   — run the litmus battery and print the verdict table;
* ``figures``  — verify the paper's figures (1, 2, 3, 7) end to end;
* ``refine``   — verify all lock implementations against the abstract
  lock across the client battery, then print ``engine: N explorations``
  (each client program is explored once: two per client);
* ``batch``    — run named verification jobs concurrently and emit a
  JSON report (see ``--jobs``/``--json``);
* ``witness``  — extract the shortest execution exhibiting a litmus
  test's weak outcome (``witness MP-relaxed``): the engine explores
  with predecessor tracking and reconstructs the concrete schedule,
  re-expanding ε-closure macro-steps when ``--reduction closure``
  (the default) did the searching;
* ``lint``     — statically analyse the shipped program corpus (the
  litmus catalog, the figure programs and the ``examples/`` builders)
  with the :mod:`repro.analysis` passes and print every finding; the
  command fails only on *error*-severity findings (expected warnings —
  the relaxed litmus races — are informational);
* ``all``      — litmus + figures + refine (default).

Options:

* ``--workers N``   — ``batch`` only: run the jobs in N processes
  (default 1); every exploration itself runs in-process;
* ``--profile PATH`` — dump cProfile stats of the exploration hot path
  to PATH (sets ``REPRO_PROFILE``);
* ``--strategy S``  — frontier strategy ``bfs`` | ``dfs`` |
  ``swarm[:seed]``;
* ``--reduction R`` — state-space reduction policy (any name in the
  registry :data:`repro.semantics.reduce.REDUCTIONS`): ``closure``
  (default: ε-closure + covering-read prune, same verdicts from far
  fewer stored states) | ``dpor`` (sleep-set + persistent-set partial
  order reduction layered on ``closure``) | ``off`` (the unreduced
  semantics) for ``litmus``/``batch``;
* ``--analysis P``  — static-analysis policy the engine applies before
  exploring: ``off`` (default) | ``warn`` (log findings, count them in
  the metrics) | ``strict`` (refuse to explore a program with
  error-severity findings);
* ``--no-cache``    — disable the persistent result cache;
* ``--jobs a,b,c``  — subset of batch jobs (default: all);
* ``--json PATH``   — write the batch report to PATH;
* ``--trace PATH``  — append a JSONL telemetry stream (exploration
  spans, metrics samples, batch job lifecycle — schema documented in
  :mod:`repro.obs.trace`) to PATH; ``REPRO_TRACE`` sets a default;
* ``--quiet``/``-q`` — suppress the telemetry/cache summary lines and
  the live progress heartbeat;
* ``--verbose``/``-v`` — debug-level ``repro`` logging on stderr.

Flags only apply to commands that read them (``--workers``/``--jobs``/
``--json`` are batch-only, ``figures`` takes none); inapplicable flags
are rejected.

The cache directory honours ``REPRO_CACHE_DIR`` (default
``~/.cache/repro-engine``); ``REPRO_CACHE=0`` disables caching globally.
``REPRO_LOG`` (``quiet``/``info``/``debug`` or ``0``/``1``/``2``) sets
the default verbosity when neither ``--quiet`` nor ``-v`` is given.
"""

from __future__ import annotations

import sys
from typing import Optional


def _make_trace(options: dict):
    """The command's JSONL trace sink: ``--trace`` wins, then
    ``REPRO_TRACE``, else None.  The caller owns closing it."""
    from repro.obs import TraceWriter, trace_from_env

    path = options.get("trace")
    if path:
        return TraceWriter(path)
    return trace_from_env()


def _make_engine(options: Optional[dict] = None):
    """Build the exploration engine the CLI commands route through,
    with the observability sinks attached: an always-on metrics
    registry (the summary line is printed unless ``--quiet``), the
    optional JSONL trace and a live progress heartbeat (auto-disabled
    off-TTY, forced off by ``--quiet``)."""
    from repro.engine import ExplorationEngine, ResultCache, cache_enabled_by_env
    from repro.obs import Metrics, Progress

    options = options or {}
    cache = None
    if not options.get("no_cache") and cache_enabled_by_env():
        cache = ResultCache()
    quiet = options.get("quiet", False)
    return ExplorationEngine(
        strategy=options.get("strategy", "bfs"),
        cache=cache,
        reduction=options.get("reduction", "closure"),
        metrics=Metrics(),
        trace=_make_trace(options),
        progress=None if quiet else Progress(),
        analysis=options.get("analysis", "off"),
    )


def run_litmus(options: Optional[dict] = None) -> bool:
    """Run the litmus battery; True iff every verdict matches RC11 RAR.

    Under ``--reduction closure`` (the default) the ``full`` column
    reports the states an unreduced exploration would store, read from
    the committed reduction-benchmark baseline rather than re-run.
    """
    from repro.litmus.catalog import LITMUS_TESTS, reduction_baseline, run_litmus

    options = options or {}
    quiet = options.get("quiet", False)
    engine = _make_engine(options)
    baseline = (
        reduction_baseline() if engine.reduction == "closure" else None
    )
    full_col = f" {'full':>7s}" if baseline is not None else ""
    ok = True
    try:
        if engine.trace is not None:
            engine.trace.emit("litmus.start", tests=len(LITMUS_TESTS))
        print(
            f"{'litmus test':20s} {'states':>7s}{full_col} {'weak':>10s} "
            f"{'src':>6s} verdict"
        )
        # Both totals run over the tests the baseline covers, so the
        # printed ratio always compares like with like (a catalog entry
        # added since the baseline was regenerated is shown with `?`
        # and excluded).
        explored_total = 0
        full_total = 0
        for test in LITMUS_TESTS:
            result = run_litmus(test, engine=engine, use_cache=True)
            ok &= result["verdict_ok"]
            weak = "observed" if result["weak_observed"] else "absent"
            src = "cache" if result["cached"] else "run"
            full = ""
            if baseline is not None:
                full_states = baseline.get(test.name)
                if full_states is not None:
                    full = f" {full_states:7d}"
                    full_total += full_states
                    explored_total += result["states"]
                else:
                    full = f" {'?':>7s}"
            print(
                f"{test.name:20s} {result['states']:7d}{full} {weak:>10s} "
                f"{src:>6s} {'OK' if result['verdict_ok'] else 'MISMATCH'}"
            )
            if not result["verdict_ok"] and result.get("witness"):
                print("  violating schedule:")
                for line in result["witness"]:
                    print(f"    {line}")
        if baseline is not None and full_total:
            print(
                f"reduction: {explored_total} states stored vs {full_total} "
                f"unreduced ({full_total / max(explored_total, 1):.2f}x, "
                "baseline benchmarks/BENCH_reduction.json)"
            )
        if engine.cache is not None:
            print(
                f"engine: {engine.explorations} explorations, "
                f"cache {engine.cache.hits} hits / {engine.cache.misses} misses"
            )
        if not quiet:
            print(engine.metrics.describe())
            if engine.cache is not None:
                stats = engine.cache.stats()
                print(
                    f"cache: {stats['hits']} hits, {stats['misses']} misses, "
                    f"{stats['entries']} entries on disk"
                )
        if engine.trace is not None:
            engine.trace.emit("litmus.finish", ok=ok)
    finally:
        if engine.trace is not None:
            engine.trace.close()
    return ok


def run_figures(options: Optional[dict] = None) -> bool:
    """Verify the paper's figure programs and proof outlines."""
    from repro.figures.fig1 import EXPECTED_OUTCOMES as F1
    from repro.figures.fig1 import fig1_program
    from repro.figures.fig2 import EXPECTED_OUTCOMES as F2
    from repro.figures.fig2 import fig2_program
    from repro.figures.fig3 import fig3_outline
    from repro.figures.fig7 import EXPECTED_OUTCOMES as F7
    from repro.figures.fig7 import fig7_outline, fig7_program
    from repro.figures.mp_outline import mp_outline
    from repro.logic.owicki import check_proof_outline
    from repro.semantics.explore import explore

    ok = True
    out1 = explore(fig1_program()).terminal_locals(("2", "r2"))
    print(f"Figure 1: outcomes {sorted(out1, key=repr)}  "
          f"{'OK' if out1 == F1 else 'MISMATCH'}")
    ok &= out1 == F1

    out2 = explore(fig2_program()).terminal_locals(("2", "r2"))
    print(f"Figure 2: outcomes {sorted(out2, key=repr)}  "
          f"{'OK' if out2 == F2 else 'MISMATCH'}")
    ok &= out2 == F2

    r3 = check_proof_outline(fig3_outline())
    print(f"Figure 3: outline valid = {r3.valid} "
          f"({r3.obligations} obligations)")
    ok &= r3.valid

    rmp = check_proof_outline(mp_outline())
    print(f"MP outline (variable-level): valid = {rmp.valid}")
    ok &= rmp.valid

    out7 = explore(fig7_program()).terminal_locals(
        ("2", "rl"), ("2", "r1"), ("2", "r2")
    )
    print(f"Figure 7: outcomes {sorted(out7)}  "
          f"{'OK' if out7 == F7 else 'MISMATCH'}")
    ok &= out7 == F7

    r7 = check_proof_outline(fig7_outline())
    print(f"Lemma 4 : outline valid = {r7.valid} "
          f"({r7.obligations} obligations)")
    ok &= r7.valid
    return ok


def run_refine(options: Optional[dict] = None) -> bool:
    """Verify every lock implementation against the abstract lock."""
    from repro.impls.seqlock import SEQLOCK_VARS, seqlock_fill
    from repro.impls.spinlock import SPINLOCK_VARS, spinlock_fill
    from repro.impls.ticketlock import TICKETLOCK_VARS, ticketlock_fill
    from repro.toolkit import verify_lock_implementation

    from repro.engine import ExplorationEngine

    options = options or {}
    # Refinement needs full transition graphs, so there is nothing to
    # cache: the engine only carries the strategy and counts the
    # explorations (two per client — each program is explored once and
    # shared by the simulation game and trace inclusion).
    engine = ExplorationEngine(strategy=options.get("strategy", "bfs"))
    ok = True
    for fill, lib_vars in (
        (seqlock_fill, SEQLOCK_VARS),
        (ticketlock_fill, TICKETLOCK_VARS),
        (spinlock_fill, SPINLOCK_VARS),
    ):
        report = verify_lock_implementation(fill, lib_vars, engine=engine)
        print(report.describe())
        ok &= report.ok
    print(f"engine: {engine.explorations} explorations")
    return ok


def run_witness(options: Optional[dict] = None) -> bool:
    """Extract and print the shortest execution exhibiting a litmus
    test's weak outcome; True iff reachability matches the RC11 RAR
    verdict (weak allowed ⇒ witness exists, forbidden ⇒ none).

    The search rides the configured engine — strategy and reduction
    both apply — with predecessor tracking instead of stored
    configurations; under ``--reduction closure`` (the default) the
    reduced search's macro-steps are re-expanded so the printed
    schedule replays step-for-step through the unreduced semantics.
    """
    from repro.litmus.catalog import LITMUS_TESTS
    from repro.util.errors import VerificationError

    options = options or {}
    tests = {t.name: t for t in LITMUS_TESTS}
    name = options.get("test")
    if not name:
        raise ValueError(
            "usage: python -m repro witness <litmus-test> "
            f"[--strategy S --reduction R]; "
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


def run_batch_cmd(options: Optional[dict] = None) -> bool:
    """Run the batch job suite; True iff every job passes."""
    from repro.engine.batch import run_batch

    options = options or {}
    trace = _make_trace(options)
    try:
        report = run_batch(
            jobs=options.get("jobs"),
            workers=options.get("workers", 1),
            use_cache=not options.get("no_cache", False),
            json_path=options.get("json"),
            reduction=options.get("reduction", "closure"),
            trace=trace,
        )
    finally:
        if trace is not None:
            trace.close()
    print(report.describe())
    if not options.get("quiet", False):
        merged = report.aggregate_metrics()
        if merged is not None:
            from repro.obs import Metrics

            print(Metrics().merge(merged).describe())
    if options.get("json"):
        print(f"report written to {options['json']}")
    return report.ok


#: Flags each command actually reads; anything else is a usage error
#: rather than a silent no-op.
_COMMAND_FLAGS = {
    "litmus": {
        "strategy", "no_cache", "reduction", "profile", "trace", "quiet",
        "verbose", "analysis",
    },
    "figures": set(),
    "refine": {"strategy", "quiet", "verbose"},
    "batch": {
        "workers", "jobs", "json", "no_cache", "reduction", "profile",
        "trace", "quiet", "verbose",
    },
    "witness": {
        "strategy", "reduction", "trace", "quiet", "verbose", "analysis",
    },
    "lint": {"quiet", "verbose"},
    "all": {
        "strategy", "no_cache", "reduction", "trace", "quiet", "verbose",
        "analysis",
    },
}


def _parse_options(args, command: str) -> Optional[dict]:
    """Parse trailing CLI flags; None signals a usage error."""
    options = {
        "workers": 1,
        "strategy": "bfs",
        "no_cache": False,
        "reduction": "closure",
        "profile": None,
        "trace": None,
        "quiet": False,
        "verbose": False,
        "analysis": "off",
    }
    given = set()
    i = 0
    while i < len(args):
        flag = args[i]
        if flag == "--no-cache":
            options["no_cache"] = True
            given.add("no_cache")
        elif flag in ("--quiet", "-q"):
            options["quiet"] = True
            given.add("quiet")
        elif flag in ("--verbose", "-v"):
            options["verbose"] = True
            given.add("verbose")
        elif flag in (
            "--workers", "--strategy", "--jobs", "--json", "--reduction",
            "--profile", "--trace", "--analysis",
        ):
            if i + 1 >= len(args):
                return None
            value = args[i + 1]
            i += 1
            given.add(flag.lstrip("-"))
            if flag == "--workers":
                try:
                    options["workers"] = int(value)
                except ValueError:
                    return None
            elif flag == "--strategy":
                options["strategy"] = value
            elif flag == "--jobs":
                options["jobs"] = [j for j in value.split(",") if j]
            elif flag == "--reduction":
                from repro.engine import REDUCTIONS

                if value not in REDUCTIONS:
                    print(
                        f"error: unknown reduction {value!r}; expected "
                        + " or ".join(REDUCTIONS)
                    )
                    return None
                options["reduction"] = value
            elif flag == "--profile":
                options["profile"] = value
            elif flag == "--analysis":
                from repro.analysis import ANALYSIS_POLICIES

                if value not in ANALYSIS_POLICIES:
                    print(
                        f"error: unknown analysis policy {value!r}; expected "
                        + " or ".join(ANALYSIS_POLICIES)
                    )
                    return None
                options["analysis"] = value
            elif flag == "--trace":
                options["trace"] = value
            else:
                options["json"] = value
        else:
            return None
        i += 1
    unsupported = given - _COMMAND_FLAGS[command]
    if unsupported:
        flags = ", ".join(
            "--" + f.replace("_", "-") for f in sorted(unsupported)
        )
        print(f"error: {flags} not supported by the {command!r} command")
        return None
    return options


def main(argv) -> int:
    """Dispatch the CLI command; returns a process exit code."""
    command = argv[1] if len(argv) > 1 else "all"
    dispatch = {
        "litmus": [run_litmus],
        "figures": [run_figures],
        "refine": [run_refine],
        "batch": [run_batch_cmd],
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
    from repro.obs import configure_verbosity

    configure_verbosity(
        quiet=options.get("quiet", False),
        verbose=options.get("verbose", False),
    )
    import os

    env_sets = {}
    if options.get("profile"):
        # The profiling hook is environment-keyed so it reaches the
        # batch job processes as well as this one.
        env_sets["REPRO_PROFILE"] = options["profile"]
    saved = {k: os.environ.get(k) for k in env_sets}
    os.environ.update(env_sets)
    ok = True
    try:
        for i, job in enumerate(dispatch[command]):
            if i:
                print()
            try:
                ok &= job(options)
            except ValueError as exc:  # bad strategy / job names, etc.
                print(f"error: {exc}")
                return 2
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    print()
    print("ALL CHECKS PASS" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
