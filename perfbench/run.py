#!/usr/bin/env python3
"""Time-to-verdict benchmark for the ``repro`` verifier.

Run from the root of a checkout::

    python3 perfbench/run.py --workload wide-4x3 --seed 1 --seconds 40 --trace 0

Every repetition runs in a fresh single-threaded process
(``python -m perfbench.worker``) with ``workers=1`` and the result cache
off; this process only starts them one at a time and waits.  With
``--trace 0`` it repeats the workload until ``--seconds`` have passed
and reports the medians of the end-to-end metrics; with ``--trace 1`` it
makes one run with a metrics sink and one traced run and reports the
per-layer metrics.  The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("wide-4x3", "verdict-battery", "lock-refinement")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "rss_peak_mb": "MB"}

#: Per-layer metric -> unit; every traced run reports all of them.
PER_LAYER_UNITS = {
    "trace.wall_s": "s",
    "trace.overhead": "ratio",
    "trace.spans": "count",
    "trace.kernel_share": "ratio",
    "harness.self_s": "s",
    "engine.core.self_s": "s",
    "engine.core.states": "count",
    "engine.core.edges": "count",
    "engine.core.new_state_ratio": "ratio",
    "engine.core.frontier_peak": "count",
    "engine.core.states_per_sec": "1/s",
    "engine.core.bytes_per_state": "B",
    "semantics.canon.self_s": "s",
    "semantics.canon.calls": "count",
    "semantics.step.self_s": "s",
    "semantics.step.calls": "count",
    "semantics.step.transitions": "count",
    "memory.transitions.self_s": "s",
    "memory.transitions.calls": "count",
    "semantics.reduce.self_s": "s",
    "reduce.epsilon_fused": "count",
    "reduce.covering_pruned": "count",
    "semantics.dpor.self_s": "s",
    "reduce.dpor.sleep_blocked": "count",
    "reduce.dpor.persistent_expanded": "count",
    "reduce.dpor.static_disjoint": "count",
    "analysis.self_s": "s",
    "analysis.programs": "count",
    "logic.owicki.self_s": "s",
    "logic.owicki.obligations": "count",
    "refinement.simulation.self_s": "s",
    "refinement.simulation.product_pairs": "count",
    "refinement.tracecheck.self_s": "s",
    "refinement.tracecheck.concrete_traces": "count",
    "refinement.tracecheck.abstract_traces": "count",
}

#: ``repro.obs`` counters reported under their own names.
SINK_COUNTERS = (
    "reduce.epsilon_fused",
    "reduce.covering_pruned",
    "reduce.dpor.sleep_blocked",
    "reduce.dpor.persistent_expanded",
    "reduce.dpor.static_disjoint",
)

#: Set-up-only processes started before the timed repetitions; their
#: set-up times join the median with those of the repetitions.
SETUP_RUNS = 4

#: The whole run must end well inside three minutes.
RUN_LIMIT_S = 170.0

SPANS_DIR = ".perfbench_out"


class HarnessError(Exception):
    """The benchmark itself failed (not a wrong verdict)."""


class Runner:
    """Starts worker processes from ``root``, one at a time."""

    def __init__(self, root: Path, workload: str, small: bool) -> None:
        self.root = root
        self.workload = workload
        self.small = small
        self.started = time.perf_counter()
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        self.env["PYTHONPATH"] = str(root / "src")
        self.env["REPRO_CACHE"] = "0"

    def warm_bytecode(self) -> None:
        """Compile every module once, so that no timed process pays for
        writing ``.pyc`` files after a fresh checkout.  Best effort: a
        tree that cannot be written to is merely measured cold."""
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", "src/repro", "perfbench"],
            cwd=self.root, env=self.env, capture_output=True, timeout=60,
        )

    def worker(self, seed: str, mode: str, spans_out: Path = None) -> dict:
        cmd = [
            sys.executable, "-m", "perfbench.worker",
            "--workload", self.workload, "--seed", seed, "--mode", mode,
        ]
        if self.small:
            cmd.append("--small")
        if spans_out is not None:
            cmd += ["--spans-out", str(spans_out)]
        stdout = self._run(cmd)
        try:
            return json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, ValueError) as exc:
            raise HarnessError(f"worker printed no result: {exc}") from exc

    def _run(self, cmd) -> str:
        left = RUN_LIMIT_S - (time.perf_counter() - self.started)
        if left <= 0:
            raise HarnessError(f"out of time before {' '.join(cmd[2:4])}")
        try:
            proc = subprocess.run(
                cmd, cwd=self.root, env=self.env, capture_output=True,
                text=True, timeout=left,
            )
        except subprocess.TimeoutExpired as exc:
            raise HarnessError(f"{' '.join(cmd[2:])} timed out") from exc
        if proc.returncode != 0:
            raise HarnessError(
                f"{' '.join(cmd[2:])} exited {proc.returncode}:\n"
                + proc.stderr[-2000:]
            )
        return proc.stdout


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(runner: Runner, seed: str, seconds: float):
    """End-to-end metrics: medians over fresh-process repetitions, each
    time scaled by the speed of the CPU it was measured on."""
    setups = [
        runner.worker(f"{seed}.setup{i}", "setup") for i in range(SETUP_RUNS)
    ]
    # Start another repetition only while one more still fits, so a run
    # lasts at most about ``seconds`` whatever the repetition length.
    deadline = time.perf_counter() + seconds
    reps, took = [], []
    while not reps or time.perf_counter() + statistics.mean(took) < deadline:
        t0 = time.perf_counter()
        reps.append(runner.worker(f"{seed}.{len(reps)}", "timed"))
        took.append(time.perf_counter() - t0)
    setups += reps
    walls = [r["wall_s"] * r["host_scale"] for r in reps]
    metrics = {
        "wall_s": _metric(statistics.median(walls), "s"),
        "setup_s": _metric(
            statistics.median(r["setup_s"] * r["host_scale"] for r in setups), "s"
        ),
        "rss_peak_mb": _metric(
            statistics.median(r["rss_peak_mb"] for r in reps), "MB"
        ),
    }
    notes = [
        f"repetitions {len(reps)}, wall_s " + " ".join(f"{w:.3f}" for w in walls),
        "  as measured " + " ".join(f"{r['wall_s']:.3f}" for r in reps)
        + ", CPU speed " + " ".join(f"{r['host_scale']:.2f}" for r in reps),
        "  reference kernel ms before/after "
        + " ".join("/".join(f"{h * 1e3:.1f}" for h in r["host_s"]) for r in reps),
        f"setup samples {len(setups)}",
    ]
    return reps, metrics, notes


def traced_run(runner: Runner, seed: str):
    """Per-layer metrics: one run with a metrics sink (the untraced
    reference), then one traced run on the same inputs."""
    probe = runner.worker(f"{seed}.0", "probe")
    spans_out = runner.root / SPANS_DIR / f"{runner.workload}-{seed}.spans"
    traced = runner.worker(f"{seed}.0", "traced", spans_out)
    layers = traced["layers"]
    sink = probe["sink"]
    values = {name: layers.get(name, 0) for name in PER_LAYER_UNITS}
    values["trace.overhead"] = traced["wall_s"] / probe["wall_s"]
    values["analysis.programs"] = layers.get("analysis.calls", 0)
    values["engine.core.states_per_sec"] = sink["states_per_sec"]
    values["engine.core.bytes_per_state"] = sink["bytes_per_state"]
    values["engine.core.frontier_peak"] = sink["gauges"].get(
        "explore.frontier_peak", 0
    )
    for name in SINK_COUNTERS:
        values[name] = traced["sink"]["counters"].get(name, 0)
    metrics = {
        name: _metric(values[name], unit) for name, unit in PER_LAYER_UNITS.items()
    }
    notes = [
        f"untraced wall {probe['wall_s']:.3f} s, traced wall "
        f"{traced['wall_s']:.3f} s, spans written to {spans_out}"
    ]
    return [probe, traced], metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Time-to-verdict benchmark for the repro verifier."
    )
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--small", action="store_true",
        help="reduced inputs (for the harness's own tests)",
    )
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro source tree (src/repro) under {root}",
            file=sys.stderr,
        )
        return 2
    runner = Runner(root, args.workload, args.small)
    try:
        runner.warm_bytecode()
        if args.trace:
            runs, metrics, notes = traced_run(runner, args.seed)
        else:
            runs, metrics, notes = timed_run(runner, args.seed, args.seconds)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["wrong"] for r in runs)
    for r in runs:
        for failure in r["failures"]:
            print(f"WRONG {failure}", file=sys.stderr)
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
        f"nproc={os.cpu_count()} python={platform.python_version()}"
    )
    for note in notes:
        print(f"  {note}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    print(f"  verdicts {attempted}, wrong {failed}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
