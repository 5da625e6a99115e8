"""One repetition of a workload, in a fresh process.

Run from the root of a checkout with ``src`` on ``PYTHONPATH``::

    python -m perfbench.worker --workload wide-4x3 --seed 7 --mode timed

and prints one JSON object on its last line of output.  Modes:

``setup``   imports and input construction only;
``timed``   the workload with no telemetry attached (end-to-end metrics);
``probe``   the workload with a :class:`repro.obs.Metrics` sink attached;
``traced``  as ``probe``, plus layer spans (:mod:`perfbench.tracing`),
            written to ``--spans-out`` when given.

A fresh process per repetition keeps the process-wide memo caches of
``repro`` cold at the start of every measurement.  The process stays on
the CPU it started on.  In ``setup`` and ``timed`` mode it times the
reference kernel (:mod:`perfbench.reference`) there, after its set-up
and again after its workload, and reports the CPU's speed as
``host_scale``.
"""

import os
import time


def _pin_to_current_cpu() -> None:
    """Keep this process on the CPU it is running on, so that the
    reference kernel times the CPU the workload runs on.  Best effort:
    without ``sched_setaffinity`` the process may move."""
    try:
        with open("/proc/self/stat") as f:
            # Field 39, "processor"; the fields after the ")" of the
            # command name start at field 3.
            cpu = int(f.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, AttributeError, ValueError, IndexError):
        pass


_pin_to_current_cpu()
_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

MODES = ("setup", "timed", "probe", "traced")


def _rss_bytes() -> int:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def layer_metrics(recorder, counters: dict, wall_s: float) -> dict:
    """Per-layer metrics of a traced run: self time and calls per layer,
    the counters read off return values and the metrics sink."""
    from perfbench.tracing import LAYERS, ROOT_LAYER

    self_ns = recorder.layer_self_ns()
    calls = recorder.layer_calls()
    out = {
        "trace.wall_s": wall_s,
        "trace.spans": len(recorder),
        f"{ROOT_LAYER}.self_s": self_ns.get(ROOT_LAYER, 0) / 1e9,
    }
    for layer, _module, _functions in LAYERS:
        out[f"{layer}.self_s"] = self_ns.get(layer, 0) / 1e9
        out[f"{layer}.calls"] = calls.get(layer, 0)
    out.update(recorder.counters)
    states = counters.get("explore.states", 0)
    edges = counters.get("explore.edges", 0)
    out["engine.core.states"] = states
    out["engine.core.edges"] = edges
    out["engine.core.new_state_ratio"] = states / edges if edges else 0.0
    kernel = sum(
        self_ns.get(layer, 0)
        for layer in (
            "semantics.canon", "semantics.step", "memory.transitions", "engine.core"
        )
    )
    total = sum(self_ns.values())
    out["trace.kernel_share"] = kernel / total if total else 0.0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--mode", choices=MODES, default="timed")
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--spans-out", type=Path)
    args = parser.parse_args(argv)

    from repro.obs import Metrics

    from perfbench import workloads

    metrics = Metrics() if args.mode in ("probe", "traced") else None
    steps = workloads.build(args.workload, args.seed, args.small, metrics)
    setup_s = time.perf_counter() - _START
    result = {"setup_s": setup_s}
    if args.mode in ("setup", "timed"):
        from perfbench.reference import NOMINAL_S, host_time

        host_s = [host_time()]
    if args.mode == "setup":
        result.update(host_s=host_s, host_scale=NOMINAL_S / host_s[0])
        print(json.dumps(result))
        return 0

    rss_before = _rss_bytes()
    recorder = None
    if args.mode == "traced":
        from perfbench.tracing import ROOT_LAYER, SpanRecorder

        recorder = SpanRecorder()
        recorder.install()
        root = recorder.open(f"{ROOT_LAYER}:{args.workload}")
    t0 = time.perf_counter()
    try:
        outcome = workloads.execute(steps)
    finally:
        wall_s = time.perf_counter() - t0
        if recorder is not None:
            recorder.close(root)
            recorder.uninstall()
    rss_peak = _rss_bytes()
    if args.mode == "timed":
        host_s.append(host_time())
        result.update(host_s=host_s, host_scale=NOMINAL_S / (sum(host_s) / 2))

    result.update(
        wall_s=wall_s,
        rss_peak_mb=rss_peak / 2**20,
        attempted=outcome.attempted,
        wrong=outcome.wrong,
        failures=outcome.failures,
    )
    if metrics is not None:
        counters = metrics.counters
        states = counters.get("explore.states", 0)
        elapsed = metrics.timers.get("explore.elapsed", 0.0)
        result["sink"] = {
            "counters": dict(counters),
            "gauges": dict(metrics.gauges),
            "states_per_sec": states / elapsed if elapsed else 0.0,
            "bytes_per_state": (rss_peak - rss_before) / states if states else 0.0,
        }
    if recorder is not None:
        result["layers"] = layer_metrics(recorder, metrics.counters, wall_s)
        if args.spans_out is not None:
            args.spans_out.parent.mkdir(parents=True, exist_ok=True)
            recorder.write(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
