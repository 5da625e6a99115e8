"""R1 — Reduction layer: ε-closure + covering-read prune vs unreduced.

Both legs drive the *same* engine loop (`explore_sequential`) over the
same programs, once with ``reduction="off"`` and once with
``reduction="closure"`` (:mod:`repro.semantics.reduce`), asserting
terminal-outcome parity on every run, so the measured ratios isolate
the reduction.

* **smoke** (always on): the full litmus catalog.  Stored-state counts
  are deterministic, so the headline **≥2x aggregate state reduction**
  is asserted unconditionally; per-test counts are committed to
  ``benchmarks/BENCH_reduction.json``, which doubles as the baseline
  the CLI reads to report "states explored vs. states a full
  exploration would store" without re-running the full exploration.
  The wall-clock ratio — each leg timed as the median of
  :data:`PASSES` catalog passes — is recorded next to the committed
  baseline and, with ``REPRO_PERF_SMOKE=1`` (the CI perf job), a >2x
  regression of that *ratio* fails the run.  Regenerate the baseline
  with ``REPRO_BENCH_WRITE_BASELINE=1``.
* **large** (``REPRO_BENCH_LARGE=1``): a ≥50k-state polling-ring space,
  where the reduction must deliver **≥1.5x wall-clock** end to end.
"""

import json
import os
import statistics
import time
from pathlib import Path

import pytest

from repro.engine.core import explore_sequential
from repro.lang import ast as A
from repro.lang.expr import Lit, Reg
from repro.lang.program import Program, Thread
from repro.litmus.catalog import LITMUS_TESTS

BASELINE_PATH = Path(__file__).parent / "BENCH_reduction.json"

#: Fail the perf-smoke gate when the measured closure-vs-off wall-clock
#: speedup drops below half the committed baseline speedup.
REGRESSION_FACTOR = 2.0

#: The headline aggregate state-reduction gate over the catalog.
STATE_RATIO_FLOOR = 2.0


#: Catalog passes per leg: each leg's time is the median of its passes.
#: One pass takes about 200 ms, so a single gen-2 collection landing in
#: one leg of one pass moves the ratio by up to 0.3x.
PASSES = 5


def _measure_catalog():
    times_off, times_red = [], []
    for _ in range(PASSES):
        per_test = {}
        tot_off = tot_red = 0
        t_off = t_red = 0.0
        for test in LITMUS_TESTS:
            program = test.build()
            t0 = time.perf_counter()
            off = explore_sequential(program)
            t_off += time.perf_counter() - t0
            program = test.build()
            t0 = time.perf_counter()
            red = explore_sequential(program, reduction="closure")
            t_red += time.perf_counter() - t0
            assert off.terminal_locals(*test.regs) == red.terminal_locals(
                *test.regs
            ), f"outcome parity broken on {test.name}"
            per_test[test.name] = {
                "off": off.state_count,
                "closure": red.state_count,
            }
            tot_off += off.state_count
            tot_red += red.state_count
        times_off.append(t_off)
        times_red.append(t_red)
    return (
        per_test, tot_off, tot_red,
        statistics.median(times_off), statistics.median(times_red),
    )


def test_reduction_catalog_smoke(record_row):
    per_test, tot_off, tot_red, t_off, t_red = _measure_catalog()
    state_ratio = tot_off / tot_red
    time_ratio = t_off / t_red if t_red > 0 else float("inf")

    if os.environ.get("REPRO_BENCH_WRITE_BASELINE", "") == "1":
        BASELINE_PATH.write_text(
            json.dumps(
                {
                    "catalog": per_test,
                    "totals": {
                        "off": tot_off,
                        "closure": tot_red,
                        "state_ratio": round(state_ratio, 2),
                        "time_ratio": round(time_ratio, 2),
                    },
                },
                indent=2,
            )
            + "\n"
        )

    baseline = json.loads(BASELINE_PATH.read_text())
    floor = baseline["totals"]["time_ratio"] / REGRESSION_FACTOR
    enforce = os.environ.get("REPRO_PERF_SMOKE", "") == "1"
    ok = state_ratio >= STATE_RATIO_FLOOR and (
        time_ratio >= floor or not enforce
    )
    record_row(
        "R1 reduction catalog",
        f"≥{STATE_RATIO_FLOOR}x fewer stored states over the litmus "
        "catalog, outcomes identical",
        f"{tot_off} -> {tot_red} states ({state_ratio:.2f}x), "
        f"wall-clock {time_ratio:.2f}x",
        ok,
    )
    # Counts are deterministic: both the committed baseline and the
    # headline gate hold on every run, on any hardware.
    assert per_test == baseline["catalog"], (
        "catalog or reduction changed: regenerate BENCH_reduction.json "
        "with REPRO_BENCH_WRITE_BASELINE=1"
    )
    assert state_ratio >= STATE_RATIO_FLOOR, (
        f"reduction regressed: {state_ratio:.2f}x < {STATE_RATIO_FLOOR}x "
        "aggregate stored-state reduction over the litmus catalog"
    )
    if enforce:
        assert time_ratio >= floor, (
            f"reduction perf regression: {time_ratio:.2f}x < {floor:.2f}x "
            f"(committed baseline {baseline['totals']['time_ratio']}x, "
            f"allowed regression {REGRESSION_FACTOR}x)"
        )


def _polling_ring(n: int, extra_reads: int) -> Program:
    """n threads: publish (d_i, f_i), poll f_{i+1}, then read
    ``1 + extra_reads`` neighbouring data variables — the ≥50k-state
    relaxed polling workload of the large leg."""
    threads = {}
    client_vars = {}
    for i in range(n):
        j = (i + 1) % n
        stmts = [
            A.Write(f"d{i}", Lit(5)),
            A.Write(f"f{i}", Lit(1)),
            A.LocalAssign(f"a{i}", Lit(0)),
            A.While(Reg(f"a{i}").eq(0), A.Read(f"a{i}", f"f{j}")),
            A.Read(f"r{i}", f"d{j}"),
        ]
        for k in range(extra_reads):
            stmts.append(A.Read(f"s{i}_{k}", f"d{(i + 2 + k) % n}"))
        threads[str(i + 1)] = Thread(A.seq(*stmts))
        client_vars[f"d{i}"] = 0
        client_vars[f"f{i}"] = 0
    return Program(threads=threads, client_vars=client_vars)


@pytest.mark.skipif(
    os.environ.get("REPRO_BENCH_LARGE", "") != "1",
    reason="≥50k-state space (minutes of unreduced exploration); "
    "set REPRO_BENCH_LARGE=1",
)
def test_reduction_large_space(record_row):
    """The ≥1.5x wall-clock claim on a ≥50k-state space."""
    cap = 2_000_000
    program = _polling_ring(4, extra_reads=2)
    t0 = time.perf_counter()
    red = explore_sequential(program, max_states=cap, reduction="closure")
    red_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    off = explore_sequential(program, max_states=cap)
    off_s = time.perf_counter() - t0
    regs = tuple((str(i + 1), f"r{i}") for i in range(4))
    assert off.terminal_locals(*regs) == red.terminal_locals(*regs)
    speedup = off_s / red_s if red_s > 0 else float("inf")
    ok = off.state_count >= 50_000 and speedup >= 1.5
    record_row(
        "R1 reduction large",
        "≥50k unreduced states, closure ≥1.5x wall-clock",
        f"{off.state_count} -> {red.state_count} states "
        f"({off.state_count / red.state_count:.2f}x), "
        f"{off_s:.1f}s -> {red_s:.1f}s ({speedup:.2f}x)",
        ok,
    )
    assert off.state_count >= 50_000
    assert speedup >= 1.5
