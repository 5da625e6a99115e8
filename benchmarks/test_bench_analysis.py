"""R3 — analysis layer: phase-sensitive vs whole-continuation footprints.

Both legs drive the same DPOR exploration (``reduction="dpor"``) over a
family of *modal* composed programs — disjoint-variable thread products
where every thread ends in a branch on a mode register preset by
``init_locals``, whose statically-dead arm touches one variable ``z``
shared by all threads.  Whole-continuation footprints
(:func:`repro.analysis.footprints.thread_footprint`) union both branch arms,
so ``z`` connects every thread in the conflict graph and the persistent
sets degenerate to full expansion while the threads are mid-work.  The
phase-sensitive summaries (:func:`repro.analysis.phase_footprint`)
constant-fold the branch under the thread's concrete locals, drop the
dead arm, and split the threads into singleton components — the
disjoint product the programs actually are.

The legs are toggled with
:func:`repro.semantics.dpor.set_footprint_mode` so the *only* variable
is the footprint feeding DPOR's conflict partitioning; terminal-
valuation parity is asserted on every member, and the headline
**≥1.2x aggregate stored-state reduction** is asserted
deterministically on every run (the measured ratio is far larger).

Per-member counts are committed to ``benchmarks/BENCH_analysis.json``
(regenerate with ``REPRO_BENCH_WRITE_BASELINE=1``); with
``REPRO_PERF_SMOKE=1`` (the CI perf job) a >2x regression of the
recorded whole-vs-phase wall-clock ratio fails the run.
"""

import json
import os
import time
from pathlib import Path

from repro.engine.core import explore_sequential
from repro.lang import ast as A
from repro.lang.expr import Lit, Reg
from repro.lang.program import Program, Thread
from repro.semantics.dpor import set_footprint_mode

BASELINE_PATH = Path(__file__).parent / "BENCH_analysis.json"

#: Fail the perf-smoke gate when the measured phase-vs-whole wall-clock
#: speedup drops below half the committed baseline speedup.
REGRESSION_FACTOR = 2.0

#: The headline aggregate state-reduction gate (the issue's floor; the
#: family measures far above it).
STATE_RATIO_FLOOR = 1.2


def _modal_member(k: int) -> Program:
    """``k`` independent writer threads, each two visible writes to its
    own variable followed by a mode branch whose dead arm writes the
    shared ``z``.  The dead arm sits *after* the visible work on
    purpose: a head-position constant branch would be folded by the
    ε-closure itself, hiding the refinement being measured."""
    threads = {}
    client_vars = {"z": 0}
    for i in range(k):
        var = f"a{i}"
        client_vars[var] = 0
        threads[str(i + 1)] = Thread(
            A.seq(
                A.Write(var, Lit(1)),
                A.seq(
                    A.Write(var, Lit(2)),
                    A.If(
                        Reg("m").eq(0),
                        A.Write(var, Lit(3)),
                        A.Write("z", Lit(1)),
                    ),
                ),
            )
        )
    return Program(
        threads=threads,
        client_vars=client_vars,
        init_locals={tid: {"m": 0} for tid in threads},
    )


def _family():
    return {
        "modal-2": _modal_member(2),
        "modal-3": _modal_member(3),
        "modal-4": _modal_member(4),
    }


def _terminal_valuations(result):
    return {
        tuple(
            sorted((tid, ls.items_sorted()) for tid, ls in cfg.locals.items())
        )
        for cfg in result.terminals
    }


def _explore_with_mode(program, mode):
    previous = set_footprint_mode(mode)
    try:
        return explore_sequential(program, reduction="dpor")
    finally:
        set_footprint_mode(previous)


def _measure_family():
    per_member = {}
    tot_whole = tot_phase = 0
    t_whole = t_phase = 0.0
    for name, program in _family().items():
        t0 = time.perf_counter()
        whole = _explore_with_mode(program, "whole")
        t_whole += time.perf_counter() - t0
        t0 = time.perf_counter()
        phase = _explore_with_mode(program, "phase")
        t_phase += time.perf_counter() - t0
        assert _terminal_valuations(whole) == _terminal_valuations(
            phase
        ), f"terminal parity broken on {name}"
        assert bool(whole.stuck) == bool(phase.stuck), name
        per_member[name] = {
            "whole": whole.state_count,
            "phase": phase.state_count,
        }
        tot_whole += whole.state_count
        tot_phase += phase.state_count
    return per_member, tot_whole, tot_phase, t_whole, t_phase


def test_analysis_footprint_family_smoke(record_row):
    per_member, tot_whole, tot_phase, t_whole, t_phase = _measure_family()
    state_ratio = tot_whole / tot_phase
    time_ratio = t_whole / t_phase if t_phase > 0 else float("inf")

    if os.environ.get("REPRO_BENCH_WRITE_BASELINE", "") == "1":
        BASELINE_PATH.write_text(
            json.dumps(
                {
                    "family": per_member,
                    "totals": {
                        "whole": tot_whole,
                        "phase": tot_phase,
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
        "R3 analysis footprints",
        f"≥{STATE_RATIO_FLOOR}x fewer stored states under dpor with "
        "phase-sensitive footprints vs whole-continuation, terminals "
        "identical",
        f"{tot_whole} -> {tot_phase} states ({state_ratio:.2f}x), "
        f"wall-clock {time_ratio:.2f}x",
        ok,
    )
    # Counts are deterministic: both the committed baseline and the
    # headline gate hold on every run, on any hardware.
    assert per_member == baseline["family"], (
        "family or footprint analysis changed: regenerate "
        "BENCH_analysis.json with REPRO_BENCH_WRITE_BASELINE=1"
    )
    assert state_ratio >= STATE_RATIO_FLOOR, (
        f"phase footprints regressed: {state_ratio:.2f}x < "
        f"{STATE_RATIO_FLOOR}x aggregate stored-state reduction vs "
        "whole-continuation footprints over the modal family"
    )
    if enforce:
        assert time_ratio >= floor, (
            f"analysis perf regression: {time_ratio:.2f}x < {floor:.2f}x "
            f"(committed baseline {baseline['totals']['time_ratio']}x, "
            f"allowed regression {REGRESSION_FACTOR}x)"
        )
