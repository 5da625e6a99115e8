"""R2 — DPOR layer: sleep sets + persistent sets vs ε-closure alone.

Both legs drive the same engine loop (``explore_sequential``) over a
family of *composed* litmus programs — disjoint-variable products of
catalog tests, the workload class whose interleavings are exponential
in the number of independent components and where partial-order
reduction pays — once with ``reduction="closure"`` and once with
``reduction="dpor"`` (:mod:`repro.semantics.dpor`), asserting
terminal-valuation parity on every run so the measured ratios isolate
the DPOR layer.

Plain single litmus tests are deliberately *not* the benchmark family:
their threads all conflict on the same variables, so the persistent
sets degenerate to full expansion and the sink-product floor (every
distinct terminal canonical state must be stored by any sound policy)
caps the achievable ratio near 1x.  The composed family is where DPOR
is designed to win — and the headline **≥5x aggregate stored-state
reduction over closure** is asserted deterministically on every run.

Per-member counts are committed to ``benchmarks/BENCH_dpor.json``
(regenerate with ``REPRO_BENCH_WRITE_BASELINE=1``); with
``REPRO_PERF_SMOKE=1`` (the CI perf job) a >2x regression of the
recorded closure-vs-dpor wall-clock ratio fails the run.

Both policies run the visible-step memo
(:class:`repro.semantics.step.StepMemo`); its counters
(``explore.memo.lookups`` / ``explore.memo.entries``) are pinned per
member in :data:`FAMILY_MEMO`, counted in separate untimed explorations.
They are deterministic, so a change in either means the memo key, the
rules or the policy changed, on any host.
"""

import dataclasses
import json
import os
import time
from pathlib import Path

from repro.engine.core import explore_sequential
from repro.lang import ast as A
from repro.lang.program import Program, Thread
from repro.litmus.catalog import LITMUS_TESTS
from repro.obs.metrics import Metrics

BASELINE_PATH = Path(__file__).parent / "BENCH_dpor.json"

#: Fail the perf-smoke gate when the measured dpor-vs-closure wall-clock
#: speedup drops below half the committed baseline speedup.
REGRESSION_FACTOR = 2.0

#: The headline aggregate state-reduction gate over the composed family.
STATE_RATIO_FLOOR = 5.0

#: ``(explore.memo.lookups, explore.memo.entries)`` per family member
#: and policy, next to the state counts of ``BENCH_dpor.json``.
FAMILY_MEMO = {
    "2+2W-x-ring2": {"closure": (5453, 2520), "dpor": (507, 247)},
    "iriw-await-x2": {"closure": (1656, 784), "dpor": (410, 267)},
    "iriw-await-x-ring2": {"closure": (1256, 672), "dpor": (152, 111)},
    "ring2-x2": {"closure": (952, 576), "dpor": (120, 84)},
}

_BY_NAME = {t.name: t for t in LITMUS_TESTS}


def _ren_node(node, suffix):
    """Rename every global variable in ``node`` by appending ``suffix``
    (registers are thread-local and need no renaming)."""
    if node is None:
        return None
    if isinstance(node, (A.Write, A.Read, A.Cas, A.Fai)):
        return dataclasses.replace(node, var=node.var + suffix)
    if isinstance(node, A.Seq):
        return dataclasses.replace(
            node,
            first=_ren_node(node.first, suffix),
            second=_ren_node(node.second, suffix),
        )
    if isinstance(node, A.If):
        return dataclasses.replace(
            node,
            then_branch=_ren_node(node.then_branch, suffix),
            else_branch=_ren_node(node.else_branch, suffix),
        )
    if isinstance(node, A.While):
        return dataclasses.replace(node, body=_ren_node(node.body, suffix))
    if isinstance(node, A.Labeled):
        return dataclasses.replace(node, body=_ren_node(node.body, suffix))
    if isinstance(node, A.LibBlock):
        return dataclasses.replace(node, body=_ren_node(node.body, suffix))
    # LocalAssign (register-only) and anything without globals.
    return node


def _compose(*programs):
    """The disjoint product: all threads side by side, with each
    component's variables (and thread ids, for uniqueness) suffixed."""
    threads = {}
    client_vars = {}
    for i, program in enumerate(programs):
        suffix = "" if i == 0 else chr(ord("a") + i - 1)
        for tid, thread in program.threads.items():
            threads[tid + suffix] = Thread(
                _ren_node(thread.body, suffix), thread.done_label
            )
        for var, val in program.client_vars.items():
            client_vars[var + suffix] = val
    return Program(threads=threads, client_vars=client_vars)


def _family():
    ring2 = _BY_NAME["MP-ring-2-RA"].build
    iriw = _BY_NAME["IRIW-await-RA"].build
    w22 = _BY_NAME["2+2W-RA"].build
    return {
        "2+2W-x-ring2": _compose(w22(), ring2()),
        "iriw-await-x2": _compose(iriw(), iriw()),
        "iriw-await-x-ring2": _compose(iriw(), ring2()),
        "ring2-x2": _compose(ring2(), ring2()),
    }


def _terminal_valuations(result):
    return {
        tuple(
            sorted((tid, ls.items_sorted()) for tid, ls in cfg.locals.items())
        )
        for cfg in result.terminals
    }


def _measure_family():
    per_member = {}
    tot_closure = tot_dpor = 0
    t_closure = t_dpor = 0.0
    for name, program in _family().items():
        t0 = time.perf_counter()
        closure = explore_sequential(program, reduction="closure")
        t_closure += time.perf_counter() - t0
        t0 = time.perf_counter()
        dpor = explore_sequential(program, reduction="dpor")
        t_dpor += time.perf_counter() - t0
        assert _terminal_valuations(closure) == _terminal_valuations(
            dpor
        ), f"terminal parity broken on {name}"
        assert bool(closure.stuck) == bool(dpor.stuck), name
        per_member[name] = {
            "closure": closure.state_count,
            "dpor": dpor.state_count,
        }
        tot_closure += closure.state_count
        tot_dpor += dpor.state_count
    return per_member, tot_closure, tot_dpor, t_closure, t_dpor


def test_dpor_family_smoke(record_row):
    per_member, tot_closure, tot_dpor, t_closure, t_dpor = _measure_family()
    state_ratio = tot_closure / tot_dpor
    time_ratio = t_closure / t_dpor if t_dpor > 0 else float("inf")

    if os.environ.get("REPRO_BENCH_WRITE_BASELINE", "") == "1":
        BASELINE_PATH.write_text(
            json.dumps(
                {
                    "family": per_member,
                    "totals": {
                        "closure": tot_closure,
                        "dpor": tot_dpor,
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
        "R2 dpor family",
        f"≥{STATE_RATIO_FLOOR}x fewer stored states than closure over "
        "the composed-litmus family, terminals identical",
        f"{tot_closure} -> {tot_dpor} states ({state_ratio:.2f}x), "
        f"wall-clock {time_ratio:.2f}x",
        ok,
    )
    # Counts are deterministic: both the committed baseline and the
    # headline gate hold on every run, on any hardware.
    assert per_member == baseline["family"], (
        "family or dpor changed: regenerate BENCH_dpor.json with "
        "REPRO_BENCH_WRITE_BASELINE=1"
    )
    assert state_ratio >= STATE_RATIO_FLOOR, (
        f"dpor regressed: {state_ratio:.2f}x < {STATE_RATIO_FLOOR}x "
        "aggregate stored-state reduction vs closure over the family"
    )
    if enforce:
        assert time_ratio >= floor, (
            f"dpor perf regression: {time_ratio:.2f}x < {floor:.2f}x "
            f"(committed baseline {baseline['totals']['time_ratio']}x, "
            f"allowed regression {REGRESSION_FACTOR}x)"
        )


def test_dpor_family_memo_counts():
    counts = {}
    for name, program in _family().items():
        counts[name] = {}
        for reduction in ("closure", "dpor"):
            metrics = Metrics()
            explore_sequential(program, reduction=reduction, metrics=metrics)
            counters = metrics.snapshot()["counters"]
            counts[name][reduction] = (
                counters["explore.memo.lookups"],
                counters["explore.memo.entries"],
            )
    assert counts == FAMILY_MEMO
