"""S1 — State index: indexed vs naive component-state exploration.

The indexed :class:`~repro.memory.state.ComponentState` answers
``obs``/placement/canonicalisation queries through an incrementally
maintained per-variable index; :mod:`repro.memory.naive` retains the
original full-scan implementation.  Both representations are driven
through the *same* BFS loop over the same programs, so the measured
ratio isolates the state representation (parity of state/edge counts is
asserted on every run).

Two legs:

* **smoke** (always on): the Peterson state space (~1k states).
  Records the measured speedup next to the committed baseline in
  ``benchmarks/BENCH_state_index.json``; with ``REPRO_PERF_SMOKE=1``
  (the CI perf job) a >2x regression against the baseline *ratio*
  fails the run — the ratio of two same-host measurements transfers
  across machines, absolute wall-clock does not.  Regenerate the
  baseline with ``REPRO_BENCH_WRITE_BASELINE=1``.
* **large** (``REPRO_BENCH_LARGE=1``): the ≥50k-state space the
  headline claim is stated over — the index must be ≥2x faster than
  the naive representation sequentially.
"""

import json
import os
import time
from collections import deque
from pathlib import Path

import pytest

from benchmarks.spaces import wide_program
from repro.lang.program import Program
from repro.litmus.peterson import peterson_program
from repro.memory.naive import explore_naive
from repro.semantics.canon import canonical_key
from repro.semantics.config import initial_config
from repro.semantics.step import transitions

BASELINE_PATH = Path(__file__).parent / "BENCH_state_index.json"

#: Fail the perf-smoke gate when the measured indexed-vs-naive speedup
#: drops below half the committed baseline speedup (a >2x regression).
REGRESSION_FACTOR = 2.0


def _bfs_indexed(program: Program):
    """The indexed leg: identical loop shape to ``explore_naive``."""
    init = initial_config(program)
    seen = {canonical_key(program, init)}
    queue = deque([init])
    states, edges = 1, 0
    while queue:
        cfg = queue.popleft()
        for tr in transitions(program, cfg):
            edges += 1
            key = canonical_key(program, tr.target)
            if key not in seen:
                seen.add(key)
                states += 1
                queue.append(tr.target)
    return states, edges


def _measure(program: Program):
    t0 = time.perf_counter()
    states_i, edges_i = _bfs_indexed(program)
    indexed_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    states_n, edges_n, _terminals = explore_naive(program)
    naive_s = time.perf_counter() - t0
    assert (states_i, edges_i) == (states_n, edges_n), (
        f"representation parity broken: indexed {(states_i, edges_i)} "
        f"vs naive {(states_n, edges_n)}"
    )
    return states_i, indexed_s, naive_s


def test_state_index_smoke(record_row):
    states, indexed_s, naive_s = _measure(peterson_program())
    speedup = naive_s / indexed_s if indexed_s > 0 else float("inf")

    if os.environ.get("REPRO_BENCH_WRITE_BASELINE", "") == "1":
        BASELINE_PATH.write_text(
            json.dumps(
                {
                    "program": "peterson",
                    "states": states,
                    "indexed_s": round(indexed_s, 4),
                    "naive_s": round(naive_s, 4),
                    "speedup": round(speedup, 2),
                },
                indent=2,
            )
            + "\n"
        )

    baseline = json.loads(BASELINE_PATH.read_text())
    floor = baseline["speedup"] / REGRESSION_FACTOR
    enforce = os.environ.get("REPRO_PERF_SMOKE", "") == "1"
    ok = speedup >= floor or not enforce
    record_row(
        "S1 state index smoke",
        f"indexed ≥ {floor:.2f}x naive (½ of committed {baseline['speedup']}x)"
        + ("" if enforce else " [informational]"),
        f"{states} states, {speedup:.2f}x "
        f"({indexed_s:.2f}s vs {naive_s:.2f}s)",
        ok and speedup >= floor,
    )
    assert states == baseline["states"], (
        "smoke program changed: regenerate BENCH_state_index.json with "
        "REPRO_BENCH_WRITE_BASELINE=1"
    )
    if enforce:
        assert speedup >= floor, (
            f"state-index perf regression: {speedup:.2f}x < {floor:.2f}x "
            f"(committed baseline {baseline['speedup']}x, allowed "
            f"regression {REGRESSION_FACTOR}x)"
        )


@pytest.mark.skipif(
    os.environ.get("REPRO_BENCH_LARGE", "") != "1",
    reason="≥50k-state space (minutes of naive exploration); "
    "set REPRO_BENCH_LARGE=1",
)
def test_state_index_large_space(record_row):
    """The ≥2x sequential-speedup claim on a ≥50k-state space."""
    states, indexed_s, naive_s = _measure(wide_program(4, reads=3))
    speedup = naive_s / indexed_s if indexed_s > 0 else float("inf")
    ok = states >= 50_000 and speedup >= 2.0
    record_row(
        "S1 state index large",
        "≥50k states, indexed ≥2x naive sequentially",
        f"{states} states, {speedup:.2f}x "
        f"({indexed_s:.1f}s vs {naive_s:.1f}s)",
        ok,
    )
    assert states >= 50_000
    assert speedup >= 2.0
