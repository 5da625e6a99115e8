"""W1 — Witness machinery: parent-tracking overhead.

Recording predecessor edges (``track_parents=True``) costs the
sequential engine at most **15% states/sec** vs tracking off (the cost
is one extra dict insert per discovered state, re-hashing its canonical
key).  Both legs drive the identical ``explore_sequential`` loop over
Peterson's algorithm, interleaved and best-of-N; the ratio is enforced
under ``REPRO_PERF_SMOKE=1`` (CI) and recorded always.

The committed ``BENCH_witness.json`` records the measured numbers
(regenerate with ``REPRO_BENCH_WRITE_BASELINE=1``).
"""

import json
import os
import time
from pathlib import Path

from repro.engine.core import explore_sequential
from repro.litmus.peterson import peterson_program

BASELINE_PATH = Path(__file__).parent / "BENCH_witness.json"

#: Parent tracking may cost at most this fraction of states/sec.
OVERHEAD_FLOOR = 0.85


def _states_per_sec(track: bool, repeats: int) -> float:
    best = 0.0
    for _ in range(repeats):
        program = peterson_program()
        t0 = time.perf_counter()
        result = explore_sequential(program, track_parents=track)
        elapsed = time.perf_counter() - t0
        best = max(best, result.state_count / elapsed)
    return best


def test_parent_tracking_overhead(record_row):
    # Interleave the legs so clock drift hits both equally.
    off = on = 0.0
    for _ in range(3):
        off = max(off, _states_per_sec(False, 1))
        on = max(on, _states_per_sec(True, 1))
    ratio = on / off
    enforce = os.environ.get("REPRO_PERF_SMOKE", "") == "1"
    ok = ratio >= OVERHEAD_FLOOR or not enforce
    record_row(
        "W1 witness tracking overhead",
        f"parent tracking costs ≤{(1 - OVERHEAD_FLOOR):.0%} states/sec",
        f"{off:.0f} -> {on:.0f} states/sec ({ratio:.3f}x)",
        ratio >= OVERHEAD_FLOOR,
    )
    _update_baseline("states_per_sec_ratio", round(ratio, 3))
    if enforce:
        assert ratio >= OVERHEAD_FLOOR, (
            f"parent tracking regressed throughput to {ratio:.3f}x of the "
            f"untracked loop (floor {OVERHEAD_FLOOR}x)"
        )


def _update_baseline(key: str, value) -> None:
    if os.environ.get("REPRO_BENCH_WRITE_BASELINE", "") != "1":
        return
    data = {}
    if BASELINE_PATH.exists():
        data = json.loads(BASELINE_PATH.read_text())
    data[key] = value
    BASELINE_PATH.write_text(json.dumps(data, indent=2) + "\n")
