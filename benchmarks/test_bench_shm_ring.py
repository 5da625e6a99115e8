"""P2 — Zero-copy discipline of the pipeline's shm rings.

Counts intermediate batch copies per published batch on the Peterson
space, from the ``pipeline.batch_copies`` counter.  Batches are pickled
directly into ring memory and decoded directly out of it, so every
batch that fits a ring must report **zero** copies (only an oversized
batch, chunked across frames, pays one).  Copy counts are
host-independent, so the gate is enforced on every host, with
state-count parity against the sequential loop asserted in the same
run.
"""

import pytest

from repro.engine import ExplorationEngine
from repro.engine.shm import shm_available
from repro.litmus.peterson import peterson_program
from repro.obs.metrics import Metrics
from repro.semantics.explore import explore

pytestmark = pytest.mark.skipif(
    not shm_available(),
    reason="SharedMemory unavailable: the engine explores sequentially",
)


def test_transport_copy_discipline(record_row):
    """The rings publish with zero intermediate batch copies."""
    program = peterson_program()
    m = Metrics()
    result = ExplorationEngine(workers=2, metrics=m).explore(
        program, keep_configs=False
    )
    assert not result.truncated
    assert result.state_count == explore(program).state_count
    counters = m.counters
    batches = counters["pipeline.batches"]
    copies = counters.get("pipeline.batch_copies", 0)
    record_row(
        "P2 transport copies",
        "shm: 0 intermediate batch copies",
        f"{copies} copies / {batches} batches "
        f"({counters['shm.ring.frames']} frames, "
        f"{counters['shm.ring.bytes']} B)",
        batches > 0 and copies == 0,
    )
    assert batches > 0
    assert copies == 0, (
        "shm transport made intermediate batch copies: the rings are "
        "too small for whole batches (chunk fallback) or the zero-copy "
        "encode path regressed"
    )
