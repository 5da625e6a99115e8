"""A1 — Ablation: canonical timestamp hashing.

Canonicalisation identifies configurations up to order-isomorphic
timestamp relabelling.  The ablation explores the same programs with and
without it — the raw space through the reference search
``tests.conftest.raw_explore``, which keys states by ``Config`` itself:
the canonical space must be no larger, and on loop-heavy implementations
dramatically smaller — it is what makes the refinement checks
tractable.
"""

import pytest

from repro.lang import ast as A
from repro.lang.expr import Lit
from repro.lang.program import Program, Thread
from repro.semantics.explore import explore
from tests.conftest import (
    abstract_lock_client,
    mp_relaxed,
    raw_explore,
    seqlock_client,
    spinlock_client,
)


def sb_program():
    t1 = A.seq(A.Write("x", Lit(1)), A.Read("r1", "y"))
    t2 = A.seq(A.Write("y", Lit(1)), A.Read("r2", "x"))
    return Program(
        threads={"1": Thread(t1), "2": Thread(t2)},
        client_vars={"x": 0, "y": 0},
    )


def iriw_program():
    t1 = A.Write("x", Lit(1), release=True)
    t2 = A.Write("y", Lit(1), release=True)
    t3 = A.seq(A.Read("a", "x", acquire=True), A.Read("b", "y", acquire=True))
    t4 = A.seq(A.Read("c", "y", acquire=True), A.Read("d", "x", acquire=True))
    return Program(
        threads={"1": Thread(t1), "2": Thread(t2), "3": Thread(t3), "4": Thread(t4)},
        client_vars={"x": 0, "y": 0},
    )


WORKLOADS = [
    ("mp-relaxed", mp_relaxed),
    ("sb", sb_program),
    ("iriw", iriw_program),
    ("abstract-lock", abstract_lock_client),
    ("seqlock", seqlock_client),
    ("spinlock", spinlock_client),
]


@pytest.mark.parametrize("name,build", WORKLOADS, ids=[w[0] for w in WORKLOADS])
def test_canonical_exploration(benchmark, record_row, name, build):
    program = build()
    result = benchmark.pedantic(
        explore, args=(program,), iterations=1, rounds=3
    )
    raw = raw_explore(program, max_states=100_000)
    raw_count = len(raw.configs)
    reduction = raw_count / result.state_count
    ok = result.state_count <= raw_count and not raw.truncated
    record_row(
        f"A1 canon {name}",
        "canonical ≤ raw; shrinks multi-variable spaces",
        f"{result.state_count} canonical vs {raw_count} raw "
        f"({reduction:.2f}x)",
        ok,
    )
    assert ok


def test_reduction_materialises_on_multivar_workloads(benchmark, record_row):
    """The quotient is strict where cross-variable write interleavings
    diverge (SB, IRIW)."""
    def work():
        out = {}
        for name, build in (("sb", sb_program), ("iriw", iriw_program)):
            program = build()
            out[name] = (
                explore(program).state_count,
                len(raw_explore(program).configs),
            )
        return out

    measured = benchmark.pedantic(work, rounds=1, iterations=1)
    for name, (canon, raw) in measured.items():
        ok = canon < raw
        record_row(
            f"A1 strict {name}",
            "strictly fewer canonical states",
            f"{canon} < {raw}",
            ok,
        )
        assert ok


@pytest.mark.parametrize(
    "name,build", WORKLOADS[2:], ids=[w[0] for w in WORKLOADS[2:]]
)
def test_raw_exploration_baseline(benchmark, name, build):
    """Timing baseline for the ablation table: raw hashing."""
    program = build()
    result = benchmark.pedantic(
        raw_explore, args=(program,), iterations=1, rounds=3
    )
    assert not result.truncated
