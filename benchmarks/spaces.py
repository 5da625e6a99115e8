"""Shared benchmark state spaces.

The ``wide`` relaxed-access grid is the workload several benchmarks and
their *committed baselines* are stated over (``BENCH_state_index.json``,
``BENCH_kernel.json``, and perfbench's ``wide-4x3``): one definition
keeps the recorded headline numbers comparable across benchmark files.
"""

from __future__ import annotations

from repro.lang import ast as A
from repro.lang.expr import Lit
from repro.lang.program import Program, Thread


def wide_program(n: int, reads: int = 2) -> Program:
    """``n`` threads, each writing its own variable then reading
    ``reads`` neighbours — a relaxed-access grid whose space grows
    combinatorially (``wide_program(4, reads=3)`` ≈ 54k states)."""
    threads = {}
    for i in range(n):
        stmts = [A.Write(f"x{i}", Lit(1))]
        for j in range(1, reads + 1):
            stmts.append(A.Read(f"r{i}_{j}", f"x{(i + j) % n}"))
        threads[str(i + 1)] = Thread(A.seq(*stmts))
    return Program(
        threads=threads, client_vars={f"x{i}": 0 for i in range(n)}
    )
