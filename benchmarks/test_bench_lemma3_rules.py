"""L3 — Lemma 3: the six proof rules for the abstract lock.

Each rule schema is instantiated (version indices, values, variables,
thread pairs) and checked over every canonical configuration reachable
from a family of lock clients.  Paper claim: all six rules are valid.
The degenerate ``u = 0`` instance of rule 5 is checked separately
(``test_rule5_side_condition``): it must be reported invalid.
"""

import pytest

from repro.litmus.clients import (
    abstract_fill,
    lock_client,
    lock_client_one_sided,
    lock_client_three_threads,
)
from repro.logic.lockrules import check_all_rules, check_rule5
from repro.logic.triples import collect_universe
from repro.objects.lock import AbstractLock


def _mk(builder, **kw):
    fill, objs = abstract_fill(lambda: AbstractLock("l"))
    return builder(fill, objects=objs, **kw)


@pytest.fixture(scope="module")
def groups():
    return collect_universe(
        [
            _mk(lock_client),
            _mk(lock_client, readers=False),
            _mk(lock_client_one_sided),
            _mk(lock_client_three_threads),
        ]
    )


def test_all_rules(benchmark, record_row, groups):
    reports = benchmark.pedantic(
        check_all_rules,
        args=(groups,),
        kwargs={"indices": (2, 4), "values": (0, 5)},
        iterations=1,
        rounds=3,
    )
    for name, report in sorted(reports.items()):
        record_row(
            f"L3 {name}",
            "valid (Lemma 3)",
            f"valid={report.valid}, {report.instances} instances, "
            f"{report.checked} pre-states, {report.applied} steps",
            report.valid,
        )
    assert all(r.valid for r in reports.values())


def test_rule5_side_condition(benchmark, record_row, groups):
    """u must be a feasible release index: the degenerate u = 0 makes the
    conditional precondition vacuous while v = 1 stays attainable via
    init_0 — the harness correctly reports that instance invalid."""
    program, universe = groups[0]
    degenerate = benchmark.pedantic(
        lambda: check_rule5(program, universe, "l", "1", 0, "x", 5),
        rounds=1,
        iterations=1,
    )
    ok = not degenerate.valid
    record_row(
        "L3 rule5 u=0",
        "side condition: u ranges over release indices",
        "degenerate instance rejected" if ok else "unexpectedly valid",
        ok,
    )
    assert ok
