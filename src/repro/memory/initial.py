"""Construction of the initial state ``Γ_Init`` (paper §3.3).

Every shared variable is initialised exactly once, at timestamp 0; every
thread's viewfront starts at the initialising write; the modification
view of every initialising operation is the union of all initial thread
views over *both* components; nothing is covered.  Abstract objects
contribute their own initial operations (e.g. ``(l.init_0, 0)``) to the
library component.
"""

from __future__ import annotations

from typing import Tuple

from repro.lang.program import Program
from repro.memory.actions import Op, mk_write
from repro.memory.state import ComponentState
from repro.memory.views import view_union
from repro.util.fmap import FMap
from repro.util.rationals import TS_ZERO


def initial_states(program: Program) -> Tuple[ComponentState, ComponentState]:
    """Build ``(γ_Init, β_Init)`` for a program.

    Returns the client and library component states.  Thread-local initial
    register values are handled separately by the combined semantics
    (:func:`repro.semantics.config.initial_config`).
    """
    tids = program.tids

    client_ops = {
        x: Op(mk_write(x, v, tid=None), TS_ZERO)
        for x, v in sorted(program.client_vars.items())
    }
    lib_ops = {
        y: Op(mk_write(y, v, tid=None), TS_ZERO)
        for y, v in sorted(program.lib_vars.items())
    }
    for obj in program.objects:
        for op in obj.init_ops():
            lib_ops[op.act.var] = op

    client_view = FMap(client_ops)
    lib_view = FMap(lib_ops)
    # mview of every initialising op spans both components (paper:
    # γInit.mview_xi = βInit.mview_yi = γInit.tview_t ∪ βInit.tview_t).
    full_view = view_union(client_view, lib_view)

    gamma = ComponentState(
        ops=frozenset(client_ops.values()),
        tview=FMap({(t, x): op for t in tids for x, op in client_ops.items()}),
        mview=FMap({op: full_view for op in client_ops.values()}),
        cvd=frozenset(),
    )
    beta = ComponentState(
        ops=frozenset(lib_ops.values()),
        tview=FMap({(t, y): op for t in tids for y, op in lib_ops.items()}),
        mview=FMap({op: full_view for op in lib_ops.values()}),
        cvd=frozenset(),
    )
    return gamma, beta
