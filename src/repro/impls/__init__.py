"""Concrete library implementations (paper §6.2–6.3 + extensions).

Each implementation exposes a *fill* in the sense of
:mod:`repro.litmus.clients`: a callback producing, per call site, the
command that fills the client's hole — the implementation body wrapped
in :class:`~repro.lang.ast.LibBlock` so its accesses run against the
library component ``β`` as library steps.
"""

from repro.impls.seqlock import SEQLOCK_VARS, seqlock_fill
from repro.impls.spinlock import SPINLOCK_VARS, spinlock_fill
from repro.impls.ticketlock import TICKETLOCK_VARS, ticketlock_fill

__all__ = ["LOCKS", "seqlock_fill", "spinlock_fill", "ticketlock_fill"]

#: The lock implementations verified against the abstract lock, in
#: report order: ``name -> (fill, library variables)`` — the arguments
#: of :func:`repro.toolkit.verify_lock_implementation`.
LOCKS = {
    "seqlock": (seqlock_fill, SEQLOCK_VARS),
    "ticketlock": (ticketlock_fill, TICKETLOCK_VARS),
    "spinlock": (spinlock_fill, SPINLOCK_VARS),
}
