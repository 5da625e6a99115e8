"""A fetch-and-increment counter implementation (extension).

Implements the abstract :class:`~repro.objects.counter.AbstractCounter`
with a single shared variable and one ``FAI`` per increment::

    Init: ctr = 0
    Inc():  1: r ← FAI(ctr)        (returns r)
    Read(): 1: r ← [A] ctr

The FAI is an acquiring-releasing update, so consecutive increments
synchronise exactly like the abstract counter's totally-ordered ``inc``
operations; the acquiring read matches the abstract ``readA`` and the
relaxed read the abstract ``read``.
"""

from __future__ import annotations

from typing import Optional

from repro.lang import ast as A

#: Library-local scratch register used by the implementation bodies.
SCRATCH = "_ctr_r"

#: Initial library variables required by this implementation.
FAICOUNTER_VARS = {"ctr": 0}


def counter_fill(obj: str, method: str, dest: Optional[str] = None) -> A.Node:
    """Fill a counter hole with the FAI implementation.

    The return value is bound to ``dest`` *atomically* at the FAI/read —
    the implementation's linearization step — matching the abstract
    counter, which binds its return value in the method transition.  A
    separate copy step would expose an intermediate client state (views
    transferred, register unset) that the abstract object never exhibits,
    breaking contextual refinement for value-returning methods.
    """
    if method == "inc":
        target = dest if dest is not None else SCRATCH
        public = frozenset({dest}) if dest is not None else frozenset()
        return A.LibBlock(A.Fai(target, "ctr"), public_regs=public)
    if method in ("read", "readA"):
        target = dest if dest is not None else SCRATCH
        public = frozenset({dest}) if dest is not None else frozenset()
        return A.LibBlock(
            A.Read(target, "ctr", acquire=method == "readA"),
            public_regs=public,
        )
    raise ValueError(f"FAI counter has no method {method!r}")
