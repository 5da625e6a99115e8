"""The sequence lock (paper §6.2).

Operates over a single shared variable ``glb``::

    Init: glb = 0
    Acquire():
      1: do  do r ←A glb until even(r);
             loc ← CAS(glb, r, r + 1)
         until loc
    Release():
      1: glb :=R r + 2

``glb`` even ⇔ lock free; a successful CAS makes it odd (the refining
step matching the abstract acquire — the CAS is an acquiring-releasing
update, so it synchronises with the previous releasing write of
``glb``); the releasing write of ``r + 2`` restores evenness and
publishes the critical section (the refining step matching the abstract
release).  The acquire-loop read and any failed CAS are stuttering
steps.  ``r`` persists in the acquiring thread's local state between
Acquire and Release, exactly as in the paper's listing.
"""

from __future__ import annotations

from typing import Optional

from repro.lang import ast as A
from repro.lang.expr import Reg

#: Library-local registers (``LVar_L``); per-thread, so no clashes
#: between threads using the same names.
R = "_sl_r"
LOC = "_sl_loc"

#: Initial library variables required by this implementation.
SEQLOCK_VARS = {"glb": 0}


def acquire_body() -> A.Node:
    """The Acquire() body from §6.2."""
    wait_even = A.do_until(
        A.Read(R, "glb", acquire=True), Reg(R).even()
    )
    attempt = A.seq(
        wait_even,
        A.Cas(LOC, "glb", Reg(R), Reg(R) + 1),
    )
    return A.do_until(attempt, Reg(LOC))


def release_body() -> A.Node:
    """The Release() body from §6.2 (uses ``r`` from the acquire)."""
    return A.Write("glb", Reg(R) + 2, release=True)


def seqlock_fill(obj: str, method: str, dest: Optional[str] = None) -> A.Node:
    """Fill a lock hole with the sequence-lock implementation.

    ``dest``, when given, receives the return value ``true`` of Acquire
    (the paper: Acquire returns true iff the CAS succeeded — which is
    the loop's exit condition, so the result is always ``true``).
    """
    if method == "acquire":
        block: A.Node = A.LibBlock(acquire_body())
        if dest is not None:
            # The return-value copy is a client (ε) step at the method
            # boundary, so ``dest`` stays a client register.
            block = A.seq(block, A.LocalAssign(dest, Reg(LOC)))
        return block
    if method == "release":
        return A.LibBlock(release_body())
    raise ValueError(f"sequence lock has no method {method!r}")
