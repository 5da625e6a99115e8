"""Proof outlines (paper §5.2–5.3).

A proof outline decorates each labelled statement of each thread with an
assertion (the statement's precondition) and designates a postcondition
for the terminal label, optionally strengthened by a global invariant
conjoined everywhere — the shape of the paper's Figures 3 and 7.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

from repro.assertions.core import TRUE, Assertion
from repro.lang.program import Program


@dataclass(frozen=True)
class ThreadOutline:
    """Assertions of one thread, keyed by statement label.

    ``assertions[l]`` is the precondition of the statement labelled ``l``;
    the entry for the thread's done-label is the thread's postcondition.
    """

    assertions: Mapping[object, Assertion]

    def at(self, label) -> Optional[Assertion]:
        return self.assertions.get(label)


@dataclass(frozen=True)
class ProofOutline:
    """A fully annotated concurrent program."""

    program: Program
    threads: Mapping[str, ThreadOutline]
    invariant: Assertion = TRUE
    #: Checked at terminal configurations (the outline's overall post).
    postcondition: Assertion = TRUE

    def assertion_at(self, tid: str, label) -> Optional[Assertion]:
        """The (invariant-strengthened) assertion of ``tid`` at ``label``.

        Returns ``None`` for labels the outline does not annotate; the
        checker treats those as ``invariant`` only.
        """
        thread = self.threads.get(tid)
        base = thread.at(label) if thread is not None else None
        if base is None:
            return None
        return self.invariant & base

    def labels_of(self, tid: str) -> Tuple[object, ...]:
        thread = self.threads.get(tid)
        return tuple(thread.assertions.keys()) if thread else ()
