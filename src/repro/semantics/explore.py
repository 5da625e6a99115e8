"""Exhaustive state-space exploration.

Breadth-first enumeration of the reachable configuration space under the
combined semantics, memoised by canonical key.  :func:`explore` is the
engine's loop itself (:func:`repro.engine.core.explore_sequential`,
documented there); this module adds the queries built on it —
:func:`reachable`, :func:`assert_invariant` and :func:`final_outcomes`
— and re-exports :class:`ExploreResult`.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.engine.core import explore_sequential
from repro.engine.result import ExploreResult
from repro.lang.program import Program
from repro.semantics.config import Config
from repro.util.errors import VerificationError

__all__ = [
    "ExploreResult",
    "assert_invariant",
    "explore",
    "final_outcomes",
    "reachable",
]

#: Enumerate every reachable configuration of a program.
explore = explore_sequential


def reachable(
    program: Program,
    predicate: Callable[[Config], bool],
    max_states: int = 500_000,
    reduction: str = "off",
) -> Optional[Config]:
    """Return a reachable configuration satisfying ``predicate`` or None.

    Exploration halts at the first witness (early-stop) rather than
    enumerating the rest of the state space.  ``None`` is a *proof* of
    unreachability: when the search exhausts ``max_states`` without a
    witness the answer is unknown, and pretending otherwise would let a
    truncated search masquerade as one — that case raises
    :class:`VerificationError` instead (``ExplorationEngine.find_witness``
    and the test oracle :func:`repro.semantics.witness.find_path` honour
    the same contract).  To additionally get the *execution* reaching
    the configuration, use
    :meth:`repro.engine.ExplorationEngine.find_witness`, which runs this
    same early-stopping search with predecessor tracking and
    reconstructs the schedule from the explored graph.

    ``reduction="closure"`` evaluates the predicate on ε-closed
    configurations only — a subset of the unreduced reachable set.  It
    is sound for predicates that are insensitive to a thread's position
    inside a silent chain (e.g. properties of terminal configurations,
    or of state at visible-step boundaries); predicates that must see
    intermediate silent configurations — a register value that is
    immediately overwritten, an untaken branch — need the default
    ``"off"``.
    """
    witness: list = []

    def probe(cfg: Config) -> bool:
        if predicate(cfg):
            witness.append(cfg)
            return True
        return False

    result = explore(
        program, max_states=max_states, on_config=probe, reduction=reduction
    )
    if witness:
        return witness[0]
    if result.truncated:
        raise VerificationError(
            f"no witness within the first {result.state_count} states and "
            "the search was truncated — unreachability not established; "
            "raise max_states"
        )
    return None


def assert_invariant(
    program: Program,
    invariant: Callable[[Config], bool],
    max_states: int = 500_000,
    reduction: str = "off",
    witness: bool = False,
) -> ExploreResult:
    """Check a safety property on every reachable configuration.

    Raises :class:`VerificationError` with the offending configuration;
    the search stops at the first violation.  A truncated search that
    found no violation also raises — it checked only part of the space,
    so it proves nothing (silently returning would report a partial
    search as a successful verification).

    Under ``reduction="closure"`` the invariant is checked on the
    ε-closed configurations only (see :func:`reachable` for when that
    is equivalent).

    ``witness=True`` makes the exploration track predecessors, so a
    violation's error additionally carries ``err.witness`` — the
    shortest concrete execution reaching the counterexample,
    reconstructed from the already-explored graph (no second search).
    """
    violation: list = []

    def probe(cfg: Config) -> bool:
        if not invariant(cfg):
            violation.append(cfg)
            return True
        return False

    result = explore(
        program,
        max_states=max_states,
        on_config=probe,
        reduction=reduction,
        track_parents=witness,
    )
    if violation:
        trace = None
        if witness:
            from repro.semantics.witness import reconstruct_witness

            trace = reconstruct_witness(
                program, result.parents, violation[0], reduction=reduction
            )
        raise VerificationError(
            "invariant violated", counterexample=violation[0], witness=trace
        )
    if result.truncated:
        raise VerificationError(
            f"invariant held on the first {result.state_count} states but "
            "the search was truncated — not a proof; raise max_states"
        )
    return result


def final_outcomes(
    program: Program,
    regs: Tuple[Tuple[str, str], ...],
    max_states: int = 500_000,
    reduction: str = "off",
) -> set:
    """The set of terminal valuations of ``regs`` ((tid, reg) pairs).

    Terminal outcome sets (and deadlock detection) are preserved
    exactly by ``reduction="closure"`` — the cheap way to compute them
    on silent-step-heavy programs.
    """
    result = explore(program, max_states=max_states, reduction=reduction)
    if result.truncated:
        raise VerificationError("state space truncated; raise max_states")
    if result.stuck:
        raise VerificationError(
            "deadlocked configurations found", counterexample=result.stuck[0]
        )
    return result.terminal_locals(*regs)
