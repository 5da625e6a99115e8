"""Exhaustive state-space exploration (compatibility wrappers).

Breadth-first enumeration of the reachable configuration space under the
combined semantics, memoised by canonical key.  The loop itself now
lives in the exploration engine (:mod:`repro.engine`): this module keeps
the historical call surface — :func:`explore`, :func:`reachable`,
:func:`assert_invariant`, :func:`final_outcomes` and
:class:`ExploreResult` — as thin wrappers over the engine's sequential
BFS backend, so existing call sites and tests are untouched while new
code can pick strategies and reduction policies through
:class:`repro.engine.ExplorationEngine`.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

# Re-exported for backwards compatibility: ExploreResult historically
# lived here, and the ablation benchmarks reach for _raw_key.
from repro.engine.core import _raw_key, _raw_state, explore_sequential
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


def explore(
    program: Program,
    max_states: int = 500_000,
    collect_edges: bool = False,
    canonicalise: bool = True,
    check_invariants: bool = False,
    on_config: Optional[Callable[[Config], Optional[bool]]] = None,
    reduction: str = "off",
    track_parents: bool = False,
) -> ExploreResult:
    """Enumerate every reachable configuration of ``program``.

    Parameters
    ----------
    max_states:
        Safety cap; exceeding it marks the result ``truncated`` and the
        loop bails out promptly, so ``edge_count``, ``terminals`` and
        ``stuck`` are *lower bounds* on a truncated result.
    collect_edges:
        Record the labelled transition graph (needed by the refinement
        and Owicki–Gries checkers).
    canonicalise:
        Identify configurations up to timestamp relabelling.  Disabling
        this exists for the ablation benchmark — raw configurations with
        distinct rationals are then distinct states.
    check_invariants:
        Assert component-state coherence at every configuration
        (diagnostic mode used by the test-suite).
    on_config:
        Callback invoked on every configuration as it is expanded.
        Returning a truthy value halts exploration immediately (the
        result is then marked ``stopped``) — used by :func:`reachable`
        to stop at the first witness.
    reduction:
        ``"off"`` (default), ``"closure"`` — the ε-closure +
        covering-read reduction (:mod:`repro.semantics.reduce`) — or
        ``"dpor"``, closure plus sleep and persistent sets
        (:mod:`repro.semantics.dpor`).  Both preserve terminal
        outcomes, stuck-ness and register-level verdicts but fuse
        intermediate silent configurations away: they are not stored,
        counted, or passed to ``on_config``/``check_invariants``.
    track_parents:
        Record each state's first-discovery edge (parent key +
        ``(tid, component, action)`` label) in ``result.parents``, from
        which :func:`repro.semantics.witness.reconstruct_witness`
        rebuilds a shortest counterexample without re-exploring.
    """
    return explore_sequential(
        program,
        max_states=max_states,
        collect_edges=collect_edges,
        canonicalise=canonicalise,
        check_invariants=check_invariants,
        on_config=on_config,
        reduction=reduction,
        track_parents=track_parents,
    )


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
    :class:`VerificationError` instead (``find_path`` and
    ``ExplorationEngine.find_witness`` honour the same contract).  To
    additionally get the *execution* reaching the configuration, use
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
            from repro.semantics.canon import canonical_key
            from repro.semantics.witness import reconstruct_witness

            def key_of(cfg: Config):
                return canonical_key(program, cfg)

            trace = reconstruct_witness(
                program,
                result.parents,
                key_of(violation[0]),
                key_of,
                reduction=reduction,
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
