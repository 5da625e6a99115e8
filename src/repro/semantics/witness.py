"""Witness extraction: shortest executions reaching a configuration.

``reachable`` answers *whether* a configuration exists; a *witness*
additionally carries a schedule — the (thread, component, action)
sequence — that exhibits it.  This is what turns a failed verification
into an actionable counterexample: the broken-lock benches print the
exact interleaving through which a client observes stale data.

Two producers live here:

* :func:`find_path` — the test oracle: a sequential, unreduced BFS
  that stores a full configuration per state.  It is deliberately
  simple (the property suite checks engine witnesses against its
  shortest lengths) and expensive (the witness benchmark measures how
  much), and it is not part of the public ``repro`` API.
* :func:`reconstruct_witness` — rebuilds a concrete execution from the
  predecessor graph an engine exploration records when asked
  (``track_parents=True``): per state only the *parent key* and the
  ``(tid, component, action)`` edge label, no stored configurations.
  The path is re-derived by replaying forward through the raw
  ``successors`` relation (:func:`~repro.semantics.step.transitions`,
  which builds each target), so every returned
  step is a real transition by construction; under
  ``reduction="closure"`` each fused macro-step is re-expanded into its
  concrete visible-step-plus-silent-suffix schedule.
  :meth:`repro.engine.ExplorationEngine.find_witness` is the end-to-end
  entry point.

Truncation contract (shared with ``reachable``/``assert_invariant``):
a search that hits ``max_states`` has inspected only part of the state
space, so "no witness found" is *inconclusive*, not "unreachable" —
these functions raise :class:`~repro.util.errors.VerificationError`
instead of returning ``None`` in that case.  ``None`` always means the
search was exhaustive.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.lang.program import Program
from repro.memory.actions import Action
from repro.semantics.canon import canonical_key
from repro.semantics.config import Config, initial_config
from repro.semantics.step import thread_successors, transitions
from repro.util.errors import VerificationError


@dataclass(frozen=True)
class WitnessStep:
    """One scheduled transition of a witness execution."""

    tid: str
    component: str  # 'C' or 'L'
    action: Optional[Action]  # None for silent steps
    config: Config  # configuration *after* the step

    def describe(self) -> str:
        act = "ε" if self.action is None else repr(self.action)
        return f"[{self.component}] {self.tid}: {act}"


@dataclass
class Witness:
    """A shortest execution from the initial configuration to a target."""

    initial: Config
    steps: List[WitnessStep]

    @property
    def final(self) -> Config:
        return self.steps[-1].config if self.steps else self.initial

    def __len__(self) -> int:
        return len(self.steps)

    def schedule(self) -> Tuple[str, ...]:
        """The thread schedule of the execution."""
        return tuple(s.tid for s in self.steps)

    def visible_steps(self) -> int:
        """Number of non-silent steps (the macro-length under closure)."""
        return sum(1 for s in self.steps if s.action is not None)

    def describe(self) -> str:
        lines = [f"witness execution ({len(self.steps)} steps):"]
        lines += [f"  {i + 1:2d}. {s.describe()}" for i, s in enumerate(self.steps)]
        return "\n".join(lines)


def find_path(
    program: Program,
    predicate: Callable[[Config], bool],
    max_states: int = 500_000,
) -> Optional[Witness]:
    """Shortest execution to a configuration satisfying ``predicate``.

    BFS with parent pointers over canonical states; ``None`` only when
    an *exhaustive* search found no reachable configuration satisfying
    the predicate.  A search truncated by ``max_states`` without a
    witness raises :class:`VerificationError` instead — truncated means
    inconclusive, and returning ``None`` would let a partial search
    masquerade as a proof of unreachability (the same contract as
    ``reachable``/``assert_invariant``).  The predicate is tested on
    every generated successor *before* any cap bookkeeping, so a
    witness sitting exactly at the ``max_states`` boundary (or later in
    the same successor list) is still found and returned.

    This is the config-storing test oracle, not public API.  The public
    way is :meth:`repro.engine.ExplorationEngine.find_witness`: it rides
    the engine (under any reduction policy) and tracks predecessors by
    key + edge label instead of storing a configuration per state.
    """
    init = initial_config(program)
    if predicate(init):
        return Witness(initial=init, steps=[])
    init_key = canonical_key(program, init)
    # key -> (parent_key, WitnessStep)
    parents: Dict[Tuple, Tuple[Optional[Tuple], Optional[WitnessStep]]] = {
        init_key: (None, None)
    }
    queue = deque([(init_key, init)])
    truncated = False
    while queue:
        key, cfg = queue.popleft()
        for tr in transitions(program, cfg):
            tkey = canonical_key(program, tr.target)
            if tkey in parents:
                continue
            step = WitnessStep(
                tid=tr.tid,
                component=tr.component,
                action=tr.action,
                config=tr.target,
            )
            # Predicate before the cap bail: a witness discovered at (or
            # beyond) the max_states boundary is still a witness.
            if predicate(tr.target):
                parents[tkey] = (key, step)
                return _rebuild(init, parents, tkey)
            if len(parents) >= max_states:
                # Stop recording states but keep testing the remaining
                # successors (and the rest of the queued frontier).
                truncated = True
                continue
            parents[tkey] = (key, step)
            queue.append((tkey, tr.target))
    if truncated:
        raise VerificationError(
            f"no witness within the first {max_states} states and the "
            "search was truncated, inconclusive — unreachability not "
            "established; raise max_states"
        )
    return None


def _rebuild(init: Config, parents, target_key) -> Witness:
    steps: List[WitnessStep] = []
    key = target_key
    while True:
        parent_key, step = parents[key]
        if step is None:
            break
        steps.append(step)
        key = parent_key
    steps.reverse()
    return Witness(initial=init, steps=steps)


# ---------------------------------------------------------------------------
# engine-side reconstruction: predecessor graph -> concrete execution
# ---------------------------------------------------------------------------

#: A predecessor entry: ``(parent_key, tid, component, action)``; the
#: initial key maps to None.  Keys are the exploration's canonical keys.
ParentGraph = Dict[object, Optional[Tuple]]


def reconstruct_witness(
    program: Program,
    parents: ParentGraph,
    target: Config,
    reduction: str = "off",
) -> Witness:
    """Rebuild the concrete execution reaching the explored
    configuration ``target`` from the predecessor graph of an engine
    exploration.

    ``parents`` maps each explored state's canonical key to
    ``(parent_key, tid, component, action)`` — the edge that first
    discovered it — and the initial key to ``None``: the graph an
    exploration records under ``track_parents=True``.
    A graph that does not start at the initial configuration's key
    under ``reduction`` is refused with :class:`VerificationError`:
    for instance one recorded under ``off`` and read back with
    ``reduction="closure"`` when some thread starts with a silent step.
    Under a breadth-first exploration the first-discovery edge is a
    shortest edge, so the reconstructed path is shortest in
    (macro-)steps.

    The parent chain stores no configurations: the path is re-derived
    by replaying forward from the initial configuration through the raw
    :func:`~repro.semantics.step.transitions` relation, matching each
    recorded edge by thread, action and target key.  Under
    ``reduction="closure"`` each recorded macro-edge is re-expanded
    into its concrete schedule — the visible transition followed by the
    stepping thread's fused silent suffix (and the initial ε-closure is
    emitted as leading silent steps) — so a closure-fast search still
    yields a step-exact, unreduced-replayable witness.  Every returned
    step is an element of ``successors`` at its point by construction.
    """
    from repro.semantics.reduce import get_strategy

    # Policies built on the closed macro-step system ("closure" and
    # "dpor" — the strategy's closure_expansion flag) record macro-edges
    # that must be re-expanded through the ε-closure replay below.
    closure = get_strategy(reduction).closure_expansion

    def key_of(cfg: Config):
        return canonical_key(program, cfg)

    init = initial_config(program)
    cfg = init
    steps: List[WitnessStep] = []
    if closure:
        # The engine ε-closed the initial configuration before
        # exploring; emit that closure as concrete leading silent steps.
        for tid in program.tids:
            sub, cfg = _close_tid_steps(program, cfg, tid)
            steps += sub
    init_key = key_of(cfg)
    if init_key not in parents or parents[init_key] is not None:
        raise VerificationError(
            "witness reconstruction failed: the predecessor graph does "
            "not start at the initial configuration (a reduction "
            "policy other than the exploration's)"
        )

    # Walk the predecessor chain back to the initial key.
    edges: List[Tuple] = []
    key = key_of(target)
    while key != init_key:
        entry = parents.get(key)
        if entry is None:
            raise VerificationError(
                "witness reconstruction failed: the target's key does not "
                "lead back to the initial one in the exploration's "
                "predecessor graph"
            )
        parent_key, tid, component, action = entry
        edges.append((tid, component, action, key))
        key = parent_key
    edges.reverse()

    for tid, component, action, node_key in edges:
        sub, cfg = _expand_edge(
            program, cfg, tid, component, action, node_key, key_of, closure
        )
        steps += sub
    return Witness(initial=init, steps=steps)


def replay_witness(program: Program, witness: Witness) -> Config:
    """Replay ``witness`` step by step through the raw (unreduced)
    ``successors`` relation, checking every step is a real transition;
    returns the final configuration.  Raises :class:`VerificationError`
    on the first step that is not a successor — the validation the
    property suite runs on every engine-reconstructed witness."""
    cfg = witness.initial
    for i, step in enumerate(witness.steps):
        for tr in transitions(program, cfg):
            if (
                tr.tid == step.tid
                and tr.component == step.component
                and tr.action == step.action
                and tr.target == step.config
            ):
                break
        else:
            raise VerificationError(
                f"witness step {i + 1} ({step.describe()}) is not a "
                "successor of the configuration it is scheduled from"
            )
        cfg = step.config
    return cfg


def _silent_transition(program: Program, cfg: Config, tid: str):
    """Thread ``tid``'s (unique) pending silent transition, or None."""
    for tr in thread_successors(program, cfg, tid):
        if tr.action is None:
            return tr
        return None  # visible-headed: no silent step pending
    return None


def _close_tid_steps(
    program: Program, cfg: Config, tid: str
) -> Tuple[List[WitnessStep], Config]:
    """Concrete silent steps realising ``close_thread(cfg, tid)``.

    Mirrors the reduction layer's closure exactly — including its
    divergence cut-off — by stepping until the thread's continuation
    and locals match the closed image."""
    from repro.semantics.reduce import close_thread

    closed = close_thread(cfg, tid)
    steps: List[WitnessStep] = []
    while (
        cfg.cmds[tid] != closed.cmds[tid]
        or cfg.locals[tid] != closed.locals[tid]
    ):
        tr = _silent_transition(program, cfg, tid)
        if tr is None:
            raise VerificationError(
                f"ε-closure replay diverged from close_thread on {tid!r}"
            )
        steps.append(WitnessStep(tid, tr.component, None, tr.target))
        cfg = tr.target
    return steps, cfg


def _expand_edge(
    program: Program,
    cfg: Config,
    tid: str,
    component: str,
    action: Optional[Action],
    node_key,
    key_of: Callable[[Config], object],
    closure: bool,
) -> Tuple[List[WitnessStep], Config]:
    """Concretise one recorded (macro-)edge from ``cfg``.

    Candidates are the raw successors matching the edge label; the
    right one is identified by its (closed) target key — action labels
    alone are ambiguous under placement nondeterminism, keys are not.
    """
    for tr in transitions(program, cfg):
        if (
            tr.tid != tid
            or tr.component != component
            or tr.action != action
        ):
            continue
        if not closure:
            if key_of(tr.target) == node_key:
                return (
                    [WitnessStep(tid, component, action, tr.target)],
                    tr.target,
                )
            continue
        steps = [WitnessStep(tid, component, action, tr.target)]
        sub, cur = _close_tid_steps(program, tr.target, tid)
        if key_of(cur) == node_key:
            return steps + sub, cur
    raise VerificationError(
        f"witness replay failed: no successor of thread {tid!r} with "
        f"action {action!r} reaches the recorded state — predecessor "
        "graph and semantics disagree"
    )
