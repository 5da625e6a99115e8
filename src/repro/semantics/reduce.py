"""Sound state-space reduction: ε-closure and covering-read pruning.

The explorer's state count is dominated by interleavings of *invisible*
work: silent (ε) transitions — ``LocalAssign``/``If``/``While``
bookkeeping — advance only the stepping thread's continuation and local
state, yet ordinary breadth-first enumeration multiplies the frontier by
every ordering of them against every other thread.  This module removes
that factor without changing what exploration *verifies*.

ε-closure
---------
:func:`reduced_successors` fuses each visible step with the stepping
thread's maximal chain of subsequent silent steps (and
:func:`close_config` normalises the initial configuration the same way),
so purely-local interleavings never enter the frontier.

**Soundness.**  Let ``t --ε--> t'`` be a silent step of thread ``t``.
By construction (:func:`repro.semantics.step.silent_step`):

1. *Locality*: the step is a function of ``(cmds[t], locals[t])`` alone
   and updates only those two fields — ``γ`` and ``β`` are untouched
   (asserted below on every closure).
2. *Determinism*: a command's step set is homogeneous — a silent-headed
   command admits exactly one step, so the silent chain of a thread is
   a deterministic sequence, and the *maximal* chain is well defined
   (up to the divergence cut-off below).
3. *Commutation*: any step of another thread ``u`` reads and writes
   ``(cmds[u], locals[u], γ, β)`` — disjoint from the silent step's
   footprint except for ``γ``/``β``, which the silent step neither
   reads nor writes.  Hence ``ε_t ; a_u`` and ``a_u ; ε_t`` reach the
   same configuration from the same source: silent steps are *left and
   right movers*.

(1)–(3) make the closure confluent: executing each thread's pending
silent chain in any interleaving reaches the unique configuration in
which no thread has a silent step pending, and every run of the original
system is a run of the reduced system with the silent steps commuted to
immediately follow their thread's previous visible step.  The reduced
system therefore reaches exactly the closed images of the original
reachable set — terminal configurations (which have no steps at all, so
are closed and preserved bit-for-bit, with their register valuations),
stuck configurations (stuck ⇒ no silent step pending ⇒ closed) and all
invariant verdicts over them are identical.  What changes is which
*intermediate* configurations exist to be stored, counted, or observed
by ``on_config`` callbacks.

A silent chain that revisits a ``(continuation, locals)`` pair — a
purely-local infinite loop — is cut off at the revisit: the offending
configuration keeps its silent transition as an ordinary (macro-)edge
and exploration degrades to the unreduced behaviour for that thread,
which keeps the reduction terminating on pathological inputs.

Covering-read pruning
---------------------
Among the read-from choices of a single ``Read`` (or failing CAS), two
non-synchronising candidates with the same written value produce
successors that differ *only* in where the reader's viewfront of the
read variable lands.  When the thread's continuation can neither access
that variable again nor publish its view map (no write/update/method/
lib step — any of which records the whole map in a new operation's
modification view), that viewfront entry is unobservable: the
successors are covering-equivalent, and only the mo-earliest candidate
per value is generated (``collapse_same_value`` in
:func:`repro.memory.transitions.read_steps` — the skip happens before
the successor component state is even constructed).  The gate is
computed per read site, once per step plan, from continuation
summaries (:func:`repro.semantics.step._node_summary`).

Policy table
------------
This module is the *single* source of truth for reduction policies.
Each policy is a :class:`ReductionStrategy` — successor relation,
initial-configuration normalisation and composability flags — and the
fixed table at the bottom of this file maps each name to its strategy.
Every consumer (the engine's loop and ``_check_reduction``, witness
reconstruction, the CLI ``--reduction`` choices) reads that table
through :func:`get_strategy` or :data:`REDUCTIONS`; nothing else
enumerates policies.

* ``"off"`` — the historical plain ``=⇒`` relation (the engine default).
* ``"closure"`` — ε-closure + covering-read prune (this module).
* ``"dpor"`` — sleep-set + covering-persistent-set partial-order
  reduction over the closed macro-step system
  (:mod:`repro.semantics.dpor`), whose strategy is imported at the
  bottom of this file.

The reduction changes which configurations are stored, so consumers
that need the un-fused transition graph (the refinement checkers and
the Owicki–Gries enumerator, whose assertions live at intermediate
program points) explicitly request ``reduction="off"`` at their call
sites.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.lang.program import Program
from repro.obs import metrics as _metrics
from repro.semantics.config import Config
from repro.semantics.step import Edge, StepMemo, silent_step, successors

#: Cut-off for one fused silent chain.  Past this many fused steps (or
#: on an exact ``(continuation, locals)`` revisit) the remaining silent
#: work is left in place as an ordinary ε-edge, so divergent local
#: loops whose locals change every iteration (an unbounded counter) —
#: and pathologically long terminating chains — degrade to unreduced
#: exploration, which the ``max_states`` cap bounds, instead of
#: spinning or allocating inside a single successor call.
MAX_SILENT_CHAIN = 4096


@dataclass(frozen=True)
class ReductionStrategy:
    """One reduction policy, as every consumer sees it.

    ``successors`` is the policy's macro-step relation, mapping
    ``(program, state, memo=)`` — ``state`` a configuration or a
    canonical key — to :data:`~repro.semantics.step.Edge` tuples, and
    ``normalise_initial`` its initial-configuration normalisation
    (``(program, cfg)``).
    ``sleep_expand`` — set only for sleep-set policies — takes the
    place of ``successors``, which is then None: it maps ``(program,
    state, sleep, memo=)`` to ``[(edge, child_sleep)]`` pairs and
    returns an empty list exactly when ``state`` has no successors at all
    (sleep sets prune edges, never sink states).  The engine loop
    passes the exploration's visible-step memo (a
    :class:`~repro.semantics.step.StepMemo`) as ``memo=`` to whichever
    of the two the policy has.

    ``closure_expansion`` drives composition: witness reconstruction
    must re-expand recorded macro-edges through the ε-closure replay
    (true for every policy built on the closed macro-step system).

    A policy's own counters are listed in the :mod:`repro.obs.metrics`
    counter schema.
    """

    name: str
    successors: Optional[Callable[..., List[Edge]]]
    normalise_initial: Callable[[Program, Config], Config]
    closure_expansion: bool = False
    sleep_expand: Optional[Callable[..., List[Tuple]]] = None


def get_strategy(reduction: str) -> ReductionStrategy:
    """The strategy named ``reduction``: the one policy lookup.

    Anything that is not a policy name — an unknown string or a
    non-string such as ``["dpor"]`` — raises :class:`ValueError`
    listing the policies.  The table is read at call time, so a
    consumer that swaps its entries in place (the span tracer) is seen
    by every later lookup.
    """
    if not isinstance(reduction, str) or reduction not in _REGISTRY:
        raise ValueError(
            f"unknown reduction policy {reduction!r}; "
            f"expected one of {', '.join(_REGISTRY)}"
        )
    return _REGISTRY[reduction]


def _close_chain(cmd, ls) -> Tuple:
    """Run the maximal silent chain from ``(cmd, ls)``.

    Returns ``(cmd', ls', fused)`` and counts ``fused`` into
    ``reduce.epsilon_fused``.  Deterministic by homogeneity of the step
    relation; diverging silent chains (a purely-local loop) are cut off
    at the first revisited ``(continuation, locals)`` pair or after
    :data:`MAX_SILENT_CHAIN` fused steps, whichever comes first.  Not
    memoised: :func:`~repro.semantics.step.successors` runs it once per
    successor thread state and replays the count on repeats.
    """
    visited = None
    fused = 0
    while cmd is not None and fused < MAX_SILENT_CHAIN:
        step = silent_step(cmd, ls)
        if step is None:
            break
        if visited is None:
            visited = {(cmd, ls)}
        elif (cmd, ls) in visited:
            break  # divergent ε-loop: leave the silent edge in place
        else:
            visited.add((cmd, ls))
        _comp, cmd, ls = step
        fused += 1
    if fused and _metrics._ACTIVE is not None:
        _metrics._ACTIVE.inc("reduce.epsilon_fused", fused)
    return cmd, ls, fused


def close_thread(cfg: Config, tid: str) -> Config:
    """Run thread ``tid``'s maximal chain of silent steps.

    A thin wrapper over :func:`_close_chain`.  The closure
    contract — every fused step is silent (``silent_step`` yields no
    action at all) and leaves both component states untouched — holds
    by construction: the chain maps only ``(cmd, ls)`` and the rebuilt
    configuration reuses ``γ``/``β`` unchanged (still asserted at
    :func:`close_config` as an interface check).
    """
    cmd = cfg.cmds[tid]
    if cmd is None:
        return cfg
    cmd2, ls2, fused = _close_chain(cmd, cfg.locals[tid])
    if not fused:
        return cfg
    return Config(
        cmds=cfg.cmds.set(tid, cmd2),
        locals=cfg.locals.set(tid, ls2),
        gamma=cfg.gamma,
        beta=cfg.beta,
    )


def close_config(program: Program, cfg: Config) -> Config:
    """ε-close every thread (the initial-configuration normalisation).

    By confluence (module docstring) the order of threads is
    irrelevant; afterwards no thread has a silent step pending, and
    :func:`reduced_successors` maintains that invariant by closing the
    stepping thread of each successor.
    """
    for tid in program.tids:
        closed = close_thread(cfg, tid)
        # Closure contract, checked at the interface: a fused silent
        # chain must leave both component states untouched (it fires if
        # close_thread is ever changed to run a non-silent step).
        assert closed.gamma is cfg.gamma and closed.beta is cfg.beta, (
            f"ε-closing thread {tid} altered a component state — silent "
            "steps must only rewrite the thread's continuation and locals"
        )
        cfg = closed
    return cfg


def reduced_successors(
    program: Program, state, memo: Optional[StepMemo] = None
) -> List[Edge]:
    """The macro-step edges out of a closed configuration or its key.

    Each underlying edge (with the covering-read prune enabled) is
    fused with the stepping thread's silent suffix; the macro-edge
    keeps the visible action and thread/component tags.  Callers must
    hand in closed states (the engine closes the initial one) — every
    target is then closed as well.  ``memo`` is the
    exploration's visible-step memo, passed through to
    :func:`~repro.semantics.step.successors`: the closure fuses only
    silent steps, which leave ``γ``/``β`` untouched, so a memoised
    visible step serves the macro-step relation unchanged.
    """
    # The silent suffix is fused *inside* successor generation (the
    # ``close`` hook), before the successor thread state is interned —
    # no throwaway intermediate state per closed successor — and cached
    # there with the successor thread state, whose repeats replay the
    # fused count.  The closure contract (component states untouched)
    # holds by construction: ``_close_chain`` maps only ``(cmd, ls)``,
    # and the macro-edge carries the visible step's ``γ'``/``β'``.
    return successors(
        program, state, prune=True, close=_close_chain, memo=memo
    )


# ---------------------------------------------------------------------------
# the policy table
# ---------------------------------------------------------------------------

# The dpor strategy lives in its own module.  The import is
# intentionally last: repro.semantics.dpor imports the strategy
# machinery defined above, so placing it at the bottom keeps the
# (reduce -> dpor -> reduce) cycle well-founded regardless of which
# module is imported first.
from repro.semantics.dpor import DPOR_STRATEGY  # noqa: E402

#: The policy table: name -> strategy, in presentation order.
_REGISTRY: Dict[str, ReductionStrategy] = {
    "off": ReductionStrategy(
        name="off",
        successors=successors,
        normalise_initial=lambda program, cfg: cfg,
    ),
    "closure": ReductionStrategy(
        name="closure",
        successors=reduced_successors,
        normalise_initial=close_config,
        closure_expansion=True,
    ),
    "dpor": DPOR_STRATEGY,
}

#: Recognised reduction policies — derived from the table, never
#: restated anywhere else.
REDUCTIONS = tuple(_REGISTRY)
