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
by ``on_config``/``check_invariants`` callbacks.

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
computed per read site from memoised continuation summaries
(:func:`repro.semantics.step._node_summary`).

Policy registry
---------------
This module is the *single* source of truth for reduction policies.
Each policy is a :class:`ReductionStrategy` — successor function,
initial-configuration normalisation, cache-fingerprint token,
composability flags and metric names — registered under its name.
Every consumer (``validate_reduction``, the engine's loop and
``_check_reduction``, the persistent-cache key, batch, the CLI
``--reduction`` choices) reads the registry; nothing else enumerates
policies.

* ``"off"`` — the historical plain ``=⇒`` relation (the engine default).
* ``"closure"`` — ε-closure + covering-read prune (this module).
* ``"dpor"`` — sleep-set + covering-persistent-set partial-order
  reduction over the closed macro-step system
  (:mod:`repro.semantics.dpor`), registered from its own module via the
  import at the bottom of this file.

The reduction changes which configurations are stored — it is part of
the persistent result-cache key — and consumers that need the un-fused
transition graph (the refinement checkers and the Owicki–Gries
enumerator, whose assertions live at intermediate program points)
explicitly request ``reduction="off"`` at their call sites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.lang.program import Program
from repro.obs import metrics as _metrics
from repro.semantics.config import Config
from repro.semantics.step import Transition, silent_step, successors

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

    ``successors`` is the policy's macro-step relation and
    ``normalise_initial`` its initial-configuration normalisation (both
    with the ``(program, cfg)`` signature the engine loop uses).
    ``sleep_expand`` — set only for sleep-set policies — replaces
    ``successors`` inside exploration loops that thread sleep sets: it
    maps ``(program, cfg, sleep)`` to ``[(transition, child_sleep)]``
    pairs and returns an empty list exactly when ``cfg`` has no
    successors at all (sleep sets prune edges, never sink states).

    The flags drive composition:

    * ``closure_expansion`` — witness reconstruction must re-expand
      recorded macro-edges through the ε-closure replay (true for every
      policy built on the closed macro-step system);
    * ``supports_witness_reexpansion`` — recorded parent edges can be
      re-derived into a concrete, unreduced-replayable schedule;
    * ``requires_canonical`` — sound only under canonical state keys
      (the engine rejects ``canonicalise=False``).

    ``fingerprint_token`` feeds the persistent-cache key (alongside
    ``SEMANTICS_VERSION``): bump a policy's token to invalidate its
    cached verdicts without touching the other policies' entries.
    ``metric_names`` documents the policy's own counters (the
    :mod:`repro.obs.metrics` schema), collected through the active
    collector exactly like the closure's fusion/prune counts.
    """

    name: str
    fingerprint_token: str
    successors: Callable[[Program, Config], List[Transition]]
    normalise_initial: Callable[[Program, Config], Config]
    closure_expansion: bool = False
    supports_witness_reexpansion: bool = True
    requires_canonical: bool = False
    sleep_expand: Optional[
        Callable[[Program, Config, frozenset], List[Tuple]]
    ] = None
    metric_names: Tuple[str, ...] = field(default_factory=tuple)


#: The policy registry: name -> strategy.  Populated below ("off",
#: "closure") and by :mod:`repro.semantics.dpor` via the import at the
#: bottom of this module; insertion order is presentation order.
_REGISTRY: Dict[str, ReductionStrategy] = {}


def register_strategy(strategy: ReductionStrategy) -> ReductionStrategy:
    """Add ``strategy`` to the registry (a duplicate name is a bug)."""
    if strategy.name in _REGISTRY:
        raise ValueError(
            f"reduction policy {strategy.name!r} is already registered"
        )
    _REGISTRY[strategy.name] = strategy
    return strategy


def validate_reduction(reduction: str) -> str:
    """Check a reduction policy spec, returning it unchanged.  The
    error message lists the recognised policies."""
    if reduction not in _REGISTRY:
        raise ValueError(
            f"unknown reduction policy {reduction!r}; "
            f"expected one of {', '.join(_REGISTRY)}"
        )
    return reduction


def get_strategy(reduction: str) -> ReductionStrategy:
    """The registered strategy for ``reduction`` (validating it)."""
    return _REGISTRY[validate_reduction(reduction)]


#: Memoised silent chains: ``(cmd, ls) -> (cmd', ls', fused)``.  The
#: chain is a pure function of the continuation/locals pair (silent
#: steps read nothing else), and the ε-closure re-walks the same chains
#: constantly — every interleaving that reaches a thread at the same
#: local point closes it identically.  Bounded by the same crude flush
#: as the continuation-summary cache so long-lived processes don't
#: retain dead programs' ASTs.
_CHAINS: Dict[Tuple, Tuple] = {}
_CHAINS_MAX = 100_000


def _close_chain(cmd, ls) -> Tuple:
    """Run (or replay) the maximal silent chain from ``(cmd, ls)``.

    Returns ``(cmd', ls', fused)``.  Deterministic by homogeneity of
    the step relation; diverging silent chains (a purely-local loop)
    are cut off at the first revisited ``(continuation, locals)`` pair
    or after :data:`MAX_SILENT_CHAIN` fused steps, whichever comes
    first.  Memo hits replay the stored ``fused`` count into the active
    metrics collector, so ``reduce.epsilon_fused`` is identical to the
    unmemoised walk.
    """
    key = (cmd, ls)
    cached = _CHAINS.get(key)
    if cached is None:
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
        cached = (cmd, ls, fused)
        if len(_CHAINS) >= _CHAINS_MAX:
            _CHAINS.clear()
        _CHAINS[key] = cached
    if cached[2] and _metrics._ACTIVE is not None:
        _metrics._ACTIVE.inc("reduce.epsilon_fused", cached[2])
    return cached


def close_thread(cfg: Config, tid: str) -> Config:
    """Run thread ``tid``'s maximal chain of silent steps.

    A thin wrapper over the memoised :func:`_close_chain`.  The closure
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


def reduced_successors(program: Program, cfg: Config) -> List[Transition]:
    """The macro-step successors of a closed configuration.

    Each underlying transition (with the covering-read prune enabled)
    is fused with the stepping thread's silent suffix; the macro-edge
    keeps the visible action and thread/component tags.  Callers must
    hand in closed configurations (the engine closes the initial one) —
    every target returned is then closed as well.
    """
    # The silent suffix is fused *inside* successor generation (the
    # ``close`` hook), before each Transition/Config is built — no
    # throwaway intermediate pair per closed successor.  The closure
    # contract (component states untouched) holds by construction:
    # ``_close_chain`` maps only ``(cmd, ls)``, and the target Config
    # is assembled once from the visible step's ``γ``/``β``.
    return successors(program, cfg, prune=True, close=_close_chain)


# ---------------------------------------------------------------------------
# registration
# ---------------------------------------------------------------------------

register_strategy(
    ReductionStrategy(
        name="off",
        # "off"/"closure" keep their historical plain-name tokens so
        # existing cached verdicts stay valid across the registry
        # refactor.
        fingerprint_token="off",
        successors=successors,
        normalise_initial=lambda program, cfg: cfg,
    )
)

register_strategy(
    ReductionStrategy(
        name="closure",
        fingerprint_token="closure",
        successors=reduced_successors,
        normalise_initial=close_config,
        closure_expansion=True,
        metric_names=("reduce.epsilon_fused", "reduce.covering_pruned"),
    )
)

# The DPOR strategy lives in its own module and registers itself here.
# The import is intentionally last: repro.semantics.dpor imports the
# strategy machinery defined above, so placing it at the bottom keeps
# the (reduce -> dpor -> reduce) cycle well-founded regardless of which
# module is imported first.
from repro.semantics.dpor import DPOR_STRATEGY  # noqa: E402

register_strategy(DPOR_STRATEGY)

#: Recognised reduction policies — derived from the registry, never
#: restated anywhere else.
REDUCTIONS = tuple(_REGISTRY)
