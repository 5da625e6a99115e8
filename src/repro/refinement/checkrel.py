"""Checking a user-supplied forward-simulation relation (Definition 8).

The game solver (:mod:`repro.refinement.simulation`) *discovers* a
simulation; the paper's Isabelle proofs instead *supply* a relation and
discharge Definition 8's three conditions.  This module reproduces that
workflow: the user provides ``relate(abs_env, conc_env) -> bool`` and
the checker verifies, over all product-reachable pairs,

1. every related pair satisfies the client-observation condition
   (client locals equal, client ``cvd`` equal, concrete observable sets
   ⊆ abstract ones);
2. the initial configurations are related;
3. every concrete step from a related pair is matched by abstract
   stuttering or by one abstract step, ending in a related pair.

Because the relation is given, failures are attributed precisely: a
pair that should be related but is not (condition 3 dead end), or a
related pair violating client observation (condition 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Set, Tuple

from repro.assertions.core import Env, make_env
from repro.refinement.traces import ClientSource, as_client_graph

#: relate(abstract_env, concrete_env) -> bool.
Relation = Callable[[Env, Env], bool]


@dataclass
class RelationCheckResult:
    """Outcome of checking a supplied simulation relation."""

    valid: bool
    related_pairs: int
    checked_steps: int
    #: ('observation' | 'initial' | 'unmatched-step', abs key, conc key)
    failures: List[Tuple[str, Tuple, Tuple]] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.valid


def check_simulation_relation(
    concrete: ClientSource,
    abstract: ClientSource,
    relate: Relation,
    max_states: int = 200_000,
    stop_on_first: bool = False,
) -> RelationCheckResult:
    """Verify that ``relate`` is a forward simulation per Definition 8.

    Each side is a program or a
    :class:`~repro.refinement.traces.ClientGraph` already built for it.
    """
    conc = as_client_graph(concrete, max_states)
    abst = as_client_graph(abstract, max_states)

    def related(akey: Tuple, ckey: Tuple) -> bool:
        return relate(
            make_env(abst.program, abst.result.configs[akey]),
            make_env(conc.program, conc.result.configs[ckey]),
        )

    def observation_ok(akey: Tuple, ckey: Tuple) -> bool:
        return conc.projections[ckey].refines(abst.projections[akey])

    failures: List[Tuple[str, Tuple, Tuple]] = []
    init_pair = (abst.result.initial_key, conc.result.initial_key)
    if not related(*init_pair):
        failures.append(("initial", *init_pair))
        return RelationCheckResult(
            valid=False, related_pairs=0, checked_steps=0, failures=failures
        )

    seen: Set[Tuple[Tuple, Tuple]] = {init_pair}
    queue: List[Tuple[Tuple, Tuple]] = [init_pair]
    checked_steps = 0
    while queue:
        akey, ckey = queue.pop()
        # Condition 1: client observation at every related pair.
        if not observation_ok(akey, ckey):
            failures.append(("observation", akey, ckey))
            if stop_on_first:
                break
            continue
        # Condition 3: match every concrete step.
        for (_tid, _comp, _act, csucc) in conc.result.edges.get(ckey, ()):
            checked_steps += 1
            matches = []
            if related(akey, csucc):
                matches.append((akey, csucc))
            for (_t2, _c2, _a2, asucc) in abst.result.edges.get(akey, ()):
                if related(asucc, csucc):
                    matches.append((asucc, csucc))
            if not matches:
                failures.append(("unmatched-step", akey, csucc))
                if stop_on_first:
                    queue.clear()
                    break
                continue
            for pair in matches:
                if pair not in seen:
                    seen.add(pair)
                    queue.append(pair)

    return RelationCheckResult(
        valid=not failures,
        related_pairs=len(seen),
        checked_steps=checked_steps,
        failures=failures,
    )
