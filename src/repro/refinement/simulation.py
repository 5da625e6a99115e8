"""Forward simulation as a game (Definition 8, Theorem 8.1).

Definition 8 asks for a relation ``R`` between abstract and concrete
configurations such that (1) related states agree on the client
projection — equal client locals, equal client ``cvd``, concrete
observable sets contained in abstract ones; (2) the initial states are
related; (3) every concrete step is matched by abstract stuttering or by
one abstract step, preserving ``R``.

Instead of asking the user to supply ``R`` (as the paper's Isabelle
proofs do), we *solve* for it: compute all product-reachable pairs
satisfying the client-observation condition, then take the greatest
fixpoint removing pairs with an unmatched concrete step.  If the initial
pair survives, the surviving set **is** a forward simulation — the
certificate for Propositions 9 and 10.  The solver also discovers the
stuttering structure automatically (failed CAS, busy-wait reads, the FAI
before the decisive read all stutter; the successful CAS / decisive read
matches the abstract method call).

Good pairs additionally require equal client program counters, which
pins the alignment of the shared client code; this strengthens ``R``
(any relation satisfying a stronger condition (1) is still a simulation
in the sense of Definition 8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.lang.program import Program
from repro.refinement.traces import ClientState, client_projection
from repro.semantics.explore import ExploreResult, explore
from repro.util.errors import VerificationError


@dataclass
class SimulationResult:
    """Outcome of the simulation game."""

    found: bool
    relation_size: int
    abstract_states: int
    concrete_states: int
    product_pairs: int
    iterations: int
    #: A concrete configuration key whose steps cannot be matched (when
    #: the game is lost) — the root of the counterexample.
    failure: Optional[Tuple] = None

    def __bool__(self) -> bool:
        return self.found


@dataclass
class _Side:
    result: ExploreResult
    projections: Dict[Tuple, ClientState]
    pcs: Dict[Tuple, Tuple]


def _prepare(program: Program, max_states: int, engine=None) -> _Side:
    # The simulation game matches individual concrete steps against
    # abstract stuttering: it needs the un-fused transition graph (and
    # the intermediate configurations whose program counters pin the
    # alignment), so reduction is explicitly off regardless of the
    # engine's configured policy.
    if engine is not None:
        result = engine.explore(
            program, max_states=max_states, collect_edges=True,
            reduction="off",
        )
    else:
        result = explore(
            program, max_states=max_states, collect_edges=True,
            reduction="off",
        )
    if result.truncated:
        raise VerificationError(
            "state space truncated during simulation; raise max_states"
        )
    projections = {
        key: client_projection(program, cfg)
        for key, cfg in result.configs.items()
    }
    pcs = {
        key: tuple(cfg.pc(t, program) for t in program.tids)
        for key, cfg in result.configs.items()
    }
    return _Side(result=result, projections=projections, pcs=pcs)


def find_forward_simulation(
    concrete: Program,
    abstract: Program,
    max_states: int = 200_000,
    engine=None,
) -> SimulationResult:
    """Solve the simulation game between ``C[CO]`` and ``C[AO]``.

    Both programs must be instantiations of the same client template
    (same thread ids, same client variables, same statement labels), as
    in Definition 7.  ``engine`` optionally routes the two explorations
    through a configured :class:`repro.engine.ExplorationEngine` (e.g.
    the sharded multiprocess pipeline for large implementations).
    """
    conc = _prepare(concrete, max_states, engine)
    abst = _prepare(abstract, max_states, engine)

    def good(akey: Tuple, ckey: Tuple) -> bool:
        if conc.pcs[ckey] != abst.pcs[akey]:
            return False
        return conc.projections[ckey].refines(abst.projections[akey])

    init_pair = (abst.result.initial_key, conc.result.initial_key)
    if not good(*init_pair):
        return SimulationResult(
            found=False,
            relation_size=0,
            abstract_states=abst.result.state_count,
            concrete_states=conc.result.state_count,
            product_pairs=0,
            iterations=0,
            failure=conc.result.initial_key,
        )

    # Forward-reachable good pairs, with candidate matches per concrete
    # edge: stutter (same abstract state) or one abstract move.
    pairs: Set[Tuple[Tuple, Tuple]] = {init_pair}
    queue: List[Tuple[Tuple, Tuple]] = [init_pair]
    # (pair, concrete edge index) -> list of candidate successor pairs
    candidates: Dict[Tuple[Tuple[Tuple, Tuple], int], List] = {}

    while queue:
        akey, ckey = queue.pop()
        for i, (_tid, _comp, _act, csucc) in enumerate(
            conc.result.edges.get(ckey, ())
        ):
            cands = []
            if good(akey, csucc):
                cands.append((akey, csucc))
            for (_t2, _c2, _a2, asucc) in abst.result.edges.get(akey, ()):
                if good(asucc, csucc):
                    cands.append((asucc, csucc))
            candidates[((akey, ckey), i)] = cands
            for pair in cands:
                if pair not in pairs:
                    pairs.add(pair)
                    queue.append(pair)

    # Greatest fixpoint: drop pairs with an unmatchable concrete step.
    alive: Set[Tuple[Tuple, Tuple]] = set(pairs)
    iterations = 0
    changed = True
    while changed:
        changed = False
        iterations += 1
        dead = []
        for pair in alive:
            akey, ckey = pair
            for i in range(len(conc.result.edges.get(ckey, ()))):
                cands = candidates.get((pair, i), ())
                if not any(p in alive for p in cands):
                    dead.append(pair)
                    break
        if dead:
            changed = True
            for pair in dead:
                alive.discard(pair)

    found = init_pair in alive
    return SimulationResult(
        found=found,
        relation_size=len(alive) if found else 0,
        abstract_states=abst.result.state_count,
        concrete_states=conc.result.state_count,
        product_pairs=len(pairs),
        iterations=iterations,
        failure=None if found else conc.result.initial_key,
    )
