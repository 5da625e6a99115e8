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

The game runs over the two programs' un-fused configuration graphs,
their client projections and program counters — a
:class:`~repro.refinement.traces.ClientGraph` per side, explored once by
:func:`~repro.refinement.traces.client_graph`.  A caller that also
checks trace inclusion (:func:`repro.toolkit.verify_lock_implementation`)
builds both graphs first and passes them to both checkers, so each
client program is explored once per refinement check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.refinement.traces import ClientGraph, ClientSource, as_client_graph


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
    #: the game is lost) — the root of the counterexample: the concrete
    #: side of the first-discovered product pair with a concrete step
    #: no abstract stutter or step can match, or the initial key when
    #: the initial pair itself disagrees on the client projection.
    failure: Optional[Tuple] = None

    def __bool__(self) -> bool:
        return self.found


def find_forward_simulation(
    concrete: ClientSource,
    abstract: ClientSource,
    max_states: int = 200_000,
    engine=None,
) -> SimulationResult:
    """Solve the simulation game between ``C[CO]`` and ``C[AO]``.

    Both programs must be instantiations of the same client template
    (same thread ids, same client variables, same statement labels), as
    in Definition 7.  Each side is a :class:`~repro.lang.program.Program`
    — explored here, optionally through ``engine`` (a configured
    :class:`repro.engine.ExplorationEngine`) — or a
    :class:`~repro.refinement.traces.ClientGraph` already built for it,
    e.g. one shared with
    :func:`~repro.refinement.tracecheck.check_program_refinement`.
    """
    conc = as_client_graph(concrete, max_states, engine)
    abst = as_client_graph(abstract, max_states, engine)
    # The game runs over dense node ids (a configuration's position in
    # its graph): product pairs are single ints ``a * n + c``, so the
    # pair set, the candidate table and the fixpoint hash and compare
    # machine ints instead of configuration keys.
    c_keys, c_succ, c_init = _indexed(conc)
    a_keys, a_succ, a_init = _indexed(abst)
    n = len(c_keys)
    # Program counters and projections are ints too: pcs by a table
    # shared by both sides (they are compared across them), projections
    # by each graph's own projection ids.  ``refines`` depends on the
    # two projections alone, so it runs once per distinct projection
    # pair, keyed ``concrete id * |abstract projections| + abstract id``.
    pc_ids: Dict[Tuple, int] = {}
    conc_pcs, abst_pcs = conc.pcs, abst.pcs
    c_pcs = [pc_ids.setdefault(conc_pcs[k], len(pc_ids)) for k in c_keys]
    a_pcs = [pc_ids.setdefault(abst_pcs[k], len(pc_ids)) for k in a_keys]
    c_states, a_states = conc.client_states, abst.client_states
    c_ids, a_ids = conc.projection_ids, abst.projection_ids
    c_proj = [c_ids[k] for k in c_keys]
    a_proj = [a_ids[k] for k in a_keys]
    m = len(a_states)
    refines: Dict[int, bool] = {}

    def good(a: int, c: int) -> bool:
        if c_pcs[c] != a_pcs[a]:
            return False
        cp, ap = c_proj[c], a_proj[a]
        pp = cp * m + ap
        verdict = refines.get(pp)
        if verdict is None:
            verdict = refines[pp] = c_states[cp].refines(a_states[ap])
        return verdict

    init_pair = a_init * n + c_init
    if not good(a_init, c_init):
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
    # edge: stutter (same abstract state) or one abstract move.  The
    # pair dict keeps discovery order.
    pairs: Dict[int, None] = {init_pair: None}
    queue: List[int] = [init_pair]
    # pair -> per concrete edge, the candidate successor pairs
    candidates: Dict[int, List[List[int]]] = {}

    while queue:
        pair = queue.pop()
        a, c = divmod(pair, n)
        a_moves = a_succ[a]
        per_edge = []
        for cs in c_succ[c]:
            cands = []
            if good(a, cs):
                cands.append(a * n + cs)
            for as_ in a_moves:
                if good(as_, cs):
                    cands.append(as_ * n + cs)
            per_edge.append(cands)
            for succ_pair in cands:
                if succ_pair not in pairs:
                    pairs[succ_pair] = None
                    queue.append(succ_pair)
        candidates[pair] = per_edge

    # Greatest fixpoint: drop pairs with an unmatchable concrete step.
    alive: Set[int] = set(pairs)
    iterations = 0
    changed = True
    while changed:
        changed = False
        iterations += 1
        dead = [
            pair
            for pair in alive
            if not all(
                any(p in alive for p in cands) for cands in candidates[pair]
            )
        ]
        if dead:
            changed = True
            alive.difference_update(dead)

    found = init_pair in alive
    failure = None
    if not found:
        # The fixpoint's first round removes exactly the pairs with a
        # concrete edge that has no candidate at all, and a lost game
        # removed something in it: the first-discovered such pair's
        # concrete configuration is where the counterexample starts.
        stuck = next(pair for pair in pairs if not all(candidates[pair]))
        failure = c_keys[stuck % n]
    return SimulationResult(
        found=found,
        relation_size=len(alive) if found else 0,
        abstract_states=abst.result.state_count,
        concrete_states=conc.result.state_count,
        product_pairs=len(pairs),
        iterations=iterations,
        failure=failure,
    )


def _indexed(
    graph: ClientGraph,
) -> Tuple[List[Tuple], List[Tuple[int, ...]], int]:
    """``graph``'s configuration keys in node-id order, per node the ids
    of its edge targets (one entry per recorded edge), and the initial
    configuration's id."""
    result = graph.result
    keys = list(result.configs)
    ids = {key: i for i, key in enumerate(keys)}
    edges = result.edges
    succ = [tuple(ids[e[3]] for e in edges.get(key, ())) for key in keys]
    return keys, succ, ids[result.initial_key]
