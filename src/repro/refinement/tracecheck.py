"""Direct trace-refinement checking (Definitions 5–7).

``C[AO] ⊑ C[CO]`` is checked literally: enumerate the stutter-free
client traces of both programs and verify every concrete trace is
pointwise refined by some abstract trace (Definition 6).  The paper's
executions are arbitrary finite or infinite transition sequences — not
necessarily maximal — so trace sets are prefix-closed; we enumerate the
*complete* traces (ending at configurations without successors, or
absorbed in a cycle) and match concrete complete traces against the
prefix-closure of the abstract set, which implies matching for every
prefix as well.

Trace enumeration runs on the strongly-connected-component condensation
of the canonical configuration graph.  Library-internal cycles
(busy-wait loops, failed-CAS retries) never change the client
projection, so every SCC is projection-constant and the enumeration is
exact; an SCC whose members have different projections would make the
stutter-free trace language infinite and is reported as
``cyclic_client_change`` instead of being silently mishandled.

This checker is exponential and meant for the small client battery; it
decides refinement directly, and cross-validates the forward-simulation
solver (the Theorem 8.1 soundness bench).

Traces are read off a :class:`~repro.refinement.traces.ClientGraph` —
the same un-fused graph and client projections the simulation game
consumes — so a caller running both checks
(:func:`repro.toolkit.verify_lock_implementation`) explores each client
program once and hands the graphs to both.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.refinement.traces import (
    ClientGraph,
    ClientSource,
    ClientState,
    as_client_graph,
    trace_refines,
)
from repro.semantics.witness import Witness, WitnessStep


@dataclass
class RefinementResult:
    """Outcome of a direct program-refinement check."""

    refines: bool
    concrete_traces: int
    abstract_traces: int
    unmatched: List[Tuple[ClientState, ...]] = field(default_factory=list)
    cyclic_client_change: bool = False
    #: On failure: a concrete execution of the *concrete* program whose
    #: client projection realises the (shortest) unmatched trace —
    #: extracted from the already-explored transition graph, no second
    #: exploration.  None when the check passed (or no realisation was
    #: found, which the enumeration's construction should preclude).
    witness: Optional[Witness] = None

    def __bool__(self) -> bool:
        return self.refines


def _tarjan_scc(nodes: List, edges: Dict) -> Dict:
    """Iterative Tarjan: node -> SCC id (ids in reverse topological order)."""
    index: Dict = {}
    low: Dict = {}
    on_stack: Set = set()
    stack: List = []
    scc_of: Dict = {}
    counter = [0]
    scc_count = [0]

    for root in nodes:
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            node, ei = work[-1]
            if ei == 0:
                index[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            out = edges.get(node, ())
            advanced = False
            while ei < len(out):
                succ = out[ei][3]
                ei += 1
                if succ not in index:
                    work[-1] = (node, ei)
                    work.append((succ, 0))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work[-1] = (node, ei)
            if ei >= len(out):
                work.pop()
                if low[node] == index[node]:
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        scc_of[member] = scc_count[0]
                        if member == node:
                            break
                    scc_count[0] += 1
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
    return scc_of


def client_traces(
    program: ClientSource, max_states: int = 200_000, engine=None
) -> Tuple[Set[Tuple[ClientState, ...]], bool]:
    """Complete stutter-free client traces of ``program``.

    A trace is *complete* when its execution ends at a configuration
    without successors (terminal or stuck) or enters a bottom SCC.
    Returns ``(traces, cyclic_client_change)``.  ``program`` is a
    :class:`~repro.lang.program.Program` — explored here, optionally
    through ``engine`` (a configured
    :class:`repro.engine.ExplorationEngine`) — or a
    :class:`~repro.refinement.traces.ClientGraph` already built for it.
    """
    return _client_traces(as_client_graph(program, max_states, engine))


def _client_traces(graph: ClientGraph):
    """Enumerate ``graph``'s complete stutter-free client traces:
    ``(traces, cyclic_client_change)``."""
    result = graph.result
    projections = graph.projections
    node_list = list(result.configs.keys())
    scc_of = _tarjan_scc(node_list, result.edges)

    # Group nodes, build the condensation, check projection-constancy.
    members: Dict[int, List[Tuple]] = {}
    for node, scc in scc_of.items():
        members.setdefault(scc, []).append(node)
    cyclic_change = False
    scc_proj: Dict[int, ClientState] = {}
    for scc, group in members.items():
        projs = {projections[n] for n in group}
        if len(projs) > 1:
            cyclic_change = True
        scc_proj[scc] = projections[group[0]]

    dag: Dict[int, Set[int]] = {scc: set() for scc in members}
    has_sink_member: Dict[int, bool] = {scc: False for scc in members}
    for node in node_list:
        scc = scc_of[node]
        out = result.edges.get(node, ())
        if not out:
            has_sink_member[scc] = True
        for _tid, _comp, _act, succ in out:
            if scc_of[succ] != scc:
                dag[scc].add(scc_of[succ])

    # Tarjan assigns ids in reverse topological order: successors of an
    # SCC always have smaller ids, so ascending id order is a valid
    # bottom-up evaluation order for suffix sets.
    suffixes: Dict[int, FrozenSet[Tuple[ClientState, ...]]] = {}
    for scc in sorted(members):
        proj = scc_proj[scc]
        collected: Set[Tuple[ClientState, ...]] = set()
        if has_sink_member[scc] or not dag[scc]:
            collected.add((proj,))
        for succ_scc in dag[scc]:
            for suffix in suffixes[succ_scc]:
                if suffix[0] == proj:
                    collected.add(suffix)
                else:
                    collected.add((proj,) + suffix)
        suffixes[scc] = frozenset(collected)

    initial_scc = scc_of[result.initial_key]
    return set(suffixes[initial_scc]), cyclic_change


def _realise_trace(
    result, projections: Dict, trace: Tuple[ClientState, ...]
) -> Optional[Witness]:
    """A concrete execution whose stutter-free client projection is
    ``trace``, rebuilt from the explored graph.

    BFS over the product of the recorded transition graph and the trace
    position: an edge stays at position ``i`` when the successor still
    projects to ``trace[i]`` (stutter) and advances when it projects to
    ``trace[i+1]``.  The target is full consumption at a sink state
    (terminal/stuck); traces absorbed in a cycle fall back to the first
    full-consumption state found.  Every step is a recorded edge of the
    unreduced graph, so the witness replays through raw ``successors``.
    """
    if not trace or projections[result.initial_key] != trace[0]:
        return None
    start = (result.initial_key, 0)
    # (node, i) -> (previous product state, (tid, component, action, key))
    parent: Dict[Tuple, Optional[Tuple]] = {start: None}
    queue = deque([start])
    goal = None
    fallback = None
    while queue and goal is None:
        node, i = queue.popleft()
        out = result.edges.get(node, ())
        if i == len(trace) - 1:
            if not out:
                goal = (node, i)
                break
            if fallback is None:
                fallback = (node, i)
        for tid, comp, act, succ in out:
            proj = projections[succ]
            if proj == trace[i]:
                ni = i
            elif i + 1 < len(trace) and proj == trace[i + 1]:
                ni = i + 1
            else:
                continue
            state = (succ, ni)
            if state in parent:
                continue
            parent[state] = ((node, i), (tid, comp, act, succ))
            queue.append(state)
    target = goal if goal is not None else fallback
    if target is None:
        return None
    steps: List[WitnessStep] = []
    state = target
    while parent[state] is not None:
        prev, (tid, comp, act, key) = parent[state]
        steps.append(WitnessStep(tid, comp, act, result.configs[key]))
        state = prev
    steps.reverse()
    return Witness(initial=result.initial, steps=steps)


def prefix_closure(
    traces: Set[Tuple[ClientState, ...]]
) -> Set[Tuple[ClientState, ...]]:
    """All non-empty prefixes of the given traces."""
    out: Set[Tuple[ClientState, ...]] = set()
    for trace in traces:
        for i in range(1, len(trace) + 1):
            out.add(trace[:i])
    return out


def check_program_refinement(
    concrete: ClientSource,
    abstract: ClientSource,
    max_states: int = 200_000,
    engine=None,
) -> RefinementResult:
    """Definition 6/7: every stutter-free concrete client trace is
    pointwise refined by some abstract client trace.

    Concrete *complete* traces are matched against the prefix-closure of
    the abstract complete traces; matching for all prefixes of concrete
    traces follows (a prefix of a matched trace is matched by the
    corresponding prefix).

    On failure the result carries a ``witness``: a concrete
    interleaving of the *concrete* program realising the shortest
    unmatched trace, rebuilt from the transition graph the check
    already explored — this is what
    :meth:`repro.toolkit.RefinementReport.describe` prints.

    Each side is a program (explored here, optionally through
    ``engine``) or a :class:`~repro.refinement.traces.ClientGraph`
    already built for it, e.g. one shared with
    :func:`~repro.refinement.simulation.find_forward_simulation`.
    """
    conc = as_client_graph(concrete, max_states, engine)
    conc_traces, conc_cyclic = _client_traces(conc)
    abs_traces, abs_cyclic = _client_traces(
        as_client_graph(abstract, max_states, engine)
    )
    abs_prefixes = prefix_closure(abs_traces)

    by_len: Dict[int, List[Tuple[ClientState, ...]]] = {}
    for at in abs_prefixes:
        by_len.setdefault(len(at), []).append(at)

    unmatched = []
    for ct in conc_traces:
        candidates = by_len.get(len(ct), ())
        if not any(trace_refines(ct, at) for at in candidates):
            unmatched.append(ct)

    witness = None
    if unmatched:
        shortest = min(unmatched, key=lambda t: (len(t), repr(t)))
        witness = _realise_trace(conc.result, conc.projections, shortest)

    return RefinementResult(
        refines=not unmatched and not conc_cyclic and not abs_cyclic,
        concrete_traces=len(conc_traces),
        abstract_traces=len(abs_traces),
        unmatched=unmatched,
        cyclic_client_change=conc_cyclic or abs_cyclic,
        witness=witness,
    )
