"""One exploration per client program: the shared refinement graph.

:func:`repro.refinement.traces.client_graph` explores a program once;
the simulation game, trace inclusion and the supplied-relation checker
accept the graph in place of the program.  These tests pin that a shared
graph gives exactly the verdicts of the standalone checks, that
:func:`repro.toolkit.verify_lock_implementation` explores each program
once, that the graph's projections and pcs (memoised on interned ids)
equal fresh ones, that the game's memo is transparent against a
memo-free reference, and that the per-program caches the checks fill
never leak into pickles.
"""

import dataclasses
import pickle
import zlib

import pytest

from repro.engine import ExplorationEngine
from repro.impls.seqlock import SEQLOCK_VARS, seqlock_fill
from repro.impls.spinlock import SPINLOCK_VARS, spinlock_fill
from repro.impls.ticketlock import TICKETLOCK_VARS, ticketlock_fill
from repro.lang import ast as A
from repro.lang.expr import Lit, Reg
from repro.lang.program import Program
from repro.litmus.clients import (
    abstract_fill,
    lock_client,
    lock_client_three_threads,
)
from repro.objects.lock import AbstractLock
from repro.refinement.checkrel import check_simulation_relation
from repro.refinement.simulation import find_forward_simulation
from repro.refinement.tracecheck import check_program_refinement, client_traces
from repro.refinement.traces import (
    ClientGraph,
    ClientState,
    client_graph,
    client_projection,
)
from repro.toolkit import default_lock_battery, verify_lock_implementation
from repro.util.errors import VerificationError
from tests.conftest import abstract_lock_client, seqlock_client
from tests.test_refinement_checkrel import obs_refines, pcs_equal


def _relaxed_release_fill(obj, method, dest=None):
    # A broken spinlock: the release is a relaxed write.
    if method == "acquire":
        return A.LibBlock(
            A.do_until(A.Cas("_b", "lk", Lit(0), Lit(1)), Reg("_b"))
        )
    return A.LibBlock(A.Write("lk", Lit(0)))


LOCKS = {
    "spinlock": (spinlock_fill, SPINLOCK_VARS),
    "seqlock": (seqlock_fill, SEQLOCK_VARS),
    "ticketlock": (ticketlock_fill, TICKETLOCK_VARS),
    "relaxed-release": (_relaxed_release_fill, {"lk": 0}),
}
CLIENTS = {name: (builder, kw) for name, builder, kw in default_lock_battery()}


def _programs(lock, builder, kwargs):
    fill, lib_vars = LOCKS[lock]
    afill, objs = abstract_fill(lambda: AbstractLock("l"))
    concrete = builder(fill, lib_vars=dict(lib_vars), **kwargs)
    abstract = builder(afill, objects=objs, **kwargs)
    return concrete, abstract


def _sim_fields(r):
    return (r.found, r.relation_size, r.product_pairs, r.iterations, r.failure)


def _trace_fields(r):
    return (
        r.refines,
        r.concrete_traces,
        r.abstract_traces,
        set(r.unmatched),
        r.cyclic_client_change,
        r.witness is not None,
    )


class TestSharedGraphParity:
    @pytest.mark.parametrize("client", sorted(CLIENTS))
    @pytest.mark.parametrize("lock", sorted(LOCKS))
    def test_battery_verdicts_match_standalone(self, lock, client):
        concrete, abstract = _programs(lock, *CLIENTS[client])
        sim = find_forward_simulation(concrete, abstract)
        traces = check_program_refinement(concrete, abstract)

        # Same program objects, so configuration keys (and a failure
        # key) compare equal across the two runs.
        conc, abst = client_graph(concrete), client_graph(abstract)
        shared_sim = find_forward_simulation(conc, abst)
        shared_traces = check_program_refinement(conc, abst)

        assert _sim_fields(shared_sim) == _sim_fields(sim)
        assert _trace_fields(shared_traces) == _trace_fields(traces)
        expect_ok = lock != "relaxed-release" or client == "one-sided-client"
        assert sim.found is expect_ok
        assert traces.refines is expect_ok

    @pytest.mark.parametrize("lock", sorted(LOCKS))
    def test_three_thread_simulation_matches_standalone(self, lock):
        concrete, abstract = _programs(lock, lock_client_three_threads, {})
        sim = find_forward_simulation(concrete, abstract)
        shared = find_forward_simulation(
            client_graph(concrete), client_graph(abstract)
        )
        assert _sim_fields(shared) == _sim_fields(sim)
        assert sim.found is (lock != "relaxed-release")

    def test_mixed_program_and_graph_sides(self):
        concrete, abstract = _programs("seqlock", *CLIENTS["reader-client"])
        sim = find_forward_simulation(concrete, abstract)
        mixed = find_forward_simulation(client_graph(concrete), abstract)
        assert _sim_fields(mixed) == _sim_fields(sim)

    def test_client_traces_from_graph(self):
        concrete, _ = _programs("ticketlock", *CLIENTS["writer-client"])
        assert client_traces(client_graph(concrete)) == client_traces(concrete)

    def test_check_simulation_relation_unchanged(self):
        concrete, abstract = _programs("seqlock", *CLIENTS["reader-client"])

        def relate(abs_env, conc_env):
            return pcs_equal(abs_env, conc_env) and obs_refines(
                abs_env, conc_env
            )

        standalone = check_simulation_relation(concrete, abstract, relate)
        shared = check_simulation_relation(
            client_graph(concrete), client_graph(abstract), relate
        )
        assert (shared.valid, shared.related_pairs, shared.checked_steps) == (
            standalone.valid,
            standalone.related_pairs,
            standalone.checked_steps,
        )
        assert shared.failures == standalone.failures

    def test_graph_projections_are_lazy(self):
        graph = client_graph(abstract_lock_client())
        assert isinstance(graph, ClientGraph)
        assert "projections" not in vars(graph) and "pcs" not in vars(graph)
        client_traces(graph)
        assert "projections" in vars(graph)
        assert "pcs" not in vars(graph)  # trace inclusion never reads pcs
        assert set(graph.pcs) == set(graph.result.configs)


MEMO_CLIENTS = sorted(CLIENTS) + ["three-threads"]


def _client_programs(lock, client):
    if client == "three-threads":
        return _programs(lock, lock_client_three_threads, {})
    return _programs(lock, *CLIENTS[client])


class TestInternedFacts:
    """Projections and pcs are read off the canonical key's ids: one
    projection per distinct ``(client locals, γ-id)``, one pc per thread
    id.  The fresh :func:`client_projection` and :meth:`Config.pc` are the
    oracle for every configuration of both graphs (each lock × the
    default battery and the three-thread client)."""

    @pytest.mark.parametrize("client", MEMO_CLIENTS)
    @pytest.mark.parametrize("lock", sorted(LOCKS))
    def test_memo_matches_fresh_projection_and_pcs(self, lock, client):
        for program in _client_programs(lock, client):
            graph = client_graph(program)
            configs = graph.result.configs
            assert set(graph.projections) == set(configs)
            for key, cfg in configs.items():
                assert graph.projections[key] == client_projection(
                    program, cfg
                )
                assert graph.pcs[key] == tuple(
                    cfg.pc(t, program) for t in program.tids
                )

    # The broken lock's graphs hold equal projections of distinct
    # ``(client locals, γ-id)`` (γ-ids that differ only in what the
    # projection leaves out), so they exercise the sharing.
    @pytest.mark.parametrize("client", MEMO_CLIENTS)
    @pytest.mark.parametrize("lock", sorted(LOCKS))
    def test_equal_projections_are_one_object(self, lock, client):
        for program in _client_programs(lock, client):
            graph = client_graph(program)
            states = graph.client_states
            assert len(set(states)) == len(states)
            for key, pid in graph.projection_ids.items():
                assert graph.projections[key] is states[pid]


def _reference_game(conc, abst):
    """The game of :func:`find_forward_simulation` spelled over
    configuration keys, with projections and pcs from the fresh
    :func:`client_projection` / :meth:`Config.pc` and no memo: its
    ``(found, relation_size, product_pairs, iterations, failure)``."""

    def facts(graph):
        program = graph.program
        return {
            key: (
                tuple(cfg.pc(t, program) for t in program.tids),
                client_projection(program, cfg),
            )
            for key, cfg in graph.result.configs.items()
        }

    c_facts, a_facts = facts(conc), facts(abst)
    c_edges, a_edges = conc.result.edges, abst.result.edges

    def good(a, c):
        (a_pc, a_proj), (c_pc, c_proj) = a_facts[a], c_facts[c]
        return a_pc == c_pc and c_proj.refines(a_proj)

    init = (abst.result.initial_key, conc.result.initial_key)
    if not good(*init):
        return (False, 0, 0, 0, init[1])
    pairs, queue, candidates = {init: None}, [init], {}
    while queue:
        a, c = pair = queue.pop()
        moves = [e[3] for e in a_edges.get(a, ())]
        per_edge = []
        for cs in (e[3] for e in c_edges.get(c, ())):
            cands = [(x, cs) for x in [a] + moves if good(x, cs)]
            per_edge.append(cands)
            for succ in cands:
                if succ not in pairs:
                    pairs[succ] = None
                    queue.append(succ)
        candidates[pair] = per_edge
    alive, iterations = set(pairs), 0
    while True:
        iterations += 1
        dead = {
            p
            for p in alive
            if not all(any(q in alive for q in cs) for cs in candidates[p])
        }
        if not dead:
            break
        alive -= dead
    if init in alive:
        return (True, len(alive), len(pairs), iterations, None)
    stuck = next(p for p in pairs if not all(candidates[p]))
    return (False, 0, len(pairs), iterations, stuck[1])


def _spelled(state):
    # A process-independent spelling (frozenset order follows string
    # hashing, which varies per process).
    return repr(
        (
            state.locals,
            sorted(map(repr, state.ops)),
            [(k, sorted(map(repr, v))) for k, v in state.obs],
            sorted(map(repr, state.cvd)),
        )
    )


def _scrambled_refines(self, abstract):
    # Any function of the two projections: the memo must be transparent
    # to it, not only to Definition 5's (which rarely tells apart two
    # concrete states with equal pcs).
    spelled = _spelled(self) + _spelled(abstract)
    return zlib.crc32(spelled.encode()) % 3 != 0


class TestRefinesMemo:
    @pytest.mark.parametrize("scrambled", [False, True])
    @pytest.mark.parametrize("client", sorted(CLIENTS))
    @pytest.mark.parametrize("lock", sorted(LOCKS))
    def test_game_matches_unmemoised_reference(
        self, lock, client, scrambled, monkeypatch
    ):
        if scrambled:
            monkeypatch.setattr(ClientState, "refines", _scrambled_refines)
        conc, abst = (client_graph(p) for p in _programs(lock, *CLIENTS[client]))
        assert _sim_fields(find_forward_simulation(conc, abst)) == (
            _reference_game(conc, abst)
        )


class TestPinnedGame:
    """The game's numbers on the three-thread client, for the locks
    that refine the abstract lock."""

    @pytest.mark.parametrize(
        "lock,expected",
        [
            ("seqlock", (True, 2055, 2055, 1)),
            ("ticketlock", (True, 580, 580, 1)),
            ("spinlock", (True, 253, 253, 1)),
        ],
    )
    def test_three_thread_game(self, lock, expected):
        sim = find_forward_simulation(
            *_programs(lock, lock_client_three_threads, {})
        )
        assert (
            sim.found, sim.relation_size, sim.product_pairs, sim.iterations
        ) == expected
        assert sim.failure is None


class TestTheorem81ThreeThreads:
    """Theorem 8.1 on the three-thread client: a simulation found implies
    trace inclusion.  Seqlock and ticketlock break it today (ROADMAP
    item 1); mending that must turn these strict xfails into passes."""

    @pytest.mark.parametrize(
        "lock",
        [
            pytest.param(
                lock,
                marks=pytest.mark.xfail(
                    strict=True,
                    reason=(
                        "ROADMAP item 1: the game finds a simulation, but "
                        "trace inclusion leaves 18 of 24 concrete traces "
                        "unmatched"
                    ),
                ),
            )
            for lock in ("seqlock", "ticketlock")
        ]
        + ["spinlock"],
    )
    def test_simulation_implies_trace_inclusion(self, lock):
        conc, abst = (
            client_graph(p)
            for p in _programs(lock, lock_client_three_threads, {})
        )
        sim = find_forward_simulation(conc, abst)
        traces = check_program_refinement(conc, abst)
        assert sim.found
        assert traces.refines, (
            f"{len(traces.unmatched)} of {traces.concrete_traces} concrete "
            f"traces unmatched ({traces.abstract_traces} abstract)"
        )


class TestOneExplorationPerProgram:
    @pytest.mark.parametrize("check_traces", [True, False])
    def test_verify_explores_each_program_once(self, check_traces):
        engine = ExplorationEngine()
        report = verify_lock_implementation(
            spinlock_fill,
            SPINLOCK_VARS,
            battery=(default_lock_battery()[0],),
            check_traces=check_traces,
            engine=engine,
        )
        assert report.ok
        assert engine.explorations == 2

    def test_standalone_checks_explore_their_own_programs(self):
        concrete, abstract = _programs("spinlock", *CLIENTS["reader-client"])
        engine = ExplorationEngine()
        find_forward_simulation(concrete, abstract, engine=engine)
        check_program_refinement(concrete, abstract, engine=engine)
        assert engine.explorations == 4

    def test_graph_arguments_ignore_the_engine(self):
        concrete, abstract = _programs("spinlock", *CLIENTS["reader-client"])
        engine = ExplorationEngine()
        conc = client_graph(concrete, engine=engine)
        abst = client_graph(abstract, engine=engine)
        find_forward_simulation(conc, abst, engine=engine)
        check_program_refinement(conc, abst, engine=engine)
        assert engine.explorations == 2


class TestTruncation:
    def test_client_graph_raises(self):
        with pytest.raises(VerificationError):
            client_graph(seqlock_client(), max_states=5)

    def test_check_program_refinement_raises(self):
        # The simulation twin is
        # tests/test_refinement_simulation.py::test_truncation_raises.
        with pytest.raises(VerificationError):
            check_program_refinement(
                seqlock_client(), abstract_lock_client(), max_states=5
            )

    def test_verify_lock_implementation_raises(self):
        with pytest.raises(VerificationError):
            verify_lock_implementation(
                seqlock_fill, SEQLOCK_VARS, max_states=5
            )


class TestProgramCacheHygiene:
    def test_pickle_after_verification(self):
        built = []

        def recording_client(fill, **kwargs):
            program = lock_client(fill, **kwargs)
            built.append(program)
            return program

        report = verify_lock_implementation(
            seqlock_fill,
            SEQLOCK_VARS,
            battery=(("reader-client", recording_client, {}),),
        )
        assert report.ok
        assert len(built) == 2
        field_names = {f.name for f in dataclasses.fields(Program)}
        for program in built:
            # The checks filled the derived caches ...
            assert {"_interner", "tids", "_lib_registers"} <= set(
                program.__dict__
            )
            # ... none of which reaches a pickle.
            clone = pickle.loads(pickle.dumps(program))
            assert set(clone.__dict__) == field_names
