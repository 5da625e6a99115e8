"""The public surface: the exact ``__all__`` of the packages users import.

Each set is pinned, so a deletion that leaves a stale export, or an
export added in passing, fails here: a change to the public API has to
be made on purpose.  Every listed name must also resolve on its module.
"""

import importlib

import pytest

EXPORTS = {
    "repro": {
        "AbstractCounter",
        "AbstractLock",
        "AbstractObject",
        "AbstractQueue",
        "AbstractRegister",
        "AbstractStack",
        "Config",
        "EMPTY",
        "ExplorationEngine",
        "ExploreResult",
        "Lit",
        "ProofOutline",
        "Program",
        "Reg",
        "Thread",
        "ThreadOutline",
        "Witness",
        "WitnessStep",
        "__version__",
        "ast",
        "check_proof_outline",
        "check_program_refinement",
        "client_graph",
        "explore",
        "final_outcomes",
        "find_forward_simulation",
        "format_config",
        "initial_config",
        "lit",
        "reachable",
        "reconstruct_witness",
        "reg",
        "replay_witness",
        "verify_lock_implementation",
    },
    "repro.engine": {
        "DEFAULT_MAX_STATES",
        "ExplorationEngine",
        "ExploreResult",
        "explore_sequential",
    },
    "repro.semantics": {
        "Config",
        "ExploreResult",
        "REDUCTIONS",
        "ReductionStrategy",
        "Transition",
        "canonical_key",
        "close_config",
        "explore",
        "final_outcomes",
        "get_strategy",
        "initial_config",
        "reachable",
        "reduced_successors",
        "silent_step",
        "successors",
        "thread_successors",
    },
}


@pytest.mark.parametrize("name", sorted(EXPORTS))
def test_all_is_pinned(name):
    module = importlib.import_module(name)
    assert len(module.__all__) == len(set(module.__all__))
    assert set(module.__all__) == EXPORTS[name]


@pytest.mark.parametrize("name", sorted(EXPORTS))
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    for attr in module.__all__:
        assert getattr(module, attr, None) is not None, f"{name}.{attr}"

