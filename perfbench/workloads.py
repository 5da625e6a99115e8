"""The benchmark's workloads: seeded inputs, the calls into ``repro``,
and the checks of every verdict against :file:`answers.json`.

A workload is a list of :class:`Step` objects built by :func:`build`
(the set-up: imports plus input construction) and run by
:func:`execute` (the timed part).  Every step returns one boolean per
verdict it reaches; a step that raises counts all of its verdicts as
wrong.  The seed changes the inputs (identifier names, step order) but
never the correct answers, which come from :file:`answers.json` and not
from the code under test.
"""

from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path
from typing import Callable, List, Optional, Tuple

from repro.engine.core import ExplorationEngine
from repro.lang import ast as A
from repro.lang.program import Program, Thread

ANSWERS = json.loads((Path(__file__).parent / "answers.json").read_text())

WORKLOADS = ("wide-4x3", "verdict-battery", "lock-refinement")


@dataclasses.dataclass
class Step:
    """One unit of work reaching ``verdicts`` verdicts."""

    name: str
    verdicts: int
    run: Callable[[], List[bool]]


@dataclasses.dataclass
class Outcome:
    attempted: int = 0
    wrong: int = 0
    failures: List[str] = dataclasses.field(default_factory=list)


def build(
    workload: str, seed: str, small: bool = False, metrics=None
) -> List[Step]:
    """The steps of ``workload`` for ``seed``.  ``small`` selects the
    reduced inputs the harness tests use; ``metrics`` is an optional
    :class:`repro.obs.Metrics` sink handed to every engine."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "wide-4x3":
        return _wide_steps(rng, small, metrics)
    if workload == "verdict-battery":
        return _battery_steps(rng, small, metrics)
    if workload == "lock-refinement":
        return _lock_steps(rng, small, metrics)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def execute(steps: List[Step]) -> Outcome:
    """Run every step in order and check its verdicts."""
    out = Outcome()
    for step in steps:
        out.attempted += step.verdicts
        try:
            verdicts = step.run()
            if len(verdicts) != step.verdicts:
                raise RuntimeError(
                    f"reached {len(verdicts)} verdicts, expected {step.verdicts}"
                )
            wrong = verdicts.count(False)
        except Exception as exc:  # a crash is a wrong answer, not a stop
            wrong = step.verdicts
            out.failures.append(f"{step.name}: {type(exc).__name__}: {exc}")
        else:
            if wrong:
                out.failures.append(f"{step.name}: {wrong} wrong verdicts")
        out.wrong += wrong
    return out


# ---------------------------------------------------------------------------
# wide-4x3
# ---------------------------------------------------------------------------


def _rename_vars(node, var: Callable[[str], str]):
    """``node`` with every global variable ``v`` renamed to ``var(v)``
    (registers are thread-local and keep their names)."""
    if not isinstance(node, A.Node):
        return node
    changes = {}
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        if f.name == "var":
            changes["var"] = var(value)
        elif isinstance(value, A.Node):
            changes[f.name] = _rename_vars(value, var)
    return dataclasses.replace(node, **changes) if changes else node


def rename(
    program: Program,
    var: Callable[[str], str],
    tid: Callable[[str], str],
    order: Optional[List[str]] = None,
) -> Program:
    """``program`` with its variables renamed by ``var`` and its thread
    ids by ``tid``, the threads inserted in ``order`` (their own order by
    default).  The result is isomorphic to ``program``."""
    threads = {}
    for t in order or list(program.threads):
        thread = program.threads[t]
        threads[tid(t)] = Thread(_rename_vars(thread.body, var), thread.done_label)
    client_vars = {var(v): val for v, val in program.client_vars.items()}
    return Program(threads=threads, client_vars=client_vars)


def wide_program(n: int, reads: int, rng: Optional[random.Random] = None) -> Program:
    """The relaxed-access grid of ``benchmarks/spaces.py`` (``n=4,
    reads=3``: the ROADMAP's 54,022-state space).

    With ``rng`` the thread ids and variable names are a random renaming
    and the threads are inserted in a random order; the programs are
    isomorphic, so every state count is unchanged."""
    from benchmarks.spaces import wide_program as grid

    program = grid(n, reads)
    if rng is None:
        return program
    tids = dict(zip(program.threads, (f"t{k}" for k in rng.sample(range(10, 100), n))))
    names = dict(zip(program.client_vars, (f"v{k}" for k in rng.sample(range(10, 100), n))))
    order = rng.sample(list(program.threads), n)
    return rename(program, names.__getitem__, tids.__getitem__, order)


def _wide_steps(rng, small, metrics) -> List[Step]:
    answers = ANSWERS["wide-4x3"]["small" if small else "full"]
    program = wide_program(answers["threads"], answers["reads"], rng)
    engine = ExplorationEngine(metrics=metrics)

    def run() -> List[bool]:
        result = engine.explore(program, keep_configs=False)
        return [
            result.state_count == answers["states"] and not result.truncated
        ]

    return [Step("explore", 1, run)]


# ---------------------------------------------------------------------------
# verdict-battery
# ---------------------------------------------------------------------------


def compose(*programs: Program) -> Program:
    """The disjoint product of ``programs`` (as ``_compose`` in
    ``benchmarks/test_bench_dpor.py``): all threads side by side, each
    component's variables and thread ids suffixed apart."""
    threads = {}
    client_vars = {}
    for i, program in enumerate(programs):
        suffix = "" if i == 0 else chr(ord("a") + i - 1)
        part = rename(program, lambda v: v + suffix, lambda t: t + suffix)
        threads.update(part.threads)
        client_vars.update(part.client_vars)
    return Program(threads=threads, client_vars=client_vars)


def _terminal_valuations(result) -> set:
    return {
        tuple(sorted((tid, ls.items_sorted()) for tid, ls in cfg.locals.items()))
        for cfg in result.terminals
    }


def _outcomes(pinned) -> set:
    return {tuple(o) for o in pinned}


def _battery_steps(rng, small, metrics) -> List[Step]:
    import repro.analysis
    import repro.logic.owicki
    from repro.figures.fig1 import fig1_program
    from repro.figures.fig2 import fig2_program
    from repro.figures.fig3 import fig3_outline
    from repro.figures.fig7 import fig7_outline, fig7_program
    from repro.figures.mp_outline import mp_outline
    from repro.litmus.catalog import LITMUS_TESTS, run_litmus
    from repro.litmus.peterson import mutual_exclusion_violated, peterson_program

    answers = ANSWERS["verdict-battery"]
    closure = ExplorationEngine(reduction="closure", metrics=metrics)
    plain = ExplorationEngine(metrics=metrics)
    steps: List[Step] = []

    by_name = {t.name: t for t in LITMUS_TESTS}
    for name, pinned in answers["litmus"].items():
        test = by_name.get(name)
        program = test.build() if test is not None else None

        def litmus(test=test, program=program, pinned=pinned) -> List[bool]:
            if test is None:
                raise LookupError("catalog entry missing")
            codes = repro.analysis.analyse_program(program).codes()
            result = run_litmus(test, engine=closure)
            outcomes = set(result["outcomes"])
            weak_seen = bool(outcomes & _outcomes(pinned["weak"]))
            return [
                codes == set(pinned["expect_lint"]),
                outcomes == _outcomes(pinned["allowed"])
                and weak_seen == pinned["weak_allowed"],
            ]

        steps.append(Step(f"litmus {name}", 2, litmus))

    peterson = peterson_program()

    def peterson_step() -> List[bool]:
        result = closure.explore(peterson)
        violated = any(
            mutual_exclusion_violated(cfg, peterson)
            for cfg in result.configs.values()
        )
        return [violated == answers["peterson"]["mutual_exclusion_violated"]]

    steps.append(Step("peterson", 1, peterson_step))

    family = answers["dpor_family"]
    members = ["ring2-x2"] if small else list(family)
    for member in members:
        parts = [by_name[n].build() for n in family[member]["compose"]]
        program = compose(*parts)

        def dpor_member(program=program, pinned=family[member]) -> List[bool]:
            full = closure.explore(program, reduction="closure")
            reduced = closure.explore(program, reduction="dpor")
            return [
                full.state_count == pinned["closure"],
                reduced.state_count == pinned["dpor"],
                _terminal_valuations(full) == _terminal_valuations(reduced)
                and bool(full.stuck) == bool(reduced.stuck),
            ]

        steps.append(Step(f"dpor {member}", 3, dpor_member))

    figures = answers["figures"]
    for name, program in (
        ("fig1", fig1_program()),
        ("fig2", fig2_program()),
        ("fig7", fig7_program()),
    ):
        pinned = figures[name]

        def figure(program=program, pinned=pinned) -> List[bool]:
            regs = [tuple(r) for r in pinned["regs"]]
            outcomes = plain.explore(program).terminal_locals(*regs)
            return [outcomes == _outcomes(pinned["outcomes"])]

        steps.append(Step(f"{name} outcomes", 1, figure))

    for name, outline in (
        ("fig3", fig3_outline()),
        ("mp", mp_outline()),
        ("fig7", fig7_outline()),
    ):

        def proof(outline=outline, valid=figures[f"{name}_outline_valid"]):
            result = repro.logic.owicki.check_proof_outline(outline)
            return [result.valid == valid]

        steps.append(Step(f"{name} outline", 1, proof))

    rng.shuffle(steps)
    return steps


# ---------------------------------------------------------------------------
# lock-refinement
# ---------------------------------------------------------------------------


def _lock_steps(rng, small, metrics) -> List[Step]:
    from repro.impls.seqlock import SEQLOCK_VARS, seqlock_fill
    from repro.impls.spinlock import SPINLOCK_VARS, spinlock_fill
    from repro.impls.ticketlock import TICKETLOCK_VARS, ticketlock_fill
    from repro.litmus.clients import lock_client_three_threads
    from repro.toolkit import default_lock_battery, verify_lock_implementation

    answers = ANSWERS["lock-refinement"]
    engine = ExplorationEngine(metrics=metrics)
    locks: List[Tuple[str, object, dict]] = [
        ("spinlock", spinlock_fill, SPINLOCK_VARS),
    ]
    if not small:
        locks += [
            ("seqlock", seqlock_fill, SEQLOCK_VARS),
            ("ticketlock", ticketlock_fill, TICKETLOCK_VARS),
        ]
    clients = list(default_lock_battery()) + [
        ("three-threads", lock_client_three_threads, {})
    ]
    steps: List[Step] = []
    for lock, fill, lib_vars in locks:
        for client in clients:
            pinned = answers[lock][client[0]]
            check_traces = "traces_refine" in pinned

            def verify(
                fill=fill, lib_vars=lib_vars, client=client, pinned=pinned,
                check_traces=check_traces,
            ) -> List[bool]:
                report = verify_lock_implementation(
                    fill, lib_vars, battery=(client,),
                    check_traces=check_traces, engine=engine,
                )
                (verdict,) = report.verdicts
                got = [verdict.simulation.found == pinned["simulation_found"]]
                if check_traces:
                    got.append(
                        bool(verdict.traces.refines) == pinned["traces_refine"]
                    )
                return got

            steps.append(
                Step(f"{lock} {client[0]}", 1 + check_traces, verify)
            )
    rng.shuffle(steps)
    return steps
