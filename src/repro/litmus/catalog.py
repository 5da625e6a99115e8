"""Standard weak-memory litmus tests under RC11 RAR (validates Figure 5).

Each test records the outcomes RC11 RAR *allows* for a designated tuple
of registers, split into the interesting ``weak`` outcome(s) and the
expected full outcome set.  The verdicts follow the RC11 literature
[Lahav et al. PLDI'17; Doherty et al. PPoPP'19] for the
relaxed/release/acquire fragment:

* **MP** (message passing), relaxed: stale read allowed; with
  release/acquire: forbidden.
* **SB** (store buffering): the both-read-zero outcome is allowed even
  with release/acquire annotations (forbidding it needs SC fences, which
  RC11 RAR lacks).
* **LB** (load buffering): forbidden outright — RC11 RAR disallows
  load-buffering cycles, and a view-based operational semantics cannot
  produce them (reads read existing writes).
* **CoRR/CoWW/CoRW** coherence shapes: forbidden.
* **IRIW**: the divergent-observation outcome is allowed even under
  release/acquire.
* **2+2W**: both-variables-end-with-first-write allowed under relaxed
  and release/acquire.
* **CAS/FAI atomicity**: two competing RMWs never both succeed against
  the same write.

Alongside the classic straight-line shapes, the catalog carries the
*await/computed* family — the forms these tests actually take when run
on hardware harnesses or compiled from real code: flag waits are
``while (r == 0) r := f`` polling loops, values flow through local
registers, and producers may be duplicated (idempotent publication).
Semantically these add silent (ε) program steps and same-value writes,
which is precisely the structure the reduction layer
(:mod:`repro.semantics.reduce`) collapses; the reduction benchmark
measures its state savings over this catalog.

* **MP-await / MP-chain-await**: message passing with polling
  consumers; publication verdicts match the straight-line forms.
* **MP-ring**: n-thread circular message passing — every thread
  publishes data + flag and polls its successor; under release/acquire
  no stale data is observable anywhere on the ring.
* **MP-2-producers**: two idempotent producers publish the same data;
  the consumer must see it regardless of which release it acquires.
* **IRIW-await**: the divergent-observation verdict survives when the
  first read of each reader is a polling await.
* **SB-computed**: store buffering with register-computed values and
  trailing local arithmetic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, FrozenSet, Optional, Tuple

from repro.engine.core import ExplorationEngine
from repro.engine.result import summarise
from repro.lang import ast as A
from repro.lang.expr import Lit, Reg
from repro.lang.program import Program, Thread


@dataclass(frozen=True)
class LitmusTest:
    """One litmus test: a program, observed registers, and verdicts."""

    name: str
    build: Callable[[], Program]
    regs: Tuple[Tuple[str, str], ...]
    allowed: FrozenSet[Tuple]  # exactly the expected outcome set
    weak: FrozenSet[Tuple]  # the outcomes distinguishing weak memory
    weak_allowed: bool  # does RC11 RAR allow the weak outcome(s)?
    description: str = ""
    #: Exactly the :func:`repro.analysis.analyse_program` finding codes
    #: this program is expected to produce (all warning-severity —
    #: relaxed tests race *by design*); the catalog-wide agreement test
    #: pins them, so a detector change that alters any verdict is a
    #: deliberate, annotated decision.
    expect_lint: FrozenSet[str] = frozenset()

    def outcome_of(self, cfg) -> Tuple:
        """The observed-register valuation of one configuration — the
        single place the ``regs`` encoding is turned into an outcome
        tuple (witness predicates and verdicts must agree on it)."""
        return tuple(cfg.local(t, r) for t, r in self.regs)


def reduction_baseline() -> Optional[Dict[str, int]]:
    """Per-test unreduced state counts from the committed reduction
    benchmark baseline (``benchmarks/BENCH_reduction.json``).

    Lets a reduced run report "states explored vs. states a full
    exploration would store" without re-running the full exploration.
    None when the baseline is not available (e.g. an installed package
    without the benchmarks tree) — callers degrade gracefully.
    """
    path = (
        Path(__file__).resolve().parents[3]
        / "benchmarks"
        / "BENCH_reduction.json"
    )
    try:
        data = json.loads(path.read_text())
        return {
            name: int(entry["off"])
            for name, entry in data["catalog"].items()
        }
    except (OSError, ValueError, KeyError, TypeError):
        return None


def run_litmus(
    test: LitmusTest,
    max_states: int = 500_000,
    engine: Optional[ExplorationEngine] = None,
    use_cache: bool = False,
) -> Dict:
    """Execute a litmus test exhaustively; return verdicts and outcomes.

    With the default arguments this is one sequential in-process
    exploration.  Pass an :class:`~repro.engine.core.ExplorationEngine`
    to pick strategy/reduction, and/or ``use_cache=True`` to serve
    repeated runs from the engine's persistent result cache (the CLI's
    default engine is used when caching is requested without an engine).
    """
    if engine is None:
        if use_cache:
            from repro.engine import default_engine

            engine = default_engine()
        else:
            engine = ExplorationEngine()
    if use_cache and engine.cache is not None:
        summary = engine.run(test.build(), max_states=max_states)
    else:
        summary = summarise(
            engine.explore(test.build(), max_states=max_states)
        )
    outcomes = summary.terminal_locals(*test.regs)
    weak_observed = bool(outcomes & test.weak)
    verdict = {
        "name": test.name,
        "outcomes": outcomes,
        "expected": test.allowed,
        "matches_expected": outcomes == set(test.allowed),
        "weak_observed": weak_observed,
        "weak_allowed": test.weak_allowed,
        "verdict_ok": weak_observed == test.weak_allowed
        and outcomes == set(test.allowed),
        "states": summary.state_count,
        "cached": summary.cached,
        "reduction": engine.reduction,
    }
    if not verdict["verdict_ok"]:
        verdict["witness"] = _violation_witness(
            test, engine, max_states, outcomes
        )
    return verdict


def _violation_witness(
    test: LitmusTest, engine: ExplorationEngine, max_states: int, outcomes
):
    """The schedule of an execution exhibiting a forbidden outcome.

    Only *presence* violations have an execution to show — an outcome
    observed though outside the expected set, or a weak outcome
    observed though the model forbids it; an expected-but-absent
    outcome has no witness, and a truncated-inconclusive extraction
    search degrades to None (the verdict already failed; only genuine
    reconstruction bugs propagate).  The schedule is JSON-safe: one
    rendered step per line, ready for the batch report.
    """
    from repro.util.errors import VerificationError

    bad = set(outcomes) - set(test.allowed)
    if not test.weak_allowed:
        bad |= set(outcomes) & set(test.weak)
    if not bad:
        return None
    try:
        witness = engine.find_witness(
            test.build(),
            lambda cfg: test.outcome_of(cfg) in bad,
            max_states=max_states,
            terminal_only=True,
        )
    except VerificationError:
        return None
    if witness is None:
        return None
    return [step.describe() for step in witness.steps]


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _mp(release: bool, acquire: bool) -> Program:
    t1 = A.seq(A.Write("d", Lit(5)), A.Write("f", Lit(1), release=release))
    t2 = A.seq(A.Read("r1", "f", acquire=acquire), A.Read("r2", "d"))
    return Program(
        threads={"1": Thread(t1), "2": Thread(t2)},
        client_vars={"d": 0, "f": 0},
    )


def _sb(release: bool, acquire: bool) -> Program:
    t1 = A.seq(A.Write("x", Lit(1), release=release), A.Read("r1", "y", acquire=acquire))
    t2 = A.seq(A.Write("y", Lit(1), release=release), A.Read("r2", "x", acquire=acquire))
    return Program(
        threads={"1": Thread(t1), "2": Thread(t2)},
        client_vars={"x": 0, "y": 0},
    )


def _lb() -> Program:
    t1 = A.seq(A.Read("r1", "x"), A.Write("y", Lit(1)))
    t2 = A.seq(A.Read("r2", "y"), A.Write("x", Lit(1)))
    return Program(
        threads={"1": Thread(t1), "2": Thread(t2)},
        client_vars={"x": 0, "y": 0},
    )


def _corr() -> Program:
    t1 = A.Write("x", Lit(1))
    t2 = A.seq(A.Read("r1", "x"), A.Read("r2", "x"))
    return Program(
        threads={"1": Thread(t1), "2": Thread(t2)},
        client_vars={"x": 0},
    )


def _coww() -> Program:
    # Same thread writes 1 then 2; a reader that sees 2 then reads again
    # must not see 1 (coherence of a single thread's writes).
    t1 = A.seq(A.Write("x", Lit(1)), A.Write("x", Lit(2)))
    t2 = A.seq(A.Read("r1", "x"), A.Read("r2", "x"))
    return Program(
        threads={"1": Thread(t1), "2": Thread(t2)},
        client_vars={"x": 0},
    )


def _iriw(release: bool, acquire: bool) -> Program:
    t1 = A.Write("x", Lit(1), release=release)
    t2 = A.Write("y", Lit(1), release=release)
    t3 = A.seq(A.Read("a", "x", acquire=acquire), A.Read("b", "y", acquire=acquire))
    t4 = A.seq(A.Read("c", "y", acquire=acquire), A.Read("d", "x", acquire=acquire))
    return Program(
        threads={"1": Thread(t1), "2": Thread(t2), "3": Thread(t3), "4": Thread(t4)},
        client_vars={"x": 0, "y": 0},
    )


def _two_plus_two_w() -> Program:
    t1 = A.seq(A.Write("x", Lit(1), release=True), A.Write("y", Lit(2), release=True))
    t2 = A.seq(A.Write("y", Lit(1), release=True), A.Write("x", Lit(2), release=True))
    t3 = A.seq(A.Read("r1", "x", acquire=True), A.Read("r2", "y", acquire=True))
    return Program(
        threads={"1": Thread(t1), "2": Thread(t2), "3": Thread(t3)},
        client_vars={"x": 0, "y": 0},
    )


def _wrc(ra: bool) -> Program:
    # Write-to-read causality: does observing a write transfer the
    # writer's *reads*' causes?
    t1 = A.Write("x", Lit(1), release=ra)
    t2 = A.seq(
        A.Read("r1", "x", acquire=ra), A.Write("y", Lit(1), release=ra)
    )
    t3 = A.seq(A.Read("r2", "y", acquire=ra), A.Read("r3", "x", acquire=ra))
    return Program(
        threads={"1": Thread(t1), "2": Thread(t2), "3": Thread(t3)},
        client_vars={"x": 0, "y": 0},
    )


def _mp_chain3() -> Program:
    # Transitive message passing through two release/acquire hops.
    t1 = A.seq(A.Write("d", Lit(5)), A.Write("f1", Lit(1), release=True))
    t2 = A.seq(
        A.Read("r1", "f1", acquire=True), A.Write("f2", Lit(1), release=True)
    )
    t3 = A.seq(A.Read("r2", "f2", acquire=True), A.Read("r3", "d"))
    return Program(
        threads={"1": Thread(t1), "2": Thread(t2), "3": Thread(t3)},
        client_vars={"d": 0, "f1": 0, "f2": 0},
    )


def _cowr() -> Program:
    # Write-read coherence: a thread never reads older-than-own-write.
    t1 = A.Write("x", Lit(1))
    t2 = A.seq(A.Write("x", Lit(2)), A.Read("r1", "x"))
    return Program(
        threads={"1": Thread(t1), "2": Thread(t2)},
        client_vars={"x": 0},
    )


def _corw() -> Program:
    # Read-write coherence: own write goes after the write just read.
    t1 = A.Write("x", Lit(1))
    t2 = A.seq(A.Read("r1", "x"), A.Write("x", Lit(2)), A.Read("r2", "x"))
    return Program(
        threads={"1": Thread(t1), "2": Thread(t2)},
        client_vars={"x": 0},
    )


def _cas_race() -> Program:
    t1 = A.Cas("r1", "x", Lit(0), Lit(1))
    t2 = A.Cas("r2", "x", Lit(0), Lit(2))
    return Program(
        threads={"1": Thread(t1), "2": Thread(t2)},
        client_vars={"x": 0},
    )


def _fai_race() -> Program:
    t1 = A.Fai("r1", "x")
    t2 = A.Fai("r2", "x")
    return Program(
        threads={"1": Thread(t1), "2": Thread(t2)},
        client_vars={"x": 0},
    )


# -- await/computed family ---------------------------------------------------


def _await(reg: str, var: str, acquire: bool) -> A.Node:
    """``reg := 0; while reg == 0: reg := var`` — a polling flag wait."""
    return A.seq(
        A.LocalAssign(reg, Lit(0)),
        A.While(Reg(reg).eq(0), A.Read(reg, var, acquire=acquire)),
    )


def _mp_await(ra: bool) -> Program:
    t1 = A.seq(A.Write("d", Lit(5)), A.Write("f", Lit(1), release=ra))
    t2 = A.seq(_await("r1", "f", acquire=ra), A.Read("r2", "d"))
    return Program(
        threads={"1": Thread(t1), "2": Thread(t2)},
        client_vars={"d": 0, "f": 0},
    )


def _mp_await_two_consumers() -> Program:
    t1 = A.seq(A.Write("d", Lit(5)), A.Write("f", Lit(1), release=True))
    c1 = A.seq(_await("a", "f", acquire=True), A.Read("r1", "d"))
    c2 = A.seq(_await("b", "f", acquire=True), A.Read("r2", "d"))
    return Program(
        threads={"1": Thread(t1), "2": Thread(c1), "3": Thread(c2)},
        client_vars={"d": 0, "f": 0},
    )


def _mp_two_producers() -> Program:
    # Idempotent publication: both producers write the same data and
    # flag values, so whichever release the consumer's await acquires,
    # the data must be visible.
    producer = A.seq(A.Write("d", Lit(5)), A.Write("f", Lit(1), release=True))
    consumer = A.seq(_await("r1", "f", acquire=True), A.Read("r2", "d"))
    return Program(
        threads={
            "1": Thread(producer),
            "2": Thread(producer),
            "3": Thread(consumer),
        },
        client_vars={"d": 0, "f": 0},
    )


def _mp_chain_await(hops: int) -> Program:
    # Transitive message passing: each intermediate thread polls the
    # previous flag before releasing the next one.
    threads = {
        "1": Thread(
            A.seq(A.Write("d", Lit(5)), A.Write("f1", Lit(1), release=True))
        )
    }
    for i in range(2, hops):
        threads[str(i)] = Thread(
            A.seq(
                _await(f"a{i}", f"f{i - 1}", acquire=True),
                A.Write(f"f{i}", Lit(1), release=True),
            )
        )
    threads[str(hops)] = Thread(
        A.seq(_await(f"a{hops}", f"f{hops - 1}", acquire=True), A.Read("r", "d"))
    )
    client_vars = {"d": 0}
    client_vars.update({f"f{i}": 0 for i in range(1, hops)})
    return Program(threads=threads, client_vars=client_vars)


def _mp_ring(n: int, ra: bool) -> Program:
    # Circular message passing: thread i publishes (d_i, f_i) and polls
    # f_{i+1} before reading d_{i+1}.
    threads = {}
    client_vars = {}
    for i in range(n):
        j = (i + 1) % n
        threads[str(i + 1)] = Thread(
            A.seq(
                A.Write(f"d{i}", Lit(5)),
                A.Write(f"f{i}", Lit(1), release=ra),
                _await(f"a{i}", f"f{j}", acquire=ra),
                A.Read(f"r{i}", f"d{j}"),
            )
        )
        client_vars[f"d{i}"] = 0
        client_vars[f"f{i}"] = 0
    return Program(threads=threads, client_vars=client_vars)


def _iriw_await() -> Program:
    w1 = A.Write("x", Lit(1), release=True)
    w2 = A.Write("y", Lit(1), release=True)
    r3 = A.seq(_await("a", "x", acquire=True), A.Read("b", "y", acquire=True))
    r4 = A.seq(_await("c", "y", acquire=True), A.Read("d", "x", acquire=True))
    return Program(
        threads={
            "1": Thread(w1),
            "2": Thread(w2),
            "3": Thread(r3),
            "4": Thread(r4),
        },
        client_vars={"x": 0, "y": 0},
    )


def _sb_computed() -> Program:
    # Store buffering as compiled code: values come from registers and
    # each thread ends with local arithmetic over what it read.
    t1 = A.seq(
        A.LocalAssign("v", Lit(1)),
        A.Write("x", Reg("v"), release=True),
        A.Read("r1", "y", acquire=True),
        A.LocalAssign("s1", Reg("r1") + 1),
    )
    t2 = A.seq(
        A.LocalAssign("v", Lit(1)),
        A.Write("y", Reg("v"), release=True),
        A.Read("r2", "x", acquire=True),
        A.LocalAssign("s2", Reg("r2") + 1),
    )
    return Program(
        threads={"1": Thread(t1), "2": Thread(t2)},
        client_vars={"x": 0, "y": 0},
    )


# ---------------------------------------------------------------------------
# outcome sets
# ---------------------------------------------------------------------------

_ALL_01 = [(a, b) for a in (0, 1) for b in (0, 1)]

#: Shorthand for the statically-racy annotation (see
#: ``LitmusTest.expect_lint``).
_RACE = frozenset({"race"})

LITMUS_TESTS: Tuple[LitmusTest, ...] = (
    LitmusTest(
        name="MP-relaxed",
        build=lambda: _mp(False, False),
        regs=(("2", "r1"), ("2", "r2")),
        allowed=frozenset({(0, 0), (0, 5), (1, 0), (1, 5)}),
        weak=frozenset({(1, 0)}),
        weak_allowed=True,
        description="message passing, all relaxed: stale data readable",
        expect_lint=_RACE,
    ),
    LitmusTest(
        name="MP-RA",
        build=lambda: _mp(True, True),
        regs=(("2", "r1"), ("2", "r2")),
        allowed=frozenset({(0, 0), (0, 5), (1, 5)}),
        weak=frozenset({(1, 0)}),
        weak_allowed=False,
        description="message passing, release/acquire: publication works",
        expect_lint=_RACE,
    ),
    LitmusTest(
        name="MP-release-only",
        build=lambda: _mp(True, False),
        regs=(("2", "r1"), ("2", "r2")),
        allowed=frozenset({(0, 0), (0, 5), (1, 0), (1, 5)}),
        weak=frozenset({(1, 0)}),
        weak_allowed=True,
        description="release without acquire does not synchronise",
        expect_lint=_RACE,
    ),
    LitmusTest(
        name="MP-acquire-only",
        build=lambda: _mp(False, True),
        regs=(("2", "r1"), ("2", "r2")),
        allowed=frozenset({(0, 0), (0, 5), (1, 0), (1, 5)}),
        weak=frozenset({(1, 0)}),
        weak_allowed=True,
        description="acquire of a relaxed write does not synchronise",
        expect_lint=_RACE | {"unmatched-acquire"},
    ),
    LitmusTest(
        name="SB-relaxed",
        build=lambda: _sb(False, False),
        regs=(("1", "r1"), ("2", "r2")),
        allowed=frozenset(_ALL_01),
        weak=frozenset({(0, 0)}),
        weak_allowed=True,
        description="store buffering: both-zero allowed",
        expect_lint=_RACE,
    ),
    LitmusTest(
        name="SB-RA",
        build=lambda: _sb(True, True),
        regs=(("1", "r1"), ("2", "r2")),
        allowed=frozenset(_ALL_01),
        weak=frozenset({(0, 0)}),
        weak_allowed=True,
        description="store buffering persists under release/acquire (no SC fences in RAR)",
    ),
    LitmusTest(
        name="LB",
        build=_lb,
        regs=(("1", "r1"), ("2", "r2")),
        allowed=frozenset({(0, 0), (0, 1), (1, 0)}),
        weak=frozenset({(1, 1)}),
        weak_allowed=False,
        description="load buffering cycle: disallowed in RC11 (the RAR restriction)",
        expect_lint=_RACE,
    ),
    LitmusTest(
        name="CoRR",
        build=_corr,
        regs=(("2", "r1"), ("2", "r2")),
        allowed=frozenset({(0, 0), (0, 1), (1, 1)}),
        weak=frozenset({(1, 0)}),
        weak_allowed=False,
        description="read-read coherence: cannot read backwards in mo",
        expect_lint=_RACE,
    ),
    LitmusTest(
        name="CoWW",
        build=_coww,
        regs=(("2", "r1"), ("2", "r2")),
        allowed=frozenset({(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)}),
        weak=frozenset({(2, 1), (1, 0), (2, 0)}),
        weak_allowed=False,
        description="same-thread writes are mo-ordered; no reading backwards",
        expect_lint=_RACE,
    ),
    LitmusTest(
        name="IRIW-RA",
        build=lambda: _iriw(True, True),
        regs=(("3", "a"), ("3", "b"), ("4", "c"), ("4", "d")),
        allowed=frozenset(
            {
                (a, b, c, d)
                for a in (0, 1)
                for b in (0, 1)
                for c in (0, 1)
                for d in (0, 1)
            }
        ),
        weak=frozenset({(1, 0, 1, 0)}),
        weak_allowed=True,
        description="independent reads of independent writes may disagree under RA",
    ),
    LitmusTest(
        name="2+2W-RA",
        build=_two_plus_two_w,
        regs=(("3", "r1"), ("3", "r2")),
        # (2, 0) is forbidden: reading x = 2 acquires t2's view, which has
        # already written y = 1, so y = 0 is no longer observable.
        allowed=frozenset(
            {(x, y) for x in (0, 1, 2) for y in (0, 1, 2)} - {(2, 0)}
        ),
        weak=frozenset({(1, 1)}),
        weak_allowed=True,
        description="2+2W: both variables may end with the 'first' writes",
        expect_lint=_RACE,
    ),
    LitmusTest(
        name="WRC-RA",
        build=lambda: _wrc(True),
        regs=(("2", "r1"), ("3", "r2"), ("3", "r3")),
        # (1, 1, 0) forbidden: t2 acquired x = 1 before releasing y = 1,
        # so t3's acquire of y transfers the view of x.
        allowed=frozenset(
            {
                (a, b, c)
                for a in (0, 1)
                for b in (0, 1)
                for c in (0, 1)
            }
            - {(1, 1, 0)}
        ),
        weak=frozenset({(1, 1, 0)}),
        weak_allowed=False,
        description="write-to-read causality: release/acquire is transitive through reads",
    ),
    LitmusTest(
        name="WRC-relaxed",
        build=lambda: _wrc(False),
        regs=(("2", "r1"), ("3", "r2"), ("3", "r3")),
        allowed=frozenset(
            {(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)}
        ),
        weak=frozenset({(1, 1, 0)}),
        weak_allowed=True,
        description="without annotations, causality does not propagate",
        expect_lint=_RACE,
    ),
    LitmusTest(
        name="MP-chain-3",
        build=_mp_chain3,
        regs=(("2", "r1"), ("3", "r2"), ("3", "r3")),
        # (1, 1, 0) forbidden: publication is transitive across two hops.
        allowed=frozenset(
            {
                (a, b, c)
                for a in (0, 1)
                for b in (0, 1)
                for c in (0, 5)
            }
            - {(1, 1, 0)}
        ),
        weak=frozenset({(1, 1, 0)}),
        weak_allowed=False,
        description="three-thread transitive message passing",
        expect_lint=_RACE,
    ),
    LitmusTest(
        name="CoWR",
        build=_cowr,
        regs=(("2", "r1"),),
        # Reading the other thread's write is allowed (it may be
        # mo-after one's own), but never the initial write.
        allowed=frozenset({(1,), (2,)}),
        weak=frozenset({(0,)}),
        weak_allowed=False,
        description="write-read coherence: never read mo-before own write",
        expect_lint=_RACE,
    ),
    LitmusTest(
        name="CoRW",
        build=_corw,
        regs=(("2", "r1"), ("2", "r2")),
        # (1, 1) forbidden: after reading 1, the own write of 2 goes
        # mo-after it, so re-reading 1 is impossible.
        allowed=frozenset({(0, 1), (0, 2), (1, 2)}),
        weak=frozenset({(1, 1)}),
        weak_allowed=False,
        description="read-write coherence: own write goes after the write read",
        expect_lint=_RACE,
    ),
    LitmusTest(
        name="CAS-atomicity",
        build=_cas_race,
        regs=(("1", "r1"), ("2", "r2")),
        allowed=frozenset({(True, False), (False, True)}),
        weak=frozenset({(True, True)}),
        weak_allowed=False,
        description="two CASes on the same initial write cannot both succeed",
        expect_lint=_RACE,
    ),
    LitmusTest(
        name="FAI-atomicity",
        build=_fai_race,
        regs=(("1", "r1"), ("2", "r2")),
        allowed=frozenset({(0, 1), (1, 0)}),
        weak=frozenset({(0, 0)}),
        weak_allowed=False,
        description="two FAIs dispense distinct values",
    ),
    # -- await/computed family ----------------------------------------------
    LitmusTest(
        name="MP-await-RA",
        build=lambda: _mp_await(True),
        regs=(("2", "r2"),),
        # The await exits only after acquiring the released flag, so the
        # data is certainly visible.
        allowed=frozenset({(5,)}),
        weak=frozenset({(0,)}),
        weak_allowed=False,
        description="message passing with a polling acquire loop",
    ),
    LitmusTest(
        name="MP-await-relaxed",
        build=lambda: _mp_await(False),
        regs=(("2", "r2"),),
        allowed=frozenset({(0,), (5,)}),
        weak=frozenset({(0,)}),
        weak_allowed=True,
        description="a relaxed polling loop does not publish the data",
        expect_lint=_RACE,
    ),
    LitmusTest(
        name="MP-await-2-consumers",
        build=_mp_await_two_consumers,
        regs=(("2", "r1"), ("3", "r2")),
        allowed=frozenset({(5, 5)}),
        weak=frozenset({(0, 0), (0, 5), (5, 0)}),
        weak_allowed=False,
        description="both polling consumers observe the publication",
    ),
    LitmusTest(
        name="MP-2-producers",
        build=_mp_two_producers,
        regs=(("3", "r2"),),
        # Whichever producer's release the consumer acquires, that
        # producer had already written d = 5 — and both write the same
        # values, so the stale read is forbidden.
        allowed=frozenset({(5,)}),
        weak=frozenset({(0,)}),
        weak_allowed=False,
        description="idempotent dual publication: either release suffices",
        expect_lint=_RACE,
    ),
    LitmusTest(
        name="MP-chain-await-3",
        build=lambda: _mp_chain_await(3),
        regs=(("3", "r"),),
        allowed=frozenset({(5,)}),
        weak=frozenset({(0,)}),
        weak_allowed=False,
        description="transitive message passing through polling hops",
    ),
    LitmusTest(
        name="MP-chain-await-4",
        build=lambda: _mp_chain_await(4),
        regs=(("4", "r"),),
        allowed=frozenset({(5,)}),
        weak=frozenset({(0,)}),
        weak_allowed=False,
        description="three-hop polling publication chain",
    ),
    LitmusTest(
        name="MP-ring-2-RA",
        build=lambda: _mp_ring(2, True),
        regs=(("1", "r0"), ("2", "r1")),
        allowed=frozenset({(5, 5)}),
        weak=frozenset({(0, 0), (0, 5), (5, 0)}),
        weak_allowed=False,
        description="two-thread publication ring: no stale data anywhere",
    ),
    LitmusTest(
        name="MP-ring-2-relaxed",
        build=lambda: _mp_ring(2, False),
        regs=(("1", "r0"), ("2", "r1")),
        allowed=frozenset({(a, b) for a in (0, 5) for b in (0, 5)}),
        weak=frozenset({(0, 0)}),
        weak_allowed=True,
        description="a relaxed ring publishes nothing",
        expect_lint=_RACE,
    ),
    LitmusTest(
        name="MP-ring-3-RA",
        build=lambda: _mp_ring(3, True),
        regs=(("1", "r0"), ("2", "r1"), ("3", "r2")),
        allowed=frozenset({(5, 5, 5)}),
        weak=frozenset({(0, 0, 0), (5, 5, 0), (0, 5, 5), (5, 0, 5)}),
        weak_allowed=False,
        description="three-thread publication ring under release/acquire",
    ),
    LitmusTest(
        name="MP-ring-3-relaxed",
        build=lambda: _mp_ring(3, False),
        regs=(("1", "r0"), ("2", "r1"), ("3", "r2")),
        allowed=frozenset(
            {(a, b, c) for a in (0, 5) for b in (0, 5) for c in (0, 5)}
        ),
        weak=frozenset({(0, 0, 0)}),
        weak_allowed=True,
        description="three-thread relaxed ring: every stale combination",
        expect_lint=_RACE,
    ),
    LitmusTest(
        name="IRIW-await-RA",
        build=_iriw_await,
        regs=(("3", "b"), ("4", "d")),
        # After awaiting its own flag each reader may still miss the
        # other: the divergent observation (0, 0) survives polling.
        allowed=frozenset({(b, d) for b in (0, 1) for d in (0, 1)}),
        weak=frozenset({(0, 0)}),
        weak_allowed=True,
        description="IRIW with polling first reads still diverges",
    ),
    LitmusTest(
        name="SB-computed",
        build=_sb_computed,
        regs=(("1", "r1"), ("2", "r2")),
        allowed=frozenset(_ALL_01),
        weak=frozenset({(0, 0)}),
        weak_allowed=True,
        description="store buffering survives register-computed values",
    ),
)
