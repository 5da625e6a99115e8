"""Owicki–Gries validity of proof outlines, by enumeration.

Classical Owicki–Gries [24] decomposes a concurrent proof into

1. **initial validity** — every thread's first assertion holds in the
   initial configuration;
2. **local correctness** — each statement, executed from a state
   satisfying its precondition, establishes the next assertion of its
   own thread;
3. **interference freedom** — each statement preserves every assertion
   of every *other* thread that co-holds with its precondition.

The paper discharges these obligations deductively (Lemma 4).  We
discharge them by enumeration over the reachable canonical configuration
graph: for every reachable configuration and every enabled transition,
the three obligations are checked and reported *per (statement,
assertion) pair*, which reproduces the structure (and the diagnostics)
of an Owicki–Gries proof rather than a bare safety check.  Over the
reachable universe the conjunction of (2) and (3) plus (1) is equivalent
to annotation validity at every reachable configuration; we also check
that directly as a sanity cross-validation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.assertions.core import make_env
from repro.logic.outline import ProofOutline
from repro.semantics.config import Config
from repro.semantics.explore import explore


@dataclass(frozen=True)
class OGFailure:
    """One failed proof obligation."""

    kind: str  # 'initial' | 'local' | 'interference' | 'post' | 'annotation'
    tid: str  # the executing thread ('' for initial/post failures)
    label: object  # label of the violated assertion
    owner: str  # thread owning the violated assertion
    config: Config
    target: Optional[Config] = None

    def describe(self) -> str:
        where = f"{self.owner}@{self.label}"
        if self.kind == "interference":
            return f"statement of {self.tid} interferes with assertion {where}"
        if self.kind == "local":
            return f"statement of {self.tid} fails to establish {where}"
        return f"{self.kind} obligation fails at {where}"


@dataclass
class OGResult:
    """Outcome of checking a proof outline."""

    valid: bool
    states: int
    transitions: int
    obligations: int
    failures: List[OGFailure] = field(default_factory=list)
    truncated: bool = False

    def __bool__(self) -> bool:
        return self.valid


def check_proof_outline(
    outline: ProofOutline,
    max_states: int = 500_000,
    stop_on_first: bool = False,
) -> OGResult:
    """Check initial validity, local correctness, interference freedom and
    the terminal postcondition of ``outline``."""
    program = outline.program
    # Owicki–Gries obligations are stated per (statement, assertion)
    # pair at intermediate program points — silent steps (the guard
    # evaluations and local assignments the assertions annotate) are
    # exactly what is being checked, so the enumeration explicitly
    # requests the unreduced configuration graph.  Its recorded edges
    # are the transitions the obligations range over; each target is
    # the stored configuration of the edge's target key.
    result = explore(
        program, max_states=max_states, collect_edges=True, reduction="off"
    )
    configs = result.configs
    failures: List[OGFailure] = []
    obligations = 0
    transitions = 0

    def record(failure: OGFailure) -> bool:
        failures.append(failure)
        return stop_on_first

    # (1) initial validity ---------------------------------------------------
    init_env = make_env(program, result.initial)
    for tid in program.tids:
        label = result.initial.pc(tid, program)
        assertion = outline.assertion_at(tid, label)
        obligations += 1
        if assertion is not None and not assertion.holds(init_env):
            if record(
                OGFailure("initial", "", label, tid, result.initial)
            ):
                return _final(result, obligations, transitions, failures)

    # (2)+(3) per-transition obligations --------------------------------------
    for key, cfg in configs.items():
        env = make_env(program, cfg)
        # Annotation validity cross-check (semantic reading of the outline).
        for tid in program.tids:
            label = cfg.pc(tid, program)
            assertion = outline.assertion_at(tid, label)
            obligations += 1
            if assertion is not None and not assertion.holds(env):
                if record(OGFailure("annotation", "", label, tid, cfg)):
                    return _final(result, obligations, transitions, failures)
        # Postcondition at terminal configurations.
        if cfg.is_terminal():
            obligations += 1
            if not outline.postcondition.holds(env):
                if record(OGFailure("post", "", None, "", cfg)):
                    return _final(result, obligations, transitions, failures)
            continue
        pcs = {tid: cfg.pc(tid, program) for tid in program.tids}
        pres = {
            tid: outline.assertion_at(tid, pcs[tid]) for tid in program.tids
        }
        # A truncated search leaves states unexpanded (no edge list) and
        # edges to states it never admitted; both are skipped, and the
        # result is invalid anyway.
        for tid, _comp, _action, tkey in result.edges.get(key, ()):
            target = configs.get(tkey)
            if target is None:
                continue
            transitions += 1
            pre = pres[tid]
            if pre is not None and not pre.holds(env):
                # The executing statement's precondition does not hold here;
                # under OG the obligation is vacuous for this state.  (Cannot
                # occur once annotation validity holds — kept for fidelity.)
                continue
            tenv = make_env(program, target)
            # Local correctness: the executing thread's next assertion.
            new_label = target.pc(tid, program)
            post = outline.assertion_at(tid, new_label)
            obligations += 1
            if post is not None and not post.holds(tenv):
                if record(
                    OGFailure("local", tid, new_label, tid, cfg, target)
                ):
                    return _final(result, obligations, transitions, failures)
            # Interference freedom: other threads' current assertions.
            for other in program.tids:
                if other == tid:
                    continue
                other_assert = pres[other]
                if other_assert is None:
                    continue
                obligations += 1
                if not other_assert.holds(env):
                    continue  # {p ∧ pre} c {p}: p must co-hold to obligate
                if not other_assert.holds(tenv):
                    if record(
                        OGFailure(
                            "interference",
                            tid,
                            pcs[other],
                            other,
                            cfg,
                            target,
                        )
                    ):
                        return _final(
                            result, obligations, transitions, failures
                        )

    return _final(result, obligations, transitions, failures)


def _final(result, obligations: int, transitions: int, failures) -> OGResult:
    return OGResult(
        valid=not failures and not result.truncated,
        states=result.state_count,
        transitions=transitions,
        obligations=obligations,
        failures=failures,
        truncated=result.truncated,
    )
