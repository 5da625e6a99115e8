"""Hoare triples by enumeration (paper §5.2, Definition 2).

Two judgment forms are provided:

* **Program triples** ``{p} Init; P {q}``: ``p`` is checked at the
  initial configuration and ``q`` at every terminal configuration of the
  exhaustive exploration — exactly Definition 2's partial-correctness
  semantics restricted to the (finite) reachable space.

* **Atomic triples** ``{p} c@t {q}``: for every configuration in a given
  *universe* satisfying ``p``, every transition of command ``c`` executed
  by thread ``t`` must land in a configuration satisfying ``q``.  This is
  the form in which the paper states its proof rules (Lemma 3); the
  universe plays the role of the paper's implicit "all states", made
  finite by harvesting every canonical configuration reachable from a
  family of client programs (:func:`collect_universe`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.assertions.core import Assertion, make_env
from repro.lang.ast import Node
from repro.lang.program import Program
from repro.semantics.config import Config, initial_config
from repro.semantics.explore import explore
from repro.semantics.step import _run_step


@dataclass
class TripleResult:
    """Outcome of a triple check, with counterexamples when invalid."""

    valid: bool
    checked: int
    applied: int
    failures: List[Tuple[Config, Optional[Config]]] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.valid


def check_program_triple(
    program: Program,
    pre: Assertion,
    post: Assertion,
    max_states: int = 500_000,
) -> TripleResult:
    """``{p} Init; P {q}`` under partial correctness (Definition 2)."""
    init = initial_config(program)
    failures: List[Tuple[Config, Optional[Config]]] = []
    if not pre.holds(make_env(program, init)):
        failures.append((init, None))
    result = explore(program, max_states=max_states)
    checked = 1
    for cfg in result.terminals:
        checked += 1
        if not post.holds(make_env(program, cfg)):
            failures.append((cfg, None))
    return TripleResult(
        valid=not failures and not result.truncated,
        checked=checked,
        applied=len(result.terminals),
        failures=failures,
    )


def check_atomic_triple(
    program: Program,
    universe: Iterable[Config],
    pre: Assertion,
    cmd: Node,
    tid: str,
    post: Assertion,
) -> TripleResult:
    """``{p} c@t {q}`` quantified over ``universe``.

    ``program`` supplies the object registry and variable partition; the
    command is executed *ad hoc* from each universe configuration (it
    need not occur syntactically in the program).  Configurations where
    ``c`` is disabled contribute vacuously, as in the paper (a blocked
    acquire has no transitions to constrain).
    """
    checked = 0
    applied = 0
    failures: List[Tuple[Config, Optional[Config]]] = []
    for cfg in universe:
        if not pre.holds(make_env(program, cfg)):
            continue
        checked += 1
        for _a, _comp, _c2, ls2, g2, b2 in _run_step(
            program, cmd, tid, cfg.locals[tid], cfg.gamma, cfg.beta
        ):
            applied += 1
            cfg2 = cfg.with_thread(tid, None, ls2, g2, b2)
            if not post.holds(make_env(program, cfg2)):
                failures.append((cfg, cfg2))
    return TripleResult(
        valid=not failures,
        checked=checked,
        applied=applied,
        failures=failures,
    )


def collect_universe(
    programs: Sequence[Program],
    max_states: int = 200_000,
) -> List[Tuple[Program, List[Config]]]:
    """Harvest the canonical reachable configurations of several programs.

    Returns one ``(program, configs)`` group per input program: atomic
    triples must be applied with the matching program (object registry,
    variable partition), so universes from different programs are kept
    apart.
    """
    groups: List[Tuple[Program, List[Config]]] = []
    for program in programs:
        result = explore(program, max_states=max_states)
        groups.append((program, list(result.configs.values())))
    return groups
