"""The paper's example programs and proof outlines, as library objects.

* ``fig1`` — unsynchronised message passing via a relaxed stack;
* ``fig2`` — publication via a synchronising stack;
* ``fig3`` — the Owicki–Gries proof outline for Figure 2's program;
* ``fig7`` — the lock-synchronisation client and its proof outline
  (Lemma 4), including the paper's ``Inv``, ``P1–P4`` and ``Q1–Q4``.

:func:`figure_checks` runs the figure verdicts the ``figures`` CLI
command prints and its ``--json`` report records.
"""

from typing import Dict, List

from repro.figures.fig1 import fig1_program
from repro.figures.fig2 import fig2_program
from repro.figures.fig3 import fig3_outline
from repro.figures.fig7 import fig7_outline, fig7_program

__all__ = [
    "fig1_program",
    "fig2_program",
    "fig3_outline",
    "fig7_outline",
    "fig7_program",
    "figure_checks",
]


def figure_checks() -> List[Dict]:
    """Check the paper's figures end to end, one row per check:
    ``{"check": name, "ok": bool, "measured": str}``.

    The outcome checks (``figure-1``, ``figure-2``, ``figure-7``)
    compare a program's terminal register outcomes with the figure's
    ``EXPECTED_OUTCOMES`` and measure the sorted outcome list; the
    outline checks (``figure-3-outline``, ``mp-outline``,
    ``lemma-4-outline``) validate an Owicki–Gries proof outline and
    measure its obligation count.
    """
    from repro.figures.fig1 import EXPECTED_OUTCOMES as F1
    from repro.figures.fig2 import EXPECTED_OUTCOMES as F2
    from repro.figures.fig7 import EXPECTED_OUTCOMES as F7
    from repro.figures.mp_outline import mp_outline
    from repro.logic.owicki import check_proof_outline
    from repro.semantics.explore import explore

    rows = []

    def check(name: str, ok: bool, measured: str) -> None:
        rows.append({"check": name, "ok": bool(ok), "measured": measured})

    def outcomes(name: str, program, expected, *regs) -> None:
        found = explore(program).terminal_locals(*regs)
        check(name, found == expected, repr(sorted(found, key=repr)))

    def outline(name: str, proof) -> None:
        result = check_proof_outline(proof)
        check(name, result.valid, f"{result.obligations} obligations")

    outcomes("figure-1", fig1_program(), F1, ("2", "r2"))
    outcomes("figure-2", fig2_program(), F2, ("2", "r2"))
    outline("figure-3-outline", fig3_outline())
    outline("mp-outline", mp_outline())
    outcomes(
        "figure-7", fig7_program(), F7, ("2", "rl"), ("2", "r1"), ("2", "r2")
    )
    outline("lemma-4-outline", fig7_outline())
    return rows
