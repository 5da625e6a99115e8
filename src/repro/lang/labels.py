"""Program-counter extraction for proof outlines (paper §5.3).

The proof outlines of Figures 3 and 7 annotate statements with labels and
let assertions refer to the program counters of *other* threads
(``pc1 ∈ {2,3,4}`` etc.).  We recover a thread's pc from its continuation:
the label of the leftmost :class:`~repro.lang.ast.Labeled` node, or
:data:`DONE_PC` when the thread has terminated.  :func:`pc_of` folds
the continuation afresh; :meth:`Config.pc
<repro.semantics.config.Config.pc>` keeps one pc per thread state in the
program's intern tables.
"""

from __future__ import annotations

from typing import Optional

from repro.lang.ast import (
    Com,
    Labeled,
    LibBlock,
    Seq,
    While,
)
from repro.lang.walk import fold

#: Program counter of a terminated thread (customisable per thread in
#: :class:`~repro.lang.program.Thread`).
DONE_PC = "done"


def pc_of(cmd: Com, done_label=DONE_PC):
    """The current program counter of a continuation.

    Labels do not nest for pc purposes: a label wrapping a region denotes
    the whole region, so we stop at the outermost ``Labeled`` on the
    leftmost execution path.  Unlabelled leading commands are transparent
    (they belong to the previous label's region in the paper's outlines);
    if no label occurs at all, ``done_label`` is returned only for a
    terminated thread and ``None`` for an unlabelled active one.
    """
    if cmd is None:
        return done_label
    return fold(cmd, _label_fold)


def _label_fold(node: Com, in_lib: bool, child_values) -> Optional[object]:
    if node is None:
        return None
    if isinstance(node, Labeled):
        # The outermost label denotes the whole region; children are
        # not consulted.
        return node.label
    if isinstance(node, Seq):
        first, second = child_values
        return first if first is not None else second
    if isinstance(node, (While, LibBlock)):
        return child_values[0]
    # ``If``: a conditional's label lives on the node wrapping it —
    # branches are only consulted once taken.  Leaves carry no label.
    return None
