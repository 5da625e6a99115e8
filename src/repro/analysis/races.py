"""The static race detector: flow-sensitive per-thread access summaries
with ordering annotations, checked pairwise for unsynchronised conflicts.

Model
-----
Each thread's body is summarised into a program-ordered list of
:class:`Access` records — ``(component, variable)`` location, kind
(read/write/update), acquire/release annotations, and the statically
known written value where the flow environment determines it.  A
``Cas`` contributes *two* records: the acquiring-releasing update of
its success path and the relaxed read of its failure path.  The
summary is a visitor on :func:`repro.analysis.footprints.walk_flow`, so
statically dead branches (conditions that constant-fold) contribute
nothing.

Two accesses of different threads on one location *conflict* when at
least one modifies it.  A conflicting pair is reported as a ``race``
warning unless

* it is a **synchronisation pair** — one side releasing and the other
  acquiring (a release write against an acquire read, or any pair of
  RMW updates): the pair itself is the paper's release→acquire edge; or
* a **must happen-before chain** separates the two.

Must happens-before is built exclusively from *forced awaits* — the
polling-loop shape ``while cond(r): r ←ᴬ f`` the catalog's await
family uses: a loop whose only visible access is an acquiring read of
one location into the single condition register, entered with the
condition certainly true, and whose condition also holds for the
location's initial value (so the loop can only exit by reading a real
write).  Exit therefore synchronises with the write read — and if
*every* write that could satisfy the exit condition is releasing and
itself ordered after an access ``a``, then everything po-after the
await is ordered after ``a``.  The chain composes transitively across
threads (``MP-chain-await``) and handles rings; writes inside loop
bodies may serve as sources of the release leg, but an access inside a
loop body is never claimed ordered (a later iteration escapes the
chain), and only top-level awaits (not nested in a branch or loop) are
trusted to dominate the code after them.

Finally, an acquiring read of a location with no releasing write or
update anywhere in the program can never synchronise — reported as
``unmatched-acquire``.

The detector is deliberately conservative in exactly one direction:
it may flag pairs an exhaustive exploration proves ordered (warnings,
never errors), but a program it calls race-free has no reachable
configuration in which two threads have conflicting non-synchronising
actions enabled — the differential test
(:func:`operational_races`, exercised over the whole litmus catalog)
checks precisely that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.diagnostics import WARNING, AnalysisReport, Diagnostic
from repro.analysis.footprints import try_eval, visible_nodes, walk_flow
from repro.lang import ast as A
from repro.lang.expr import Value, registers_of
from repro.lang.program import Program

RACE = "race"
UNMATCHED_ACQUIRE = "unmatched-acquire"

READ = "read"
WRITE = "write"
UPDATE = "update"


@dataclass(frozen=True)
class Access:
    """One static global access of a thread."""

    tid: str
    comp: str
    var: str
    kind: str  # READ | WRITE | UPDATE
    acquire: bool
    release: bool
    pos: int  # program-order index within the thread
    path: Tuple[str, ...]
    in_loop: bool  # inside some While body (instances may repeat)
    value_known: bool = False  # writes: is the written value static?
    value: Optional[Value] = None

    @property
    def modifies(self) -> bool:
        return self.kind in (WRITE, UPDATE)

    @property
    def loc(self) -> Tuple[str, str]:
        return (self.comp, self.var)


@dataclass(frozen=True)
class Await:
    """A forced polling await: execution past ``pos`` implies having
    read (with acquire) a non-initial write to ``loc`` satisfying the
    exit condition."""

    tid: str
    comp: str
    var: str
    pos: int
    cond: object  # the loop condition over the single register ``reg``
    reg: str
    top_level: bool  # not nested inside a branch or another loop

    @property
    def loc(self) -> Tuple[str, str]:
        return (self.comp, self.var)


@dataclass
class ThreadSummary:
    """Ordered accesses and forced awaits of one thread."""

    tid: str
    accesses: List[Access] = field(default_factory=list)
    awaits: List[Await] = field(default_factory=list)


# -- summary construction ----------------------------------------------------


class _Collector:
    """The :func:`~repro.analysis.footprints.walk_flow` visitor that
    builds one thread's summary."""

    def __init__(self, program: Program, tid: str) -> None:
        self.program = program
        self.summary = ThreadSummary(tid=tid)
        self.pos = 0

    def _record(self, node, comp, kind, acquire, release, path, depth,
                value_known=False, value=None) -> None:
        self.summary.accesses.append(Access(
            tid=self.summary.tid, comp=comp, var=node.var, kind=kind,
            acquire=acquire, release=release, pos=self.pos, path=path,
            in_loop=depth > 0, value_known=value_known, value=value,
        ))

    def visit(self, node: A.Node, env: Dict, in_lib: bool,
              path: Tuple[str, ...], depth: int):
        """``depth`` counts enclosing undecided If arms and loop bodies
        (0 = top level)."""
        comp = "L" if in_lib else "C"
        if isinstance(node, A.While):
            aw = self._forced_await(node, env, in_lib)
            if aw is None:
                return None
            # Recorded once the body is walked, at the access counter
            # after it.
            return lambda: self.summary.awaits.append(Await(
                tid=self.summary.tid, comp=comp, var=aw[0], pos=self.pos,
                cond=node.cond, reg=aw[1], top_level=depth == 0,
            ))
        # A MethodCall is a linearised abstract library update; it never
        # races with variable accesses by construction.
        if not isinstance(node, (A.Read, A.Write, A.Cas, A.Fai)):
            return None
        self.pos += 1
        if isinstance(node, A.Read):
            self._record(node, comp, READ, node.acquire, False, path, depth)
        elif isinstance(node, A.Write):
            known, value = try_eval(node.expr, env)
            self._record(node, comp, WRITE, False, node.release, path,
                         depth, known, value)
        else:
            self._record(node, comp, UPDATE, True, True, path, depth)
            if isinstance(node, A.Cas):
                # The failure path is a relaxed read of a value ≠ expect.
                self._record(node, comp, READ, False, False, path, depth)
        return None

    def _forced_await(
        self, node: A.While, env: Dict, in_lib: bool
    ) -> Optional[Tuple[str, str]]:
        """``(var, reg)`` when ``node`` matches the forced-await shape
        under the entry environment ``env``; ``None`` otherwise."""
        cond_regs = registers_of(node.cond)
        if len(cond_regs) != 1:
            return None
        (reg,) = cond_regs
        # Entry must be certain: a loop that may be skipped proves nothing.
        entered, value = try_eval(node.cond, env)
        if not (entered and value):
            return None
        visible = visible_nodes(node.body)
        if len(visible) != 1:
            return None
        read = visible[0]
        if not (
            isinstance(read, A.Read)
            and read.acquire
            and read.reg == reg
        ):
            return None
        init = self._initial_value(read.var, in_lib)
        if init is _MISSING:
            return None
        holds, still = try_eval(node.cond, {reg: init})
        if not (holds and still):
            # The initial value already satisfies exit: the loop can
            # terminate without observing any write.
            return None
        return read.var, reg

    def _initial_value(self, var: str, in_lib: bool):
        source = self.program.lib_vars if in_lib else self.program.client_vars
        return source.get(var, _MISSING)


_MISSING = object()


def summarise_program(program: Program) -> Dict[str, ThreadSummary]:
    """Per-thread flow-sensitive access summaries of ``program``."""
    out: Dict[str, ThreadSummary] = {}
    for tid in program.tids:
        collector = _Collector(program, tid)
        walk_flow(
            program.body_of(tid),
            dict(program.initial_locals_of(tid)),
            collector.visit,
        )
        out[tid] = collector.summary
    return out


# -- must happens-before -----------------------------------------------------


class _HbOracle:
    def __init__(self, summaries: Dict[str, ThreadSummary]) -> None:
        self.summaries = summaries
        self.writes_by_loc: Dict[Tuple[str, str], List[Access]] = {}
        for summary in summaries.values():
            for acc in summary.accesses:
                if acc.modifies:
                    self.writes_by_loc.setdefault(acc.loc, []).append(acc)
        self._memo: Dict[Tuple, bool] = {}

    def _satisfying_writes(self, aw: Await) -> List[Access]:
        """Writes whose value could make ``aw``'s exit condition false
        (unknown values conservatively could)."""
        out = []
        for w in self.writes_by_loc.get(aw.loc, []):
            if w.value_known:
                known, still = try_eval(aw.cond, {aw.reg: w.value})
                if known and still:
                    continue  # keeps the loop spinning: not an exit source
            out.append(w)
        return out

    def ordered(self, a: Access, b: Access) -> bool:
        """Must ``a`` happen before ``b``?  (different threads)"""
        return self._hb(a, b, frozenset())

    def _hb(self, a: Access, b: Access, visiting: frozenset) -> bool:
        key = (a, b)
        memo = self._memo.get(key)
        if memo is not None:
            return memo
        if key in visiting:
            return False  # cycle: no well-founded chain
        visiting = visiting | {key}
        result = False
        for aw in self.summaries[b.tid].awaits:
            if not aw.top_level or aw.pos > b.pos:
                continue
            sats = self._satisfying_writes(aw)
            if not sats:
                continue
            if all(
                w.release and self._source_before(a, w, visiting)
                for w in sats
            ):
                result = True
                break
        self._memo[key] = result
        return result

    def _source_before(
        self, a: Access, w: Access, visiting: frozenset
    ) -> bool:
        """Is ``a`` certainly ordered no later than the release write
        ``w`` (so that synchronising with ``w`` covers ``a``)?"""
        if a.tid == w.tid:
            # Program order — but a loop-resident ``a`` has instances
            # after any given ``w`` instance.
            return a.pos <= w.pos and not a.in_loop
        return self._hb(a, w, visiting)


# -- the detector ------------------------------------------------------------


def _sync_pair(a: Access, b: Access) -> bool:
    return (a.release and b.acquire) or (b.release and a.acquire)


def detect_races(program: Program) -> AnalysisReport:
    """Race and unmatched-acquire findings of ``program``."""
    summaries = summarise_program(program)
    oracle = _HbOracle(summaries)
    accesses = [
        acc for s in summaries.values() for acc in s.accesses
    ]
    out: List[Diagnostic] = []

    reported: Set[Tuple] = set()
    for i, a in enumerate(accesses):
        for b in accesses[i + 1:]:
            if a.tid == b.tid or a.loc != b.loc:
                continue
            if not (a.modifies or b.modifies):
                continue
            if _sync_pair(a, b):
                continue
            if oracle.ordered(a, b) or oracle.ordered(b, a):
                continue
            pair_key = (a.loc, frozenset((a.tid, b.tid)))
            if pair_key in reported:
                continue
            reported.add(pair_key)
            first, second = sorted((a, b), key=lambda x: x.tid)
            out.append(
                Diagnostic(
                    code=RACE,
                    severity=WARNING,
                    message=(
                        f"threads {first.tid} and {second.tid} may access"
                        f" {a.var!r} concurrently ({first.kind} vs"
                        f" {second.kind}) without a release→acquire chain"
                    ),
                    tid=first.tid,
                    path=first.path,
                )
            )

    releasing_locs = {
        acc.loc for acc in accesses if acc.modifies and acc.release
    }
    flagged: Set[Tuple] = set()
    for acc in accesses:
        if not (acc.kind == READ and acc.acquire):
            continue
        if acc.loc in releasing_locs or acc.loc in flagged:
            continue
        flagged.add(acc.loc)
        out.append(
            Diagnostic(
                code=UNMATCHED_ACQUIRE,
                severity=WARNING,
                message=(
                    f"acquiring read of {acc.var!r} has no releasing write"
                    " anywhere in the program; it can never synchronise"
                ),
                tid=acc.tid,
                path=acc.path,
            )
        )
    return AnalysisReport(tuple(out))


# -- dynamic reference check -------------------------------------------------


def operational_races(
    program: Program, max_states: int = 200_000
) -> List[Tuple[str, Tuple[str, str]]]:
    """Reachable unsynchronised conflicts, by exhaustive exploration.

    Explores the unreduced transition system and reports every
    ``(variable, (tid, tid))`` for which some reachable configuration
    has two different threads' conflicting non-synchronising actions
    simultaneously enabled — the operational counterpart of the static
    detector's claim, used by the differential agreement suite.  Raises
    when the exploration truncates (the verdict would be unsound).
    """
    from repro.engine.core import explore_sequential
    from repro.memory import actions as ACT

    result = explore_sequential(
        program, max_states=max_states, collect_edges=True
    )
    if result.truncated:
        raise ValueError(
            "operational race check truncated; raise max_states"
        )
    races: Set[Tuple[str, Tuple[str, str]]] = set()
    for edge_list in (result.edges or {}).values():
        for i, (tid_a, comp_a, act_a, _ta) in enumerate(edge_list):
            for tid_b, comp_b, act_b, _tb in edge_list[i + 1:]:
                if tid_a == tid_b or act_a is None or act_b is None:
                    continue
                if ACT.is_method(act_a) or ACT.is_method(act_b):
                    continue  # linearised abstract operations
                if comp_a != comp_b or act_a.var != act_b.var:
                    continue
                if not (ACT.is_modifying(act_a) or ACT.is_modifying(act_b)):
                    continue
                if ACT.is_releasing(act_a) and ACT.is_acquiring(act_b):
                    continue
                if ACT.is_releasing(act_b) and ACT.is_acquiring(act_a):
                    continue
                races.add(
                    (act_a.var, tuple(sorted((tid_a, tid_b))))
                )
    return sorted(races)
