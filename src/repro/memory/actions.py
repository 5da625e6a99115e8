"""Actions and timestamped operations (paper §3.3).

``Act`` contains read, write and update actions over global variables plus
*abstract method actions* over objects (paper §4: "we record abstract
operations in general, as opposed to writes only").  Only modifying
actions — writes, updates, and method operations — enter a component's
``ops`` set; reads occur solely as transition labels.

An operation is an ``(action, timestamp)`` pair (``Op``).  Two dynamic
writes with identical action fields are distinguished by their timestamps,
which are unique per component.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from repro.lang.expr import Value

#: Action kinds.
RD = "rd"  #: relaxed read
RD_A = "rdA"  #: acquiring read
WR = "wr"  #: relaxed write
WR_R = "wrR"  #: releasing write
UPD = "updRA"  #: acquiring-releasing update (CAS success, FAI)
METH = "meth"  #: abstract method operation


@dataclass(frozen=True)
class Action:
    """A memory or method action.

    Fields beyond ``kind``/``var``/``tid`` are kind-specific:

    * reads: ``val`` is the value read;
    * writes: ``val`` is the value written;
    * updates: ``rdval`` is the value read, ``val`` the value written;
    * method actions: ``method`` is the method name, ``val`` an optional
      argument/element value, ``index`` the per-object operation index
      (the lock's "version"), ``sync`` whether the action synchronises
      (membership of the paper's ``Sync`` set).

    Actions are immutable and hashed constantly (state sets, rank
    tables, canonical keys), so the hash is computed once and cached.
    The cache never crosses a pickle boundary: string hashing is
    per-process (``PYTHONHASHSEED``), and the persistent result cache
    loads pickled configurations in later processes.
    """

    kind: str
    var: str
    tid: Optional[str] = None
    val: Value = None
    rdval: Value = None
    method: Optional[str] = None
    index: Optional[int] = None
    sync: bool = False

    def __hash__(self) -> int:
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash(
                (
                    self.kind,
                    self.var,
                    self.tid,
                    self.val,
                    self.rdval,
                    self.method,
                    self.index,
                    self.sync,
                )
            )
            object.__setattr__(self, "_hash", h)
        return h

    def __reduce__(self):
        """Rebuild from the eight defining fields; the cached hash is
        left behind."""
        return (
            Action,
            (
                self.kind, self.var, self.tid, self.val, self.rdval,
                self.method, self.index, self.sync,
            ),
        )

    def __repr__(self) -> str:  # compact, used in counterexample dumps
        if self.kind == METH:
            arg = "" if self.val is None else repr(self.val)
            idx = "" if self.index is None else f"_{self.index}"
            t = "" if self.tid is None else f"@{self.tid}"
            return f"{self.var}.{self.method}{idx}({arg}){t}"
        t = "" if self.tid is None else f"@{self.tid}"
        if self.kind in (RD, RD_A):
            return f"{self.kind}({self.var},{self.val!r}){t}"
        if self.kind in (WR, WR_R):
            return f"{self.kind}({self.var},{self.val!r}){t}"
        return f"{self.kind}({self.var},{self.rdval!r}->{self.val!r}){t}"


class Op:
    """A timestamped operation ``(a, q) ∈ Act × Q``.

    Value-equal by ``(act, ts)``.  Operations are interned throughout the
    state model (``ops`` sets, view maps, rank tables), so the hash —
    which reaches a :class:`~fractions.Fraction` modular inverse — is
    computed once per operation and cached.  Like :class:`Action`, the
    cached hash is dropped on pickling (it is process-specific).
    """

    __slots__ = ("act", "ts", "_hash")

    def __init__(self, act: Action, ts: Fraction) -> None:
        self.act = act
        self.ts = ts
        self._hash: Optional[int] = None

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self.act, self.ts))
        return h

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, Op):
            return self.ts == other.ts and self.act == other.act
        return NotImplemented

    def __reduce__(self):
        """Rebuild from ``(act, ts)``; the cached hash is left behind."""
        return (Op, (self.act, self.ts))

    def __repr__(self) -> str:
        return f"⟨{self.act!r}@{self.ts}⟩"


# -- constructors ----------------------------------------------------------


def mk_read(var: str, val: Value, tid: str, acquire: bool = False) -> Action:
    """A read action ``rd[A](x, v)``."""
    return Action(kind=RD_A if acquire else RD, var=var, tid=tid, val=val)


def mk_write(var: str, val: Value, tid: str, release: bool = False) -> Action:
    """A write action ``wr[R](x, v)``."""
    return Action(kind=WR_R if release else WR, var=var, tid=tid, val=val)


def mk_update(var: str, rdval: Value, val: Value, tid: str) -> Action:
    """An update action ``updRA(x, m, n)`` reading ``m`` and writing ``n``."""
    return Action(kind=UPD, var=var, tid=tid, val=val, rdval=rdval)


def mk_method(
    obj: str,
    method: str,
    tid: Optional[str] = None,
    val: Value = None,
    index: Optional[int] = None,
    sync: bool = False,
) -> Action:
    """An abstract method operation ``o.m_n`` (paper §4)."""
    return Action(
        kind=METH, var=obj, tid=tid, val=val, method=method, index=index, sync=sync
    )


# -- classification --------------------------------------------------------


def is_write(a: Action) -> bool:
    """Membership of the paper's ``W`` (all modifying variable actions).

    Method operations are modifying but are not *writes*: the definite
    observation assertion restricts to ``ops ∩ W`` for variables and has a
    separate object-level form.
    """
    return a.kind in (WR, WR_R, UPD)


def is_modifying(a: Action) -> bool:
    """Actions that enter ``ops``: writes, updates and method operations."""
    return a.kind in (WR, WR_R, UPD, METH)


def is_update(a: Action) -> bool:
    """Whether the action is an acquiring-releasing update (``updRA``)."""
    return a.kind == UPD


def is_releasing(a: Action) -> bool:
    """Membership of ``WR`` — releasing writes: ``wrR``, ``updRA``, and
    synchronising method operations (the lock's release, a releasing push).
    """
    if a.kind in (WR_R, UPD):
        return True
    return a.kind == METH and a.sync


def is_acquiring(a: Action) -> bool:
    """Membership of ``RA`` — acquiring reads: ``rdA``, ``updRA``."""
    return a.kind in (RD_A, UPD)


def is_method(a: Action) -> bool:
    """Whether the action is an abstract method operation."""
    return a.kind == METH


def wrval(a: Action) -> Value:
    """The value written by a modifying action (``wrval`` in the paper)."""
    if a.kind in (WR, WR_R, UPD):
        return a.val
    if a.kind == METH:
        return a.val
    raise ValueError(f"action writes no value: {a!r}")


def rdval(a: Action) -> Value:
    """The value read by a read or update action."""
    if a.kind in (RD, RD_A):
        return a.val
    if a.kind == UPD:
        return a.rdval
    raise ValueError(f"action reads no value: {a!r}")
