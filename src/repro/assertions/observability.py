"""Observability assertions (paper §5.1).

Every atom resolves the component of its variable/object automatically
(client variables against ``γ``, library variables and objects against
``β``), which realises the paper's ``⟨p⟩C_t`` / ``⟨p⟩L_t`` lifting without
separate syntax; the cross-component conditional
:class:`ConditionalMethod` corresponds to ``⟨o.m⟩L[y = v]C_t``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.assertions.core import Assertion, Env
from repro.lang.expr import Value
from repro.memory.actions import METH, Action, is_write, wrval
from repro.memory.state import ComponentState
from repro.memory.views import View
from repro.objects.stack import AbstractStack


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MethodMatch:
    """A pattern ``o.m`` with optional index/value/thread constraints.

    ``l.release_2`` is ``MethodMatch('l', 'release', index=2)``; the
    paper's subscripts become the ``index`` field.
    """

    obj: str
    method: str
    index: Optional[int] = None
    val: Value = None
    tid: Optional[str] = None

    def matches(self, a: Action) -> bool:
        if a.kind != METH or a.var != self.obj or a.method != self.method:
            return False
        if self.index is not None and a.index != self.index:
            return False
        if self.val is not None and a.val != self.val:
            return False
        if self.tid is not None and a.tid != self.tid:
            return False
        return True

    def describe(self) -> str:
        idx = "" if self.index is None else f"_{self.index}"
        return f"{self.obj}.{self.method}{idx}"


def dview_value(view: View, state: ComponentState, var: str) -> Optional[Value]:
    """``dview(view, W, x)``: the definite value of ``x`` under ``view``.

    Returns the value written by the last write to ``x`` in ``state.ops``
    when ``view`` points at it; ``None`` when the view is stale (no
    definite observation).
    """
    last = state.last_op(var, only=is_write)
    if last is None:
        return None
    pointed = view.get(var)
    if pointed is None or pointed != last:
        return None
    return wrval(last.act)


# ---------------------------------------------------------------------------
# variable-level atoms
# ---------------------------------------------------------------------------


@dataclass(frozen=True, repr=False)
class PossibleValue(Assertion):
    """``⟨x = u⟩t`` — some observable write to x has value u."""

    var: str
    value: Value
    tid: str

    def holds(self, env: Env) -> bool:
        state = env.component(env.component_of_var(self.var))
        return any(
            wrval(w.act) == self.value for w in state.obs(self.tid, self.var)
        )

    def describe(self) -> str:
        return f"⟨{self.var} = {self.value!r}⟩{self.tid}"


@dataclass(frozen=True, repr=False)
class DefiniteValue(Assertion):
    """``[x = u]t`` — t's viewfront is the last write to x, of value u."""

    var: str
    value: Value
    tid: str

    def holds(self, env: Env) -> bool:
        state = env.component(env.component_of_var(self.var))
        view = state.thread_view_map(self.tid)
        return dview_value(view, state, self.var) == self.value

    def describe(self) -> str:
        return f"[{self.var} = {self.value!r}]{self.tid}"


@dataclass(frozen=True, repr=False)
class ConditionalValue(Assertion):
    """``⟨x = u⟩[y = v]t`` — synchronising with any observable write of u
    to x establishes a definite observation of v for y.

    Every observable write of ``u`` to ``x`` must be releasing and its
    modification view must give ``y`` its definite value ``v``.
    """

    var: str
    value: Value
    dep_var: str
    dep_value: Value
    tid: str

    def holds(self, env: Env) -> bool:
        from repro.memory.actions import is_releasing

        state = env.component(env.component_of_var(self.var))
        dep_state = env.component(env.component_of_var(self.dep_var))
        for w in state.obs(self.tid, self.var):
            if wrval(w.act) != self.value:
                continue
            if not is_releasing(w.act):
                return False
            mv = state.mview[w]
            if dview_value(mv, dep_state, self.dep_var) != self.dep_value:
                return False
        return True

    def describe(self) -> str:
        return (
            f"⟨{self.var} = {self.value!r}⟩"
            f"[{self.dep_var} = {self.dep_value!r}]{self.tid}"
        )


# ---------------------------------------------------------------------------
# object-level atoms
# ---------------------------------------------------------------------------


@dataclass(frozen=True, repr=False)
class PossibleMethod(Assertion):
    """``⟨o.m⟩t`` — an operation matching o.m is observable to t."""

    match: MethodMatch
    tid: str

    def holds(self, env: Env) -> bool:
        state = env.component("L")
        front = state.thread_view(self.tid, self.match.obj)
        floor = front.ts if front is not None else None
        for op in state.ops_on(self.match.obj):
            if floor is not None and op.ts < floor:
                continue
            if self.match.matches(op.act):
                return True
        return False

    def describe(self) -> str:
        return f"⟨{self.match.describe()}⟩{self.tid}"


@dataclass(frozen=True, repr=False)
class DefiniteMethod(Assertion):
    """``[o.m]t`` — t's view of o is the latest operation, matching o.m."""

    match: MethodMatch
    tid: str

    def holds(self, env: Env) -> bool:
        state = env.component("L")
        latest = state.last_op(self.match.obj)
        if latest is None or not self.match.matches(latest.act):
            return False
        return state.thread_view(self.tid, self.match.obj) == latest

    def describe(self) -> str:
        return f"[{self.match.describe()}]{self.tid}"


@dataclass(frozen=True, repr=False)
class ConditionalMethod(Assertion):
    """``⟨o.m⟩[y = v]t`` (paper: ``⟨o.m⟩L[y = v]C_t``).

    Every observable operation matching ``o.m`` must be synchronising and
    its modification view must give ``y`` its definite value ``v`` — so
    if ``t`` later synchronises with such an operation (e.g. by acquiring
    the lock it released), ``[y = v]t`` is established.
    """

    match: MethodMatch
    dep_var: str
    dep_value: Value
    tid: str

    def holds(self, env: Env) -> bool:
        lib = env.component("L")
        dep_state = env.component(env.component_of_var(self.dep_var))
        front = lib.thread_view(self.tid, self.match.obj)
        floor = front.ts if front is not None else None
        for op in lib.ops_on(self.match.obj):
            if floor is not None and op.ts < floor:
                continue
            if not self.match.matches(op.act):
                continue
            if not op.act.sync:
                return False
            mv = lib.mview[op]
            if dview_value(mv, dep_state, self.dep_var) != self.dep_value:
                return False
        return True

    def describe(self) -> str:
        return (
            f"⟨{self.match.describe()}⟩"
            f"[{self.dep_var} = {self.dep_value!r}]{self.tid}"
        )


@dataclass(frozen=True, repr=False)
class Covered(Assertion):
    """``C_{o.m}`` — every uncovered operation on o is the latest, matching
    o.m (paper §5.1, used as ``C_{l.acquire_1}`` in Figure 7's P1)."""

    match: MethodMatch

    def holds(self, env: Env) -> bool:
        state = env.component("L")
        obj = self.match.obj
        max_ts = state.max_ts(obj)
        for op in state.ops_on(obj):
            if op in state.cvd:
                continue
            if not (self.match.matches(op.act) and op.ts == max_ts):
                return False
        return True

    def describe(self) -> str:
        return f"C[{self.match.describe()}]"


@dataclass(frozen=True, repr=False)
class Hidden(Assertion):
    """``H_{o.m}`` — o.m occurs, and every occurrence is covered."""

    match: MethodMatch

    def holds(self, env: Env) -> bool:
        state = env.component("L")
        found = False
        for op in state.ops_on(self.match.obj):
            if self.match.matches(op.act):
                found = True
                if op not in state.cvd:
                    return False
        return found

    def describe(self) -> str:
        return f"H[{self.match.describe()}]"


# ---------------------------------------------------------------------------
# stack-specific atoms (Figures 1–3)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, repr=False)
class StackEmpty(Assertion):
    """``[s.pop emp]`` — a pop can only return Empty (the stack holds no
    elements)."""

    obj: str

    def holds(self, env: Env) -> bool:
        stack = env.object(self.obj)
        assert isinstance(stack, AbstractStack)
        return len(stack.content(env.beta)) == 0

    def describe(self) -> str:
        return f"[{self.obj}.pop emp]"


@dataclass(frozen=True, repr=False)
class StackTopIs(Assertion):
    """``⟨s.pop v⟩`` — a pop executed now would return v."""

    obj: str
    value: Value

    def holds(self, env: Env) -> bool:
        stack = env.object(self.obj)
        assert isinstance(stack, AbstractStack)
        top = stack.top(env.beta)
        return top is not None and top[0] == self.value

    def describe(self) -> str:
        return f"⟨{self.obj}.pop {self.value!r}⟩"


@dataclass(frozen=True, repr=False)
class ConditionalPop(Assertion):
    """``⟨s.pop v⟩[y = u]t`` — if a pop by t returned v (synchronising with
    the releasing push of the top element), t would definitely observe u
    for y."""

    obj: str
    value: Value
    dep_var: str
    dep_value: Value
    tid: str

    def holds(self, env: Env) -> bool:
        stack = env.object(self.obj)
        assert isinstance(stack, AbstractStack)
        dep_state = env.component(env.component_of_var(self.dep_var))
        top = stack.top(env.beta)
        if top is None or top[0] != self.value:
            return True  # vacuous: a pop cannot return v now
        _value, push_op = top
        if not push_op.act.sync:
            return False
        mv = env.beta.mview[push_op]
        return dview_value(mv, dep_state, self.dep_var) == self.dep_value

    def describe(self) -> str:
        return (
            f"⟨{self.obj}.pop {self.value!r}⟩"
            f"[{self.dep_var} = {self.dep_value!r}]{self.tid}"
        )


# ---------------------------------------------------------------------------
# convenience constructors
# ---------------------------------------------------------------------------


def possible_value(var: str, value: Value, tid: str) -> PossibleValue:
    """Shorthand for ``⟨var = value⟩tid``."""
    return PossibleValue(var, value, tid)


def definite_value(var: str, value: Value, tid: str) -> DefiniteValue:
    """Shorthand for ``[var = value]tid``."""
    return DefiniteValue(var, value, tid)
