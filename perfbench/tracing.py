"""Layer spans recorded from outside the program under test.

The recorder wraps each layer's public entry points (:data:`LAYERS`) and
rebinds every module-level reference to them inside the ``repro``
package — including the copies callers made with ``from … import``, and
the function fields of the registered reduction strategies — so no file
of the program is edited.  :meth:`SpanRecorder.uninstall` restores every
binding it replaced.

Each call of a wrapped function is one span: name, start, end and the
span that was open when it began (its parent).  Generator entry points
(the memory transition rules) yield lazily inside their caller's loop, so
every resumption of the generator is its own span and the caller's work
between resumptions stays with the caller.  Spans are kept in four flat
arrays (about 26 bytes a span) and written out once, at the end.

A span's *self time* is its duration minus the durations of its direct
children.  Clock readings are integer nanoseconds and children nest
inside their parent, so every self time is >= 0 and the self times of
all spans add up exactly to the root span's duration.
"""

from __future__ import annotations

import array
import dataclasses
import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Tuple

#: (layer, module, public entry points).  A layer's self time is the
#: time spent in these functions minus the time spent in calls they make
#: into other wrapped entry points.
LAYERS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("engine.core", "repro.engine.core", ("explore_sequential",)),
    ("semantics.step", "repro.semantics.step", ("successors", "thread_successors")),
    ("semantics.reduce", "repro.semantics.reduce", ("reduced_successors", "close_config")),
    ("semantics.dpor", "repro.semantics.dpor", ("dpor_successors",)),
    ("semantics.canon", "repro.semantics.canon", ("canonical_key", "client_state_key")),
    (
        "memory.transitions",
        "repro.memory.transitions",
        ("read_steps", "write_steps", "update_steps"),
    ),
    ("analysis", "repro.analysis", ("analyse_program",)),
    ("logic.owicki", "repro.logic.owicki", ("check_proof_outline",)),
    ("refinement.simulation", "repro.refinement.simulation", ("find_forward_simulation",)),
    ("refinement.tracecheck", "repro.refinement.tracecheck", ("check_program_refinement",)),
)

#: The span the harness opens around a whole workload.
ROOT_LAYER = "harness"

#: Counters read off an entry point's return value.
RESULT_COUNTERS: Dict[str, Callable[[object], Dict[str, int]]] = {
    "semantics.step:successors": lambda r: {"semantics.step.transitions": len(r)},
    "logic.owicki:check_proof_outline": lambda r: {
        "logic.owicki.obligations": r.obligations
    },
    "refinement.simulation:find_forward_simulation": lambda r: {
        "refinement.simulation.product_pairs": r.product_pairs
    },
    "refinement.tracecheck:check_program_refinement": lambda r: {
        "refinement.tracecheck.concrete_traces": r.concrete_traces,
        "refinement.tracecheck.abstract_traces": r.abstract_traces,
    },
}


def layer_of(span_name: str) -> str:
    """``"semantics.step:successors"`` -> ``"semantics.step"``."""
    return span_name.split(":", 1)[0]


class SpanRecorder:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_of = array.array("H")
        self.parent = array.array("q")
        self.start = array.array("q")
        self.end = array.array("q")
        self._stack: List[int] = [-1]
        #: Calls per span name (a generator counts once, at creation).
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self._restore: List[Tuple[Callable[[object], None], object]] = []

    # -- recording ----------------------------------------------------------
    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        """Open a span by hand (the harness root); returns its index."""
        i = len(self.name_of)
        self.name_of.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != i:
            raise RuntimeError(f"span {i} closed while span {popped} is open")

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` recording one span per call (per resumption for a
        generator function) under ``name``.  The wrappers inline
        :meth:`open`/:meth:`close` on local aliases: they run on every
        successor and key computation, so each attribute lookup saved
        shows in the tracing overhead."""
        nid = self._name_id(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack, calls, counters = self._stack, self.calls, self.counters
        clock = time.perf_counter_ns
        count_result = RESULT_COUNTERS.get(name)

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                calls[name] += 1
                it = fn(*args, **kwargs)
                while True:
                    i = len(name_of)
                    name_of.append(nid)
                    parent.append(stack[-1])
                    end.append(0)
                    stack.append(i)
                    start.append(clock())
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        end[i] = clock()
                        stack.pop()
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            i = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if count_result is not None:
                counters.update(count_result(result))
            return result

        return wrapper

    # -- installing ---------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point in :data:`LAYERS` and rebind all
        references to it in the loaded ``repro`` modules."""
        wrapped: Dict[int, Tuple[object, Callable]] = {}
        for layer, module_name, functions in LAYERS:
            module = importlib.import_module(module_name)
            for fname in functions:
                fn = getattr(module, fname)
                wrapped[id(fn)] = (fn, self.wrap(fn, f"{layer}:{fname}"))

        def replacement(value):
            entry = wrapped.get(id(value))
            return entry[1] if entry is not None and entry[0] is value else None

        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                new = replacement(value)
                if new is not None:
                    self._replace(
                        functools.partial(setattr, module, attr), value, new
                    )

        # The reduction registry holds the successor functions it was
        # built with; swap in copies of the strategies that point at the
        # wrappers.
        reduce_mod = importlib.import_module("repro.semantics.reduce")
        registry = reduce_mod._REGISTRY
        for policy, strategy in list(registry.items()):
            changes = {}
            for field in dataclasses.fields(strategy):
                new = replacement(getattr(strategy, field.name))
                if new is not None:
                    changes[field.name] = new
            if changes:
                self._replace(
                    functools.partial(registry.__setitem__, policy),
                    strategy,
                    dataclasses.replace(strategy, **changes),
                )

    def _replace(self, setter: Callable[[object], None], old, new) -> None:
        setter(new)
        self._restore.append((setter, old))

    def uninstall(self) -> None:
        """Put back every binding :meth:`install` replaced."""
        while self._restore:
            setter, old = self._restore.pop()
            setter(old)

    # -- results ------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.name_of)

    def self_times_ns(self) -> List[int]:
        """Per-span self time: duration minus the direct children's."""
        start, end, parent = self.start, self.end, self.parent
        own = [e - s for s, e in zip(start, end)]
        for i, p in enumerate(parent):
            if p >= 0:
                own[p] -= end[i] - start[i]
        return own

    def layer_self_ns(self) -> Dict[str, int]:
        """Self time summed per layer (the root span's layer included)."""
        per_name = [0] * len(self.names)
        for nid, ns in zip(self.name_of, self.self_times_ns()):
            per_name[nid] += ns
        totals: Dict[str, int] = {}
        for name, ns in zip(self.names, per_name):
            layer = layer_of(name)
            totals[layer] = totals.get(layer, 0) + ns
        return totals

    def layer_calls(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for name, n in self.calls.items():
            layer = layer_of(name)
            totals[layer] = totals.get(layer, 0) + n
        return totals

    def write(self, path: Path) -> None:
        """One JSON header line, then the name, parent, start and end
        arrays as raw native-endian bytes (see :func:`load_spans`)."""
        header = {
            "names": self.names,
            "spans": len(self),
            "clock": "perf_counter_ns",
            "arrays": ["name_of:H", "parent:q", "start:q", "end:q"],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(f)


def load_spans(path: Path) -> List[Tuple[str, int, int, int]]:
    """Read a file written by :meth:`SpanRecorder.write` back as
    ``(name, parent, start_ns, end_ns)`` tuples."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        n = header["spans"]
        arrays = []
        for spec in header["arrays"]:
            arr = array.array(spec.split(":")[1])
            arr.fromfile(f, n)
            arrays.append(arr)
    names = header["names"]
    name_of, parent, start, end = arrays
    return [
        (names[name_of[i]], parent[i], start[i], end[i]) for i in range(n)
    ]
