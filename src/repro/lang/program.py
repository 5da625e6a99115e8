"""Concurrent programs ``Init; (C1 || … || Cn)`` (paper §3.2).

A :class:`Program` bundles the per-thread commands with everything the
combined semantics needs: initial values for client and library globals,
initial register values, the abstract objects in use, and the partition
of global variables into client (``GVar_C``) and library (``GVar_L``)
parts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Tuple

from repro.lang.ast import Com, library_registers
from repro.lang.expr import Value
from repro.lang.labels import DONE_PC


@dataclass(frozen=True)
class Thread:
    """A single thread: its command and the label reported once finished."""

    body: Com
    done_label: object = DONE_PC


@dataclass(frozen=True)
class Program:
    """A closed concurrent program over a client and a library component.

    Parameters
    ----------
    threads:
        Mapping from thread id to :class:`Thread` (or raw command).
    client_vars:
        Initial values of client globals (``GVar_C``); each is initialised
        exactly once, at timestamp 0.
    lib_vars:
        Initial values of library globals (``GVar_L``) — used by concrete
        implementations (e.g. ``glb`` for the sequence lock).
    objects:
        Abstract objects (by name) whose operations live in the library
        state; each contributes its initial operation(s).
    init_locals:
        Optional initial register values per thread, the paper's
        ``[r := l]`` part of ``Init``.
    """

    threads: Mapping[str, Thread]
    client_vars: Mapping[str, Value] = field(default_factory=dict)
    lib_vars: Mapping[str, Value] = field(default_factory=dict)
    objects: Tuple[object, ...] = ()
    init_locals: Mapping[str, Mapping[str, Value]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        normalised = {}
        for tid, th in dict(self.threads).items():
            if not isinstance(th, Thread):
                th = Thread(body=th)
            normalised[tid] = th
        object.__setattr__(self, "threads", normalised)
        overlap = set(self.client_vars) & set(self.lib_vars)
        if overlap:
            raise ValueError(f"variables in both components: {sorted(overlap)}")
        obj_names = [o.name for o in self.objects]
        if len(obj_names) != len(set(obj_names)):
            raise ValueError("duplicate abstract object names")
        clash = set(obj_names) & (set(self.client_vars) | set(self.lib_vars))
        if clash:
            raise ValueError(f"object names clash with globals: {sorted(clash)}")

    def __getstate__(self):
        """The defining fields only.  Everything derived from them — the
        structure below and the canonical layer's intern tables
        (:mod:`repro.semantics.canon`) — is process-local and stays
        behind."""
        return {f.name: self.__dict__[f.name] for f in fields(self)}

    # -- derived structure -------------------------------------------------
    # Computed once per program object and kept in its instance dict (the
    # fields are immutable after ``__post_init__``); hot paths read these
    # on every step and projection.
    @cached_property
    def tids(self) -> Tuple[str, ...]:
        return tuple(sorted(self.threads))

    @cached_property
    def object_map(self) -> Mapping[str, object]:
        return MappingProxyType({o.name: o for o in self.objects})

    @cached_property
    def client_var_names(self) -> frozenset:
        return frozenset(self.client_vars)

    @cached_property
    def lib_var_names(self) -> frozenset:
        """Library globals plus abstract object names (both live in β)."""
        return frozenset(self.lib_vars) | frozenset(o.name for o in self.objects)

    @cached_property
    def _lib_registers(self) -> frozenset:
        regs: frozenset = frozenset()
        for th in self.threads.values():
            regs |= library_registers(th.body)
        return regs

    def lib_registers(self) -> frozenset:
        """``LVar_L``: registers assigned inside any thread's LibBlocks."""
        return self._lib_registers

    def done_label_of(self, tid: str):
        return self.threads[tid].done_label

    def body_of(self, tid: str) -> Com:
        return self.threads[tid].body

    def initial_locals_of(self, tid: str) -> Mapping[str, Value]:
        return dict(self.init_locals.get(tid, {}))


def component_of(program: Program, var: str) -> str:
    """Which component a global variable or object belongs to: 'C' or 'L'."""
    if var in program.client_var_names:
        return "C"
    if var in program.lib_var_names:
        return "L"
    raise KeyError(f"unknown global variable or object: {var!r}")
