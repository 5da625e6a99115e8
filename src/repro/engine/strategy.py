"""Frontier strategies for the exploration engine.

A *strategy* decides which pending configuration the sequential engine
expands next.  Because exploration memoises by canonical key, the set of
reachable configurations — and hence ``state_count``, terminal outcomes
and litmus verdicts — is independent of the visit order; what changes is
how quickly a *witness* is found (``reachable``/``find_path`` style
queries) and memory locality:

* :class:`BFSFrontier` — breadth-first (FIFO); shortest counterexamples,
  the historical default.
* :class:`DFSFrontier` — depth-first (LIFO); small frontier, reaches
  terminal states early.
* :class:`SwarmFrontier` — seeded random pops; the classic swarm
  verification trick for falling into bugs that both systematic orders
  postpone.  Deterministic for a fixed seed.

Strategies are *specs* (the strings above), not shared state: each
exploration builds a fresh frontier via :func:`make_frontier`, so one
engine object can be reused across programs.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from collections import deque
from typing import TYPE_CHECKING, Tuple

if TYPE_CHECKING:  # annotation-only import; this module stays a leaf.
    from repro.semantics.config import Config

#: Frontier entries are ``(canonical_key, configuration)`` pairs.
Entry = Tuple[tuple, "Config"]


class Frontier(ABC):
    """The pending-configuration container driving one exploration."""

    name: str = "frontier"

    @abstractmethod
    def push(self, key: tuple, cfg: Config) -> None:
        """Add a newly discovered configuration."""

    @abstractmethod
    def pop(self) -> Entry:
        """Remove and return the next configuration to expand."""

    @abstractmethod
    def __len__(self) -> int: ...

    def __bool__(self) -> bool:
        return len(self) > 0


class BFSFrontier(Frontier):
    """First-in first-out: classic breadth-first search."""

    name = "bfs"

    def __init__(self) -> None:
        self._q: deque = deque()

    def push(self, key: tuple, cfg: Config) -> None:
        self._q.append((key, cfg))

    def pop(self) -> Entry:
        return self._q.popleft()

    def __len__(self) -> int:
        return len(self._q)


class DFSFrontier(Frontier):
    """Last-in first-out: depth-first search."""

    name = "dfs"

    def __init__(self) -> None:
        self._s: list = []

    def push(self, key: tuple, cfg: Config) -> None:
        self._s.append((key, cfg))

    def pop(self) -> Entry:
        return self._s.pop()

    def __len__(self) -> int:
        return len(self._s)


class SwarmFrontier(Frontier):
    """Random pops with a fixed seed (swarm exploration order)."""

    name = "swarm"

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)
        self._s: list = []

    def push(self, key: tuple, cfg: Config) -> None:
        self._s.append((key, cfg))

    def pop(self) -> Entry:
        i = self._rng.randrange(len(self._s))
        self._s[i], self._s[-1] = self._s[-1], self._s[i]
        return self._s.pop()

    def __len__(self) -> int:
        return len(self._s)


def make_frontier(spec: str) -> Frontier:
    """Build a fresh frontier from a strategy spec: ``"bfs"``,
    ``"dfs"``, ``"swarm"`` or ``"swarm:<seed>"`` (an integer seed).
    Any other spec raises :class:`ValueError`."""
    if isinstance(spec, str):
        name, sep, arg = spec.partition(":")
        if name == "bfs" and not sep:
            return BFSFrontier()
        if name == "dfs" and not sep:
            return DFSFrontier()
        if name == "swarm":
            try:
                return SwarmFrontier(seed=int(arg) if sep else 0)
            except ValueError:
                pass
    raise ValueError(
        f"unknown exploration strategy {spec!r}; "
        "expected bfs, dfs or swarm[:seed]"
    )
