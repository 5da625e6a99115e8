"""A fixed pure-Python kernel that times the CPU rather than the program.

The benchmark shares its machine with other work.  The speed of a CPU
drifts by up to 1.75x over minutes to hours, the two CPUs of one host can
differ from one second to the next, and CPU time tracks wall time
throughout, so the slowdown is invisible from inside the process
(README.md, "Host speed").  :func:`host_time` runs a small explicit-state search of the
same kind as the verifier's own loop -- states with a Python-level
``__hash__``/``__eq__``, frozensets, sorted canonical keys and a visited
dict -- but never touches ``repro``, so no change to the program under
test moves it.  Each worker times it on its own CPU just before and just
after its workload.
"""

from __future__ import annotations

import gc
import statistics
import time
from collections import deque

#: The kernel's time on the 2-CPU host the benchmark was set on, in that
#: host's fast state (it ran 0.039-0.045 s there, and 0.075-0.09 s in
#: its slow state).  A worker reports ``NOMINAL_S / host_time()`` as its
#: ``host_scale``; a time multiplied by it is in seconds as that host,
#: running fast, would have taken.
NOMINAL_S = 0.04


class _State:
    __slots__ = ("pcs", "mem", "views", "_hash")

    def __init__(self, pcs, mem, views):
        self.pcs = pcs
        self.mem = mem
        self.views = views
        self._hash = None

    def key(self):
        return (self.pcs, tuple(sorted(self.mem.items())), self.views)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.key())
        return self._hash

    def __eq__(self, other):
        return self.key() == other.key()


def kernel(threads: int = 3, steps: int = 4) -> int:
    """Breadth-first search over every interleaving of ``threads``
    threads that each write ``steps`` times (8,380 states by default);
    returns the state count."""
    start = _State((0,) * threads, {}, frozenset())
    seen = {start: 0}
    frontier = deque([start])
    while frontier:
        state = frontier.popleft()
        for t in range(threads):
            pc = state.pcs[t]
            if pc == steps:
                continue
            pcs = state.pcs[:t] + (pc + 1,) + state.pcs[t + 1:]
            mem = dict(state.mem)
            var = f"x{(t + pc) % 2}"
            mem[var] = (mem.get(var, 0) * 3 + t) % 7
            views = state.views | {(t, var, mem[var])}
            nxt = _State(pcs, mem, views)
            if nxt not in seen:
                seen[nxt] = len(seen)
                frontier.append(nxt)
    return len(seen)


def host_time(slices: int = 5) -> float:
    """Median seconds of ``slices`` runs of :func:`kernel`, after one
    untimed run, with the cyclic garbage collector paused so that the
    size of the caller's heap does not leak into the reading."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        kernel()
        times = []
        for _ in range(slices):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)
