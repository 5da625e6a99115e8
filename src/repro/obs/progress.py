"""Live exploration progress: a rate-limited stderr heartbeat.

A :class:`Progress` reporter redraws one status line in place —
``exploring: 12,345 states (4,567/s) shards 3101/3090/3077`` — while a
long exploration runs, then erases it so the command's real output is
untouched.  It is designed for the engine's hot loops:

* **TTY-gated**: unless ``enabled`` is forced, the reporter silently
  disables itself when the stream is not a terminal (CI logs, pipes,
  the test-suite) — and the CLI's ``--quiet`` flag never constructs
  one at all.
* **Rate-limited twice over**: callers may invoke :meth:`update` per
  admitted state; an internal countdown skips all but every 64th call
  before even reading the clock, and redraws are additionally capped at
  one per ``interval`` seconds.

The pipeline feeds it shard balance: the master updates from the
workers' periodic ``stat`` messages (emitted only when a reporter is attached, so the message
traffic is also zero when off).
"""

from __future__ import annotations

import sys
import time
from typing import List, Optional, Sequence

#: update() calls skipped between clock reads (keeps the per-state cost
#: of an attached reporter to one decrement and compare).
_TICK_EVERY = 64


class Progress:
    """A self-erasing, rate-limited status line."""

    def __init__(
        self,
        stream=None,
        interval: float = 0.25,
        label: str = "exploring",
        enabled: Optional[bool] = None,
    ) -> None:
        self.stream = stream if stream is not None else sys.stderr
        if enabled is None:
            isatty = getattr(self.stream, "isatty", None)
            try:
                enabled = bool(isatty()) if isatty is not None else False
            except Exception:
                enabled = False
        self.enabled = enabled
        self.interval = interval
        self.label = label
        self._t0: Optional[float] = None
        self._last = 0.0
        self._tick = 0
        self._dirty = False

    def update(
        self,
        states: int,
        shards: Optional[Sequence[int]] = None,
        force: bool = False,
    ) -> None:
        """Report ``states`` admitted so far (and optionally per-shard
        counts); redraws at most once per ``interval`` seconds."""
        if not self.enabled:
            return
        if not force:
            self._tick -= 1
            if self._tick > 0:
                return
            self._tick = _TICK_EVERY
        now = time.monotonic()
        if self._t0 is None:
            self._t0 = now
        if not force and now - self._last < self.interval:
            return
        self._last = now
        elapsed = now - self._t0
        rate = states / elapsed if elapsed > 0 else 0.0
        msg = f"{self.label}: {states:,} states ({rate:,.0f}/s)"
        if shards:
            msg += " shards " + "/".join(str(int(s)) for s in shards)
        self.stream.write("\r\x1b[2K" + msg)
        self.stream.flush()
        self._dirty = True

    def finish(self) -> None:
        """Erase the status line (if one was drawn) and reset the rate
        clock, so one reporter can serve many explorations in turn."""
        if self._dirty:
            self.stream.write("\r\x1b[2K")
            self.stream.flush()
            self._dirty = False
        self._t0 = None
        self._tick = 0


def shard_counts(states_by_shard: dict) -> List[int]:
    """``{wid: states}`` → the display ordering ``update`` expects."""
    return [states_by_shard[w] for w in sorted(states_by_shard)]
