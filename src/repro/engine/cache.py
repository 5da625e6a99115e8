"""Persistent exploration-result cache.

The litmus battery, the figure checks, the benchmarks and the test-suite
all re-explore *identical* programs dozens of times per session.  This
cache stores :class:`~repro.engine.result.ExploreSummary` pickles on
disk keyed by stable program fingerprint
(:mod:`repro.engine.fingerprint`), so a warm run answers from disk with
zero re-explorations.

Layout: one file per entry, ``<root>/<key[:2]>/<key>.pkl``, written via
a temp file + ``os.replace`` so concurrent writers (the batch runner's
worker processes) can never expose a torn entry.  Unreadable or corrupt
entries are treated as misses and deleted.

The default root is ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-engine``.
``REPRO_CACHE=0`` (:func:`cache_enabled_by_env`) stops the callers that
build their own cache — the CLI, the batch litmus job and
``run_litmus(test, use_cache=True)`` without an engine — from creating
one.  These two are the only environment variables the package reads.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from pathlib import Path
from typing import Dict, Optional, Union

from repro.engine.result import ExploreSummary

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
#: Environment variable disabling the CLI's default cache ("0"/"off").
CACHE_TOGGLE_ENV = "REPRO_CACHE"


def default_cache_root() -> Path:
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-engine"


def cache_enabled_by_env() -> bool:
    return os.environ.get(CACHE_TOGGLE_ENV, "1").lower() not in (
        "0",
        "off",
        "false",
        "no",
    )


class ResultCache:
    """A directory of pickled exploration summaries."""

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_root()
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def __repr__(self) -> str:
        return f"ResultCache({str(self.root)!r}, entries={len(self)})"

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    # -- access --------------------------------------------------------------
    def get(self, key: str) -> Optional[ExploreSummary]:
        """The cached summary for ``key``, or None (counted as a miss)."""
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                summary = pickle.load(fh)
            if not isinstance(summary, ExploreSummary):
                raise TypeError(f"cache entry is {type(summary)!r}")
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            # Corrupt, truncated or stale-format entry: drop and miss.
            self.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.hits += 1
        summary.cached = True
        return summary

    def put(self, key: str, summary: ExploreSummary) -> None:
        """Persist ``summary`` under ``key`` (atomic within the cache dir)."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(summary, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- maintenance ---------------------------------------------------------
    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.pkl"))

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for entry in self.root.glob("*/*.pkl"):
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def stats(self) -> Dict[str, int]:
        """Structured session counters plus the on-disk entry count —
        the shape the CLI prints and batch JSON reports embed.  Note
        ``hits``/``misses`` count this process's ``get`` calls while
        ``entries`` inspects the (shared, persistent) directory."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self),
        }

    def describe(self) -> str:
        """The one-line human form of :meth:`stats`."""
        s = self.stats()
        return (
            f"{s['hits']} hits, {s['misses']} misses, "
            f"{s['entries']} entries"
        )
