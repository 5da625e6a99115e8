"""A small immutable mapping with cheap functional update.

The explorer memoises configurations in a visited set, so every piece of
semantic state must be hashable and immutable.  ``FMap`` wraps a plain
``dict`` (never mutated after construction) and provides ``set``/``remove``
returning new maps.  Profiling (per the HPC optimisation guide: measure,
then optimise the bottleneck) showed dict-copy update is faster at the
state sizes this framework reaches (tens of entries) than tree-based
persistent structures, and far simpler.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Mapping, Tuple, TypeVar

K = TypeVar("K")
V = TypeVar("V")

#: Sentinel distinguishing "absent" from "bound to None".
_ABSENT = object()


class FMap(Mapping[K, V]):
    """Immutable hashable mapping with functional update."""

    __slots__ = ("_d", "_hash", "_sorted", "_ordered")

    def __init__(self, items: Mapping[K, V] | None = None) -> None:
        self._d: Dict[K, V] = dict(items) if items else {}
        self._hash: int | None = None
        self._sorted: Tuple[Tuple[K, V], ...] | None = None
        self._ordered: Tuple[Tuple[K, V], ...] | None = None

    # -- Mapping protocol -------------------------------------------------
    def __getitem__(self, key: K) -> V:
        return self._d[key]

    def __iter__(self) -> Iterator[K]:
        return iter(self._d)

    def __len__(self) -> int:
        return len(self._d)

    def __contains__(self, key: object) -> bool:
        return key in self._d

    # Direct delegates: the Mapping ABC's mixin versions route through
    # ``__getitem__`` item-by-item (ItemsView iteration, try/except get),
    # which profiling shows on the explorer's hot path.
    def get(self, key: K, default=None):
        return self._d.get(key, default)

    def keys(self):
        return self._d.keys()

    def values(self):
        return self._d.values()

    def items(self):
        return self._d.items()

    # -- functional updates ------------------------------------------------
    def set(self, key: K, value: V) -> "FMap[K, V]":
        """Return a copy with ``key`` bound to ``value``.

        When the binding is already present with an equal value the map
        itself is returned — no copy, and the cached hash survives.  The
        explorer hits this constantly through non-advancing view updates.
        """
        cur = self._d.get(key, _ABSENT)
        if cur is value or (cur is not _ABSENT and cur == value):
            return self
        new = dict(self._d)
        new[key] = value
        return FMap(new)

    def set_many(self, items: Mapping[K, V]) -> "FMap[K, V]":
        """Return a copy with every binding in ``items`` applied.

        Returns ``self`` (preserving the cached hash) when every binding
        is already present with an equal value.
        """
        if not items:
            return self
        d = self._d
        for k, v in items.items():
            cur = d.get(k, _ABSENT)
            if not (cur is v or (cur is not _ABSENT and cur == v)):
                break
        else:
            return self
        new = dict(d)
        new.update(items)
        return FMap(new)

    def remove(self, key: K) -> "FMap[K, V]":
        """Return a copy without ``key`` (KeyError when absent)."""
        new = dict(self._d)
        del new[key]
        return FMap(new)

    # -- serialisation -----------------------------------------------------
    def __reduce__(self):
        """Constructor-shaped encoding (``FMap(dict)``): one class
        reference and the mapping, no state dict — and the cached hash,
        which folds per-process string hashes (``PYTHONHASHSEED``),
        never crosses processes."""
        return (FMap, (self._d,))

    # -- identity ----------------------------------------------------------
    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._d.items()))
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FMap):
            return self._d == other._d
        if isinstance(other, Mapping):
            return self._d == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{k!r}: {v!r}" for k, v in sorted_items(self._d))
        return f"FMap({{{inner}}})"

    def items_sorted(self) -> Tuple[Tuple[K, V], ...]:
        """Items in a deterministic order (for canonical encodings).
        Cached — the map is immutable and canonical encodings revisit
        shared maps constantly."""
        s = self._sorted
        if s is None:
            s = self._sorted = tuple(sorted_items(self._d))
        return s

    def items_ordered(self) -> Tuple[Tuple[K, V], ...]:
        """Items sorted by the keys' *natural* order (keys must be
        mutually comparable — strings, tuples of strings).  Cached, like
        :meth:`items_sorted`; preferred on hot canonical paths because
        it skips the per-item ``repr``.  Unique keys mean the values are
        never compared."""
        o = self._ordered
        if o is None:
            o = self._ordered = tuple(sorted(self._d.items()))
        return o


def sorted_items(d: Mapping[Any, Any]):
    """Sort mapping items by ``repr`` of the key — total and deterministic
    even for heterogeneous key types."""
    return sorted(d.items(), key=lambda kv: repr(kv[0]))
