"""Bounded-dict eviction shared by the value-keyed memo tables.

Several hot-path memoisations (continuation footprints, phase
summaries) key immutable values in plain
dicts bounded only as a backstop against pathological workloads.  When
a table hits its cap, dropping the *oldest-inserted* half — dicts
preserve insertion order — sheds dead entries from earlier programs
while keeping the live working set, which by construction is the
recently inserted half; a full ``clear()`` would force the current
program to rebuild (and lose the identity sharing of) every entry it
is actively using.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict


def evict_half(table: Dict) -> None:
    """Drop the oldest-inserted half of ``table`` in place."""
    drop = len(table) // 2
    for key in list(islice(table, drop)):
        del table[key]
