"""Stable program fingerprints for the persistent result cache.

A fingerprint must identify a :class:`~repro.lang.program.Program` by
*content* — thread commands, initial values, abstract objects — and be
stable across interpreter runs (``PYTHONHASHSEED``-independent) so that
a cache written by one process is readable by the next.  Python's
built-in ``hash`` gives neither, so programs are first lowered to a
canonical pure-data encoding (sorted mappings and sets, dataclasses as
``(qualified name, field values)``) and then hashed with SHA-256.

:data:`SEMANTICS_VERSION` salts every key: bump it whenever the
operational semantics or the canonical-key encoding changes behaviour,
which atomically invalidates all previously cached verdicts.
"""

from __future__ import annotations

import dataclasses
import hashlib
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:
    from repro.lang.program import Program

#: Cache-key salt tied to the semantics' behaviour.  Bump on any change
#: to the transition rules, canonicalisation or result summarisation.
#: rc11-rar-2: indexed component states — rank-from-index canonical
#: encoding (structural mview ordering, integer ranks) and structural
#: sort keys in the program encoding below.
SEMANTICS_VERSION = "rc11-rar-2"


def _encode(obj) -> tuple:
    """Lower ``obj`` to a deterministic, order-independent pure-data tree.

    Every node is a tuple whose first element is a string tag (or a
    dotted qualified class name), and same-tagged nodes carry same-typed
    fields, so encoded trees compare with plain tuple ordering — the
    sorts below are structural, no ``repr`` serialisation of whole
    subtrees.
    """
    if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
        return ("lit", type(obj).__name__, repr(obj))
    if isinstance(obj, Fraction):
        return ("frac", str(obj))
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        cls = type(obj)
        return (
            f"{cls.__module__}.{cls.__qualname__}",
            tuple(
                (f.name, _encode(getattr(obj, f.name)))
                for f in dataclasses.fields(obj)
            ),
        )
    if isinstance(obj, Mapping):
        return (
            "map",
            tuple(sorted((_encode(k), _encode(v)) for k, v in obj.items())),
        )
    if isinstance(obj, (set, frozenset)):
        return ("set", tuple(sorted(_encode(x) for x in obj)))
    if isinstance(obj, (tuple, list)):
        return ("seq", tuple(_encode(x) for x in obj))
    # Plain objects (e.g. abstract object specs): identity is their class
    # plus instance attributes.  ``vars`` raises for __slots__ classes,
    # which all define deterministic reprs here.
    try:
        state = vars(obj)
    except TypeError:
        return ("repr", type(obj).__qualname__, repr(obj))
    return (
        "obj",
        f"{type(obj).__module__}.{type(obj).__qualname__}",
        _encode(state),
    )


def program_fingerprint(program: Program) -> str:
    """A stable hex digest identifying ``program`` by content."""
    payload = repr(_encode(program)).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def cache_key(
    program: Program,
    max_states: int,
    canonicalise: bool = True,
    reduction: str = "off",
) -> str:
    """The persistent-cache key for one exploration request.

    Exploration parameters that affect the result — the state cap, the
    canonicalisation mode, and the reduction policy (reductions change
    which configurations exist, so state/edge counts differ between
    policies) — are part of the key, as is the semantics version salt.
    The policy enters through its registered *fingerprint token*
    (:data:`repro.semantics.reduce.ReductionStrategy.fingerprint_token`),
    so one policy's cached verdicts can be invalidated by bumping its
    token without touching the others' entries.
    """
    from repro.semantics.reduce import get_strategy

    payload = repr(
        (
            SEMANTICS_VERSION,
            program_fingerprint(program),
            int(max_states),
            bool(canonicalise),
            get_strategy(reduction).fingerprint_token,
        )
    ).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()
