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
from itertools import islice
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


#: Memoised digests of hashable substructures (Actions, AST nodes, …)
#: which repeat across virtually every canonical key of a run.  Value
#: keyed — equal values share a digest — and bounded by half-eviction:
#: when the memo reaches ``_SUB_DIGESTS_MAX`` entries, the oldest
#: insertion half is dropped (dicts preserve insertion order).  The
#: live working set — the substructures of the *current* exploration —
#: is by construction the recently inserted half, so long batch runs
#: shed the dead weight of earlier programs without ever re-hashing the
#: current one from cold (a full clear forced exactly that).
_SUB_DIGESTS: dict = {}
_SUB_DIGESTS_MAX = 1_000_000


def _evict_sub_digests() -> None:
    """Drop the oldest-inserted half of the substructure memo."""
    drop = len(_SUB_DIGESTS) // 2
    for key in list(islice(_SUB_DIGESTS, drop)):
        del _SUB_DIGESTS[key]


def stable_digest(obj, digest_size: int = 16) -> bytes:
    """An order- and process-independent digest of a canonical key.

    Canonical keys are nested tuples containing frozensets (both at the
    top level and inside ``LibBlock.public_regs``), whose iteration —
    and hence pickle byte order — depends on ``PYTHONHASHSEED``.  The
    sharded explorer dedups states across worker processes by digest,
    so the encoding must not involve per-process hash state: sets and
    dataclasses are folded into *sub-digests* (sorted, for sets),
    everything else is fed as a tagged byte stream.

    Raises :class:`TypeError` on an interned
    :func:`~repro.semantics.canon.canonical_key`, whose ids are only
    meaningful inside the process that assigned them; digest the
    structural :func:`~repro.semantics.canon.canonical_encoding`.
    """
    h = hashlib.blake2b(digest_size=digest_size)
    _feed(h, obj, digest_size)
    return h.digest()


def _feed(h, x, digest_size: int) -> None:
    if isinstance(x, tuple):
        if len(x) >= 2:
            # Substructures (operation encodings, views, continuations)
            # repeat across virtually every key of a run: fold them into
            # memoised sub-digests instead of re-hashing byte streams.
            h.update(b"c")
            h.update(_sub_digest(x, digest_size))
        else:
            h.update(b"t%d:" % len(x))
            for e in x:
                _feed(h, e, digest_size)
    elif isinstance(x, str):
        h.update(b"s")
        h.update(x.encode("utf-8", "surrogatepass"))
        h.update(b"\x00")
    elif x is None:
        h.update(b"N")
    elif isinstance(x, (bool, int, float, Fraction)):
        # One numeric encoding for every numeric type: Python equality
        # identifies True == 1 == Fraction(1), and digest equality must
        # coincide with key equality or parallel dedup diverges from
        # sequential dedup.
        h.update(b"q")
        h.update(str(Fraction(x)).encode("ascii"))
        h.update(b"\x00")
    elif isinstance(x, (frozenset, set)):
        h.update(b"f%d:" % len(x))
        h.update(b"".join(sorted(_sub_digest(e, digest_size) for e in x)))
    elif dataclasses.is_dataclass(x) and not isinstance(x, type):
        h.update(b"c")
        h.update(_sub_digest(x, digest_size))
    elif isinstance(x, list):
        h.update(b"L%d:" % len(x))
        for e in x:
            _feed(h, e, digest_size)
    elif isinstance(x, bytes):
        h.update(b"b")
        h.update(x)
        h.update(b"\x00")
    elif isinstance(x, Mapping):
        h.update(b"m%d:" % len(x))
        h.update(
            b"".join(
                sorted(_sub_digest(kv, digest_size) for kv in x.items())
            )
        )
    else:
        from repro.semantics.canon import KeyScope

        if isinstance(x, KeyScope):
            # A scope-tagged canonical key: its ids are assigned by this
            # process's intern tables, so a digest of it would silently
            # disagree with any other process's.
            raise TypeError(
                "stable_digest of a process-local canonical_key; digest "
                "canonical_encoding(program, cfg) instead"
            )
        h.update(b"r")
        h.update(f"{type(x).__qualname__}:{x!r}".encode("utf-8"))
        h.update(b"\x00")


def _sub_digest(x, digest_size: int) -> bytes:
    """Digest of one substructure, memoised when ``x`` is hashable."""
    try:
        cached = _SUB_DIGESTS.get((digest_size, x))
        cacheable = True
    except TypeError:  # unhashable (e.g. a tuple containing a list)
        cached = None
        cacheable = False
    if cached is not None:
        return cached
    h = hashlib.blake2b(digest_size=digest_size)
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        cls = type(x)
        h.update(b"d")
        h.update(f"{cls.__module__}.{cls.__qualname__}".encode("ascii"))
        h.update(b"\x00")
        for f in dataclasses.fields(x):
            _feed(h, getattr(x, f.name), digest_size)
    elif isinstance(x, tuple):
        # Inline element feed (not via _feed, which would re-enter this
        # cache for the same tuple).
        h.update(b"t%d:" % len(x))
        for e in x:
            _feed(h, e, digest_size)
    else:
        _feed(h, x, digest_size)
    digest = h.digest()
    if cacheable:
        if len(_SUB_DIGESTS) >= _SUB_DIGESTS_MAX:
            _evict_sub_digests()
        _SUB_DIGESTS[(digest_size, x)] = digest
    return digest


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
