"""Canonical byte encoding for signable protocol objects.

Digital signatures and MACs need a deterministic byte representation of
protocol messages. Rather than pulling in a serialization framework, this
module defines a small canonical encoding over the value types protocol
messages are built from: ints, floats, strings, bytes, bools, None,
tuples/lists, dicts (sorted by key), frozensets (sorted), and dataclasses
(encoded as ``(class name, field dict)``).

An *envelope* — a dataclass that only wraps and addresses another
message — names its child fields in ``encoded_by_digest``; such a field
is encoded as the child's 32-byte SHA-256 digest under a tag of its
own, so an envelope costs its own fields however large the child is.
A class many envelopes carry sets ``keeps_nested_encoding``: the first
walk of an instance leaves its bytes on it, later ones append them.

The encoding is injective on the supported domain (for a field encoded
by digest: by the collision resistance the Merkle batch record already
rests on), which is what unforgeability arguments need: two distinct
messages never encode to the same bytes.

:func:`encode_cached`, :func:`digest_bytes` and :func:`digest` keep what
they derive on the message object itself (see ``_ENTRY``), so it lives
exactly as long as the message does; this module holds no per-message
table.
"""

from __future__ import annotations

import dataclasses
import struct
from hashlib import sha256 as _sha256
from typing import Any, Callable, Dict

__all__ = [
    "encode",
    "encode_cached",
    "derived",
    "digest",
    "digest_bytes",
    "EncodingError",
]

class EncodingError(TypeError):
    """Raised when a value outside the supported domain is encoded."""


_PACK_D = struct.Struct(">d").pack
#: ``tag || 4-byte length``, the head of an int, str or bytes value
_PACK_HEAD = struct.Struct(">cI").pack
#: tag of a field encoded by digest; always followed by exactly 32 bytes
_DIGEST_TAG = b"H"

#: exact-type -> encoder function; the per-value isinstance ladder the
#: encoder used to walk was the single hottest code path under profile.
#: Populated below for the builtin value types and lazily (via
#: :func:`_resolve_encoder`) for each dataclass the simulation encodes.
_DISPATCH: Dict[type, Any] = {}


def _enc_none(value: Any, out: bytearray) -> None:
    out += b"N"


def _enc_bool(value: Any, out: bytearray) -> None:
    out += b"T" if value else b"F"


def _enc_int(value: Any, out: bytearray) -> None:
    data = str(value).encode()
    out += _PACK_HEAD(b"i", len(data))
    out += data


def _enc_float(value: Any, out: bytearray) -> None:
    out += b"f" + _PACK_D(value)


def _enc_str(value: Any, out: bytearray) -> None:
    data = value.encode()
    out += _PACK_HEAD(b"s", len(data))
    out += data


def _enc_bytes(value: Any, out: bytearray) -> None:
    out += _PACK_HEAD(b"b", len(value))
    out += value


def _enc_seq(value: Any, out: bytearray) -> None:
    out += _PACK_HEAD(b"l", len(value))
    dispatch = _DISPATCH
    for item in value:
        enc = dispatch.get(item.__class__)
        if enc is None:
            enc = _resolve_encoder(item)
        enc(item, out)


def _enc_frozenset(value: Any, out: bytearray) -> None:
    items = sorted(encode(item) for item in value)
    out += b"S" + len(items).to_bytes(4, "big")
    for item in items:
        out += len(item).to_bytes(4, "big") + item


def _enc_dict(value: Any, out: bytearray) -> None:
    items = sorted((encode(k), v) for k, v in value.items())
    out += b"d" + len(items).to_bytes(4, "big")
    dispatch = _DISPATCH
    for key_bytes, item in items:
        out += len(key_bytes).to_bytes(4, "big") + key_bytes
        enc = dispatch.get(item.__class__)
        if enc is None:
            enc = _resolve_encoder(item)
        enc(item, out)


def _enc_unsupported(value: Any, out: bytearray) -> None:
    raise EncodingError(f"cannot canonically encode {type(value).__name__}")


_DISPATCH.update(
    {
        type(None): _enc_none,
        bool: _enc_bool,
        int: _enc_int,
        float: _enc_float,
        str: _enc_str,
        bytes: _enc_bytes,
        tuple: _enc_seq,
        list: _enc_seq,
        frozenset: _enc_frozenset,
        dict: _enc_dict,
    }
)


#: body of a generated encoder for one field held in ``item``: ``str``
#: and ``int`` — most fields of most messages — are written in place
#: behind an exact-class test, anything else goes through ``_DISPATCH``
_FIELD_SOURCE = """\
    kind = item.__class__
    if kind is str:
        data = item.encode()
        out += _PACK_HEAD(b"s", len(data))
        out += data
    elif kind is int:
        data = str(item).encode()
        out += _PACK_HEAD(b"i", len(data))
        out += data
    else:
        (_DISPATCH.get(kind) or _resolve_encoder(item))(item, out)
"""


def _compile_dataclass_encoder(cls: type) -> Any:
    """Generate the encoder of one dataclass as straight-line source.

    The class header and the encoded field *names* are constants per
    class, so they are rendered into the source as bytes literals; per
    instance only the field values are walked, one unrolled block per
    field. The byte layout is identical to encoding ``(class name, field
    dict)`` value by value, except for the fields the class names in
    ``encoded_by_digest``, which are written as ``_DIGEST_TAG`` plus the
    child's digest. The source is compiled under this file's name, so a
    profile charges the generated code to this module.
    """
    name = cls.__name__.encode()
    field_names = [f.name for f in dataclasses.fields(cls)]
    by_digest = getattr(cls, "encoded_by_digest", ())
    # what has been rendered but not yet emitted: the header, then each
    # field's name, joined into one literal per ``out +=``
    literal = bytearray(b"D" + len(name).to_bytes(2, "big") + name)
    literal += len(field_names).to_bytes(4, "big")
    function_name = f"_enc_{cls.__name__}"
    lines = [
        f"def {function_name}(value, out):",
        # a nested dataclass that already carries its encoding (a signed
        # summary inside a proposal matrix, say) appends those bytes
        # instead of having its fields walked again
        f"    entry = getattr(value, {_ENTRY!r}, None)",
        "    if entry is not None and entry[0] is not None:",
        "        out += entry[0]",
        "        return",
    ]
    # a class many envelopes carry (``keeps_nested_encoding``) is walked
    # by the first of them and keeps that byte range for the others
    keeps = getattr(cls, "keeps_nested_encoding", False)
    if keeps:
        lines.append("    start = len(out)")
    for field_name in field_names:
        _enc_str(field_name, literal)
        if field_name in by_digest:
            lines.append(f"    out += {bytes(literal + _DIGEST_TAG)!r}")
            lines.append(f"    out += digest_bytes(value.{field_name})")
        else:
            lines.append(f"    out += {bytes(literal)!r}")
            lines.append(f"    item = value.{field_name}")
            lines.append(_FIELD_SOURCE)
        literal.clear()
    if literal:  # a dataclass without fields is its header
        lines.append(f"    out += {bytes(literal)!r}")
    if keeps:
        lines.append("    _entry_for(value, False)[0] = bytes(out[start:])")
    namespace: Dict[str, Any] = {}
    exec(compile("\n".join(lines), __file__, "exec"), globals(), namespace)
    return namespace[function_name]


def _resolve_encoder(value: Any) -> Any:
    """Pick (and cache) the encoder for a class missing from _DISPATCH.

    Mirrors the original isinstance ladder — subclasses of the builtin
    value types encode like their base type, dataclasses are checked
    last, everything else is an error. The choice depends only on the
    class, so it is cached for subsequent instances.
    """
    cls = value.__class__
    if isinstance(value, bool):
        enc = _enc_bool
    elif isinstance(value, int):
        enc = _enc_int
    elif isinstance(value, float):
        enc = _enc_float
    elif isinstance(value, str):
        enc = _enc_str
    elif isinstance(value, bytes):
        enc = _enc_bytes
    elif isinstance(value, (tuple, list)):
        enc = _enc_seq
    elif isinstance(value, frozenset):
        enc = _enc_frozenset
    elif isinstance(value, dict):
        enc = _enc_dict
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        enc = _compile_dataclass_encoder(cls)
    else:
        enc = _enc_unsupported
    _DISPATCH[cls] = enc
    return enc


def encode(value: Any) -> bytes:
    """Return the canonical byte encoding of ``value``."""
    out = bytearray()
    (_DISPATCH.get(value.__class__) or _resolve_encoder(value))(value, out)
    return bytes(out)


#: the one attribute a message object carries for this module: its entry,
#: ``[encoding, raw digest, hex digest, derived tags, derived value]``,
#: each ``None`` until first asked for (the tags belong to ``FastCrypto``,
#: the value to :func:`derived`). The entry is the whole
#: authentication state of that object — everything that signs, MACs or
#: Merkle-hashes it reads the encoding or the digest from here — and it
#: lives and dies with the object. That is safe because messages are
#: immutable once built: ``dataclasses.replace`` and every constructor
#: yield an object without an entry, which is encoded afresh.
_ENTRY = "_enc"


def _entry_for(value: Any, encoded: bool = True) -> list:
    """The entry ``value`` carries, made (and left on it) on first use,
    with its encoding filled in unless ``encoded`` is false.

    A value that cannot hold an attribute (tuple, str, bytes, dict) gets
    a fresh entry per call, pinned nowhere.
    """
    entry = getattr(value, _ENTRY, None)
    if entry is None:
        entry = [None, None, None, None, None]
        try:
            object.__setattr__(value, _ENTRY, entry)
        except AttributeError:
            pass
    if encoded and entry[0] is None:
        entry[0] = encode(value)
    return entry


def encode_cached(value: Any) -> bytes:
    """Like :func:`encode`, kept on ``value`` after the first call."""
    return _entry_for(value)[0]


def derived(value: Any, derive: Callable[[Any], Any]) -> Any:
    """``derive(value)``, worked out once per message object.

    For what a protocol derives from a message that every holder of the
    object would otherwise rebuild — the digest replicas vote on, the
    body a client signed. A class has one such derivation; the result is
    kept in the entry, so it follows the same rule as the encoding: a
    copy or a replaced message carries nothing and is derived afresh.
    """
    entry = _entry_for(value, encoded=False)
    kept = entry[4]
    if kept is None:
        entry[4] = kept = derive(value)
    return kept


def digest_bytes(value: Any) -> bytes:
    """Raw 32-byte SHA-256 digest of the canonical encoding of ``value``.

    Kept on the message beside its encoding, so a message object is
    encoded and hashed exactly once however many links MAC it; a
    different object (a tampered copy, say) is encoded afresh.
    """
    entry = _entry_for(value)
    raw = entry[1]
    if raw is None:
        entry[1] = raw = _sha256(entry[0]).digest()
    return raw


def digest(value: Any) -> str:
    """Hex SHA-256 digest of the canonical encoding of ``value``.

    The hex form of :func:`digest_bytes`, kept with it, so the ~86
    digest/verify call sites across Prime, PBFT, Spines and the proxies
    hash any given message object exactly once.
    """
    entry = _entry_for(value)
    hexdigest = entry[2]
    if hexdigest is None:
        raw = entry[1]
        if raw is None:
            entry[1] = raw = _sha256(entry[0]).digest()
        entry[2] = hexdigest = raw.hex()
    return hexdigest
