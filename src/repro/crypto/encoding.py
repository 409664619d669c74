"""Canonical byte encoding for signable protocol objects.

Digital signatures and MACs need a deterministic byte representation of
protocol messages. Rather than pulling in a serialization framework, this
module defines a small canonical encoding over the value types protocol
messages are built from: ints, floats, strings, bytes, bools, None,
tuples/lists, dicts (sorted by key), frozensets (sorted), and dataclasses
(encoded as ``(class name, field dict)``).

The encoding is injective on the supported domain, which is what
unforgeability arguments need: two distinct messages never encode to the
same bytes.

:func:`encode_cached`, :func:`digest_bytes` and :func:`digest` keep what
they derive on the message object itself (see ``_ENTRY``), so it lives
exactly as long as the message does; this module holds no per-message
table.
"""

from __future__ import annotations

import dataclasses
import struct
from hashlib import sha256 as _sha256
from typing import Any, Dict

__all__ = [
    "encode",
    "encode_cached",
    "digest",
    "digest_bytes",
    "EncodingError",
]

class EncodingError(TypeError):
    """Raised when a value outside the supported domain is encoded."""


_PACK_D = struct.Struct(">d").pack
_PACK_STR_HEAD = struct.Struct(">cI").pack

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
    out += b"i" + len(data).to_bytes(4, "big") + data


def _enc_float(value: Any, out: bytearray) -> None:
    out += b"f" + _PACK_D(value)


def _enc_str(value: Any, out: bytearray) -> None:
    data = value.encode()
    out += _PACK_STR_HEAD(b"s", len(data))
    out += data


def _enc_bytes(value: Any, out: bytearray) -> None:
    out += b"b" + len(value).to_bytes(4, "big") + value


def _enc_seq(value: Any, out: bytearray) -> None:
    out += b"l" + len(value).to_bytes(4, "big")
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


def _compile_dataclass_encoder(cls: type) -> Any:
    """Build an encoder closure for one dataclass.

    The class header and the encoded field *names* are constants per
    class, so they are rendered to bytes once here; per instance only the
    field values are walked. The byte layout is identical to encoding
    ``(class name, field dict)`` value by value.
    """
    name = cls.__name__.encode()
    field_names = tuple(f.name for f in dataclasses.fields(cls))
    header = bytearray()
    header += b"D" + len(name).to_bytes(2, "big") + name
    header += len(field_names).to_bytes(4, "big")
    header = bytes(header)
    fields = []
    for field_name in field_names:
        prefix = bytearray()
        _enc_str(field_name, prefix)
        fields.append((bytes(prefix), field_name))
    fields = tuple(fields)

    def enc(value: Any, out: bytearray) -> None:
        # a nested dataclass that already carries its encoding (a signed
        # payload inside its envelope, say) appends those bytes instead
        # of having its fields walked again
        entry = getattr(value, _ENTRY, None)
        if entry is not None:
            out += entry[0]
            return
        out += header
        dispatch = _DISPATCH
        for name_bytes, field_name in fields:
            out += name_bytes
            item = getattr(value, field_name)
            item_enc = dispatch.get(item.__class__)
            if item_enc is None:
                item_enc = _resolve_encoder(item)
            item_enc(item, out)

    return enc


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


def _encode_into(value: Any, out: bytearray) -> None:
    enc = _DISPATCH.get(value.__class__)
    if enc is None:
        enc = _resolve_encoder(value)
    enc(value, out)


def encode(value: Any) -> bytes:
    """Return the canonical byte encoding of ``value``."""
    out = bytearray()
    _encode_into(value, out)
    return bytes(out)


#: the one attribute a message object carries for this module: its entry,
#: ``[encoding, raw digest | None, hex digest | None, derived tags | None]``
#: (all but the encoding lazy; the tags belong to ``FastCrypto``). The
#: entry is the whole authentication state of that object — everything
#: that signs, MACs or Merkle-hashes it reads the encoding or the digest
#: from here — and it lives and dies with the object. That is safe because
#: messages are immutable once built: ``dataclasses.replace`` and every
#: constructor yield an object without an entry, which is encoded afresh.
_ENTRY = "_enc"


def _entry_for(value: Any) -> list:
    """The entry ``value`` carries, made (and left on it) on first use.

    A value that cannot hold an attribute (tuple, str, bytes, dict) gets
    a fresh entry per call, pinned nowhere.
    """
    entry = getattr(value, _ENTRY, None)
    if entry is None:
        entry = [encode(value), None, None, None]
        try:
            object.__setattr__(value, _ENTRY, entry)
        except AttributeError:
            pass
    return entry


def encode_cached(value: Any) -> bytes:
    """Like :func:`encode`, kept on ``value`` after the first call."""
    return _entry_for(value)[0]


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
