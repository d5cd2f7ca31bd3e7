"""CRC-16 checksums for control-path data-integrity verification.

Orthrus attaches a 16-bit cyclic redundancy check to every data-object
version (stored in the version header, §3.4).  The CRC is computed when a
version is created and verified the first time the object is loaded after
crossing the control/data-path boundary.  A 16-bit code suffices because it
is used purely for *detection* — never for recovery.

The CRC is CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF, check value
0x29B1), computed in C by the standard library's ``binascii.crc_hqx``.  The
canonical serialization covers the Python values user data can hold, so
that logically equal payloads always produce equal CRCs; it dispatches on
the exact type of each value, and only subclasses, dicts, pointers and
``@user_data`` objects take the slower attribute-probing path.
"""

from __future__ import annotations

import struct
from binascii import crc_hqx

_INIT = 0xFFFF
_pack_len = struct.Struct("<I").pack
_pack_double = struct.Struct("<d").pack


def crc16(data: bytes) -> int:
    """CRC-16/CCITT-FALSE of ``data``."""
    return crc_hqx(data, _INIT)


def serialize(value) -> bytes:
    """Canonical byte representation of a user-data payload.

    Handles the payload shapes the example applications use: ``None``,
    bool, int, float, str, bytes, and (possibly nested) tuples, lists and
    dicts of those.  Type tags keep distinct types from colliding (so the
    int ``1`` and the float ``1.0`` checksum differently).
    """
    out = bytearray()
    _serialize_into(value, out)
    return bytes(out)


def _serialize_into(value, out: bytearray) -> None:
    writer = _WRITERS.get(type(value))
    if writer is not None:
        writer(value, out)
    else:
        _serialize_other(value, out)


def _write_none(value, out: bytearray) -> None:
    out += b"N"


def _write_bool(value, out: bytearray) -> None:
    out += b"B1" if value else b"B0"


def _write_int(value, out: bytearray) -> None:
    length = (value.bit_length() + 8) // 8 + 1
    out += b"I"
    out += _pack_len(length)
    out += value.to_bytes(length, "little", signed=True)


def _write_float(value, out: bytearray) -> None:
    out += b"F"
    out += _pack_double(value)


def _write_str(value, out: bytearray) -> None:
    raw = value.encode("utf-8")
    out += b"S"
    out += _pack_len(len(raw))
    out += raw


def _write_bytes(value, out: bytearray) -> None:
    out += b"Y"
    out += _pack_len(len(value))
    out += value


def _write_items(value, out: bytearray) -> None:
    writers = _WRITERS
    for item in value:
        writer = writers.get(type(item))
        if writer is not None:
            writer(item, out)
        else:
            _serialize_other(item, out)


def _write_tuple(value, out: bytearray) -> None:
    out += b"T"
    out += _pack_len(len(value))
    _write_items(value, out)


def _write_list(value, out: bytearray) -> None:
    out += b"L"
    out += _pack_len(len(value))
    _write_items(value, out)


#: exact type -> writer.  Subclasses are absent on purpose: an ``IntEnum``
#: or a ``NamedTuple`` takes the ``isinstance`` path below, which is what
#: decides their encoding.
_WRITERS = {
    type(None): _write_none,
    bool: _write_bool,
    int: _write_int,
    float: _write_float,
    str: _write_str,
    bytes: _write_bytes,
    tuple: _write_tuple,
    list: _write_list,
}


#: the builtin bases of the dispatched types, plus dict; anything that is
#: not an instance of one of them can only be a pointer or user data
_PLAIN_BASES = (int, float, str, bytes, tuple, list, dict)


def _serialize_other(value, out: bytearray) -> None:
    """Encode a value whose exact type has no entry in :data:`_WRITERS`.

    A subclass encodes as its builtin base, ahead of any pointer or
    payload hook it carries.  (``bool`` cannot be subclassed, so exact
    dispatch already covers every bool.)
    """
    if not isinstance(value, _PLAIN_BASES):
        if getattr(value, "__orthrus_ptr__", False):
            # An Orthrus pointer embedded in a payload (a versioned
            # container referencing another user-data object): serialized
            # by object id.
            out += b"P"
            out += value.obj_id.to_bytes(8, "little", signed=True)
        elif hasattr(value, "__orthrus_payload__"):
            # User-data classes expose their payload for checksumming.
            out += b"O"
            _serialize_into(value.__orthrus_payload__(), out)
        else:
            raise TypeError(
                f"cannot checksum value of type {type(value).__name__}; "
                "user-data payloads must be plain values or @user_data classes"
            )
    elif isinstance(value, int):
        _write_int(value, out)
    elif isinstance(value, float):
        _write_float(value, out)
    elif isinstance(value, str):
        _write_str(value, out)
    elif isinstance(value, bytes):
        _write_bytes(value, out)
    elif isinstance(value, tuple):
        _write_tuple(value, out)
    elif isinstance(value, list):
        _write_list(value, out)
    else:
        out += b"D"
        out += _pack_len(len(value))
        for key in sorted(value, key=repr):
            _serialize_into(key, out)
            _serialize_into(value[key], out)


def checksum_of(value) -> int:
    """CRC-16 of the canonical serialization of ``value``."""
    return crc16(serialize(value))


def deserialize(data: bytes):
    """Invert :func:`serialize`.

    Used by the control-path network model: payloads travel as canonical
    bytes, may be corrupted in transit by a faulty byte-move instruction,
    and are materialized back into values on the receiver.  Corrupted
    buffers either decode to a *wrong value* (a silent corruption the CRC
    catches at the data-path boundary) or raise ``ValueError`` (a fail-stop
    the classifier counts separately).
    """
    value, offset = _deserialize_from(data, 0)
    if offset != len(data):
        raise ValueError(f"{len(data) - offset} trailing bytes after payload")
    return value


def _take(data: bytes, offset: int, count: int) -> bytes:
    if offset + count > len(data):
        raise ValueError("truncated payload")
    return data[offset : offset + count]


def _deserialize_from(data: bytes, offset: int):
    tag = _take(data, offset, 1)
    offset += 1
    if tag == b"N":
        return None, offset
    if tag == b"B":
        flag = _take(data, offset, 1)
        offset += 1
        if flag not in (b"0", b"1"):
            raise ValueError("bad bool flag")
        return flag == b"1", offset
    if tag == b"I":
        length = int.from_bytes(_take(data, offset, 4), "little")
        offset += 4
        if length > 1 << 20:
            raise ValueError("absurd int length")
        raw = _take(data, offset, length)
        return int.from_bytes(raw, "little", signed=True), offset + length
    if tag == b"F":
        raw = _take(data, offset, 8)
        return struct.unpack("<d", raw)[0], offset + 8
    if tag in (b"S", b"Y"):
        length = int.from_bytes(_take(data, offset, 4), "little")
        offset += 4
        if length > 1 << 24:
            raise ValueError("absurd string length")
        raw = _take(data, offset, length)
        if tag == b"Y":
            return raw, offset + length
        return raw.decode("utf-8"), offset + length
    if tag in (b"T", b"L"):
        length = int.from_bytes(_take(data, offset, 4), "little")
        offset += 4
        if length > 1 << 20:
            raise ValueError("absurd sequence length")
        items = []
        for _ in range(length):
            item, offset = _deserialize_from(data, offset)
            items.append(item)
        return (tuple(items) if tag == b"T" else items), offset
    if tag == b"D":
        length = int.from_bytes(_take(data, offset, 4), "little")
        offset += 4
        if length > 1 << 20:
            raise ValueError("absurd dict length")
        out = {}
        for _ in range(length):
            key, offset = _deserialize_from(data, offset)
            value, offset = _deserialize_from(data, offset)
            out[key] = value
        return out, offset
    raise ValueError(f"unknown payload tag {tag!r}")
