"""Reference-equality tests for the per-request memory hot path.

The table-loop CRC, the ``isinstance``-chain serializer and the recursive
``approx_size`` below are the algorithms :mod:`repro.memory` used before it
moved to ``binascii.crc_hqx`` and exact-type dispatch.  They live only here,
as oracles: the production functions must agree with them on every input,
including subclasses, pointers, ``@user_data`` objects and the
unsupported-type ``TypeError``.
"""

from __future__ import annotations

import enum
import struct
import sys
from dataclasses import dataclass
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.closures.annotation import user_data
from repro.memory.checksum import crc16, serialize
from repro.memory.heap import VersionedHeap
from repro.memory.pointer import OrthrusPtr
from repro.memory.version import approx_size


# ----------------------------------------------------------------------
# oracles: the pre-dispatch algorithms
# ----------------------------------------------------------------------
def _reference_table() -> list[int]:
    table = []
    for byte in range(256):
        crc = byte << 8
        for _ in range(8):
            if crc & 0x8000:
                crc = ((crc << 1) ^ 0x1021) & 0xFFFF
            else:
                crc = (crc << 1) & 0xFFFF
        table.append(crc)
    return table


_TABLE = _reference_table()


def reference_crc16(data: bytes) -> int:
    crc = 0xFFFF
    for byte in data:
        crc = ((crc << 8) & 0xFFFF) ^ _TABLE[((crc >> 8) ^ byte) & 0xFF]
    return crc


def reference_serialize(value) -> bytes:
    out = bytearray()
    _reference_serialize_into(value, out)
    return bytes(out)


def _reference_serialize_into(value, out: bytearray) -> None:
    if value is None:
        out += b"N"
    elif isinstance(value, bool):
        out += b"B1" if value else b"B0"
    elif isinstance(value, int):
        out += b"I"
        raw = value.to_bytes((value.bit_length() + 8) // 8 + 1, "little", signed=True)
        out += len(raw).to_bytes(4, "little")
        out += raw
    elif isinstance(value, float):
        out += b"F"
        out += struct.pack("<d", value)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out += b"S"
        out += len(raw).to_bytes(4, "little")
        out += raw
    elif isinstance(value, bytes):
        out += b"Y"
        out += len(value).to_bytes(4, "little")
        out += value
    elif isinstance(value, (tuple, list)):
        out += b"T" if isinstance(value, tuple) else b"L"
        out += len(value).to_bytes(4, "little")
        for item in value:
            _reference_serialize_into(item, out)
    elif isinstance(value, dict):
        out += b"D"
        out += len(value).to_bytes(4, "little")
        for key in sorted(value, key=repr):
            _reference_serialize_into(key, out)
            _reference_serialize_into(value[key], out)
    elif getattr(value, "__orthrus_ptr__", False):
        out += b"P"
        out += value.obj_id.to_bytes(8, "little", signed=True)
    elif hasattr(value, "__orthrus_payload__"):
        out += b"O"
        _reference_serialize_into(value.__orthrus_payload__(), out)
    else:
        raise TypeError(
            f"cannot checksum value of type {type(value).__name__}; "
            "user-data payloads must be plain values or @user_data classes"
        )


def reference_approx_size(value) -> int:
    if value is None or isinstance(value, bool):
        return 8
    if isinstance(value, int):
        return 8 + value.bit_length() // 8
    if isinstance(value, float):
        return 8
    if isinstance(value, (str, bytes)):
        return 16 + len(value)
    if getattr(value, "__orthrus_ptr__", False):
        return 8
    if isinstance(value, (tuple, list)):
        return 16 + sum(reference_approx_size(item) for item in value)
    if isinstance(value, dict):
        return 32 + sum(
            reference_approx_size(k) + reference_approx_size(v) for k, v in value.items()
        )
    if hasattr(value, "__orthrus_payload__"):
        return 16 + reference_approx_size(value.__orthrus_payload__())
    return sys.getsizeof(value)


# ----------------------------------------------------------------------
# payload shapes
# ----------------------------------------------------------------------
class Colour(enum.IntEnum):
    RED = 1
    GREEN = -2
    HUGE = 1 << 70


class Label(str):
    pass


class Pair(NamedTuple):
    key: object
    value: object


class MarkedTuple(tuple):
    """A container carrying the pointer marker: sized as one word, but
    serialized as a tuple."""

    __orthrus_ptr__ = True


@user_data
@dataclass
class RefProbeRecord:
    name: str
    count: int
    tags: tuple


_HEAP = VersionedHeap()

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(1 << 200), max_value=1 << 200)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([float("nan"), -0.0, 0.0, float("-inf")])
    | st.text(max_size=12)
    | st.binary(max_size=12)
    | st.sampled_from(list(Colour))
    | st.text(max_size=8).map(Label)
    | st.integers(min_value=-(1 << 40), max_value=1 << 40).map(
        lambda obj_id: OrthrusPtr(_HEAP, obj_id)
    )
)

payloads = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.tuples(children, children).map(lambda kv: Pair(*kv))
    | st.dictionaries(
        st.text(max_size=5) | st.integers(-50, 50), children, max_size=4
    )
    | st.builds(
        RefProbeRecord,
        st.text(max_size=6),
        st.integers(),
        st.lists(children, max_size=3).map(tuple),
    ),
    max_leaves=16,
)


# ----------------------------------------------------------------------
# CRC-16
# ----------------------------------------------------------------------
def test_crc16_check_value():
    assert crc16(b"123456789") == 0x29B1 == reference_crc16(b"123456789")


def test_crc16_empty_input_matches_reference():
    assert crc16(b"") == reference_crc16(b"") == 0xFFFF


@given(st.binary(max_size=512))
def test_crc16_matches_table_loop(data):
    assert crc16(data) == reference_crc16(data)


# ----------------------------------------------------------------------
# serialize / approx_size
# ----------------------------------------------------------------------
@settings(max_examples=300)
@given(payloads)
def test_serialize_matches_isinstance_chain(value):
    assert serialize(value) == reference_serialize(value)


@settings(max_examples=300)
@given(payloads)
def test_approx_size_matches_recursive_reference(value):
    assert approx_size(value) == reference_approx_size(value)


@pytest.mark.parametrize(
    "value",
    [
        Colour.RED,
        Colour.HUGE,
        Label("label"),
        Pair(1, "x"),
        Pair(Colour.GREEN, [Label("y"), None]),
        OrthrusPtr(_HEAP, 7),
        OrthrusPtr(_HEAP, -3),
        MarkedTuple((1, "a")),
        RefProbeRecord("r", -9, (1.5, b"z", (None,))),
        {"b": [1, 2.0], 3: (True, False)},
        [float("nan"), -0.0, 1 << 90, -(1 << 90)],
    ],
    ids=repr,
)
def test_subclasses_pointers_and_user_data_are_exact(value):
    assert serialize(value) == reference_serialize(value)
    assert approx_size(value) == reference_approx_size(value)


@pytest.mark.parametrize("value", [object(), [1, object()], ({2: {3}},)], ids=repr)
def test_unsupported_type_still_raises_the_same_error(value):
    with pytest.raises(TypeError) as reference:
        reference_serialize(value)
    with pytest.raises(TypeError) as actual:
        serialize(value)
    assert str(actual.value) == str(reference.value)
    assert approx_size(value) == reference_approx_size(value)
