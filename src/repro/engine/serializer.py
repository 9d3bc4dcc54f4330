"""A self-contained binary serializer for object state.

Persistent objects are dictionaries mapping field names to values.  The
encoding is a compact tag-length format (no pickle — the store's
on-disk format must be independent of Python's object machinery):

========  =======================================================
tag       payload
========  =======================================================
``N``     none
``T/F``   true / false
``i``     zigzag varint integer
``f``     8-byte IEEE-754 double
``s``     varint length + UTF-8 bytes
``b``     varint length + raw bytes
``l``     varint count + elements (lists and tuples both decode
          to lists)
``d``     varint count + alternating key/value elements
========  =======================================================

Field names are encoded as strings inside the top-level dict.  The
format round-trips everything the engine stores: node attributes, OID
lists, (OID, offset, offset) link triples, text bodies and packed
bitmap bytes.

Decoding is *zero-copy friendly*: :func:`decode_view` accepts any
bytes-like buffer (``bytes``, ``bytearray``, ``memoryview``) and only
materialises owned objects for the values themselves — a record can be
decoded straight out of a pinned page frame without an intermediate
``bytes`` copy.  The decoder drives an explicit work stack instead of
recursing, so nesting depth is bounded by memory, not by the
interpreter's recursion limit, and the per-value call overhead of the
old recursive decoder is gone.
"""

from __future__ import annotations

from typing import Any, List, Tuple

from repro.errors import StorageError

_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"i"
_TAG_FLOAT = b"f"
_TAG_STR = b"s"
_TAG_BYTES = b"b"
_TAG_LIST = b"l"
_TAG_DICT = b"d"

# Integer tag values for the decoder (indexing a bytes-like buffer
# yields ints; comparing ints avoids a one-byte slice per value).
_T_NONE = _TAG_NONE[0]
_T_TRUE = _TAG_TRUE[0]
_T_FALSE = _TAG_FALSE[0]
_T_INT = _TAG_INT[0]
_T_FLOAT = _TAG_FLOAT[0]
_T_STR = _TAG_STR[0]
_T_BYTES = _TAG_BYTES[0]
_T_LIST = _TAG_LIST[0]
_T_DICT = _TAG_DICT[0]

import struct as _struct

_DOUBLE = _struct.Struct("<d")

#: Sentinel for "dict frame is waiting for a key" (``None`` is a
#: legitimate decoded key, so a private object is required).
_MISSING = object()

_KIND_LIST = 0
_KIND_DICT = 1


def _write_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise StorageError("varint must be non-negative")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_varint(data: Any, pos: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise StorageError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 70:
            raise StorageError("varint too long")


def _zigzag(value: int) -> int:
    return (value << 1) ^ (value >> 63) if -(1 << 63) <= value < (1 << 63) else _overflow(value)


def _overflow(value: int) -> int:
    raise StorageError(f"integer {value} outside 64-bit range")


def _unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


def _encode_value(out: bytearray, value: Any) -> None:
    if value is None:
        out += _TAG_NONE
    elif value is True:
        out += _TAG_TRUE
    elif value is False:
        out += _TAG_FALSE
    elif isinstance(value, int):
        out += _TAG_INT
        _write_varint(out, _zigzag(value))
    elif isinstance(value, float):
        out += _TAG_FLOAT
        out += _DOUBLE.pack(value)
    elif isinstance(value, str):
        encoded = value.encode("utf-8")
        out += _TAG_STR
        _write_varint(out, len(encoded))
        out += encoded
    elif isinstance(value, (bytes, bytearray)):
        out += _TAG_BYTES
        _write_varint(out, len(value))
        out += bytes(value)
    elif isinstance(value, (list, tuple)):
        out += _TAG_LIST
        _write_varint(out, len(value))
        for item in value:
            _encode_value(out, item)
    elif isinstance(value, dict):
        out += _TAG_DICT
        _write_varint(out, len(value))
        for key, item in value.items():
            _encode_value(out, key)
            _encode_value(out, item)
    else:
        raise StorageError(f"unserializable value of type {type(value).__name__}")


def _decode_value(data: Any, pos: int) -> Tuple[Any, int]:
    """Decode one value starting at ``pos``; returns ``(value, end)``.

    Iterative: containers push a frame onto an explicit work stack
    instead of recursing, so the hot path pays one loop iteration per
    value rather than a Python call, and pathologically nested input
    cannot blow the interpreter's recursion limit.  ``data`` may be any
    bytes-like buffer; only the decoded values themselves own memory.
    """
    n = len(data)
    # A frame is [kind, container, remaining, pending_key].
    stack: List[List[Any]] = []
    while True:
        if pos >= n:
            raise StorageError("truncated value")
        tag = data[pos]
        pos += 1
        if tag == _T_INT:
            raw, pos = _read_varint(data, pos)
            value: Any = _unzigzag(raw)
        elif tag == _T_STR:
            length, pos = _read_varint(data, pos)
            end = pos + length
            if end > n:
                raise StorageError("truncated string")
            value = str(data[pos:end], "utf-8")
            pos = end
        elif tag == _T_LIST:
            count, pos = _read_varint(data, pos)
            if count:
                stack.append([_KIND_LIST, [], count, _MISSING])
                continue
            value = []
        elif tag == _T_DICT:
            count, pos = _read_varint(data, pos)
            if count:
                stack.append([_KIND_DICT, {}, count, _MISSING])
                continue
            value = {}
        elif tag == _T_NONE:
            value = None
        elif tag == _T_TRUE:
            value = True
        elif tag == _T_FALSE:
            value = False
        elif tag == _T_FLOAT:
            if pos + 8 > n:
                raise StorageError("truncated float")
            value = _DOUBLE.unpack_from(data, pos)[0]
            pos += 8
        elif tag == _T_BYTES:
            length, pos = _read_varint(data, pos)
            end = pos + length
            if end > n:
                raise StorageError("truncated bytes")
            value = bytes(data[pos:end])
            pos = end
        else:
            raise StorageError(
                f"unknown serializer tag {bytes(data[pos - 1 : pos])!r}"
            )
        # Fold the completed value into the enclosing containers; a
        # container that becomes full is itself a completed value.
        while stack:
            frame = stack[-1]
            if frame[0] == _KIND_LIST:
                frame[1].append(value)
                frame[2] -= 1
                if frame[2]:
                    break
            else:
                if frame[3] is _MISSING:
                    frame[3] = value
                    break
                frame[1][frame[3]] = value
                frame[3] = _MISSING
                frame[2] -= 1
                if frame[2]:
                    break
            value = frame[1]
            stack.pop()
        else:
            return value, pos


def encode(value: Any) -> bytes:
    """Serialize any supported value to bytes."""
    out = bytearray()
    _encode_value(out, value)
    return bytes(out)


def encoded_size(value: Any) -> int:
    """Exactly ``len(encode(value))``, without building the bytes.

    Every value costs its tag byte; all but ``None``, the booleans and
    floats then carry one varint — the zigzagged integer itself, or the
    length/count of a string, bytes, list or dict — followed by the
    payload or the elements.  The type tests are :func:`_encode_value`'s
    (only ``bool`` overlaps another branch, and it is split off inside
    the ``int`` one), tried most-frequent first.

    Raises:
        StorageError: for a value :func:`encode` rejects — an
            unserializable type or an integer outside 64 bits.
    """
    size = 0
    pending = [value]
    while pending:
        value = pending.pop()
        if isinstance(value, int):
            if value is True or value is False:
                size += 1
                continue
            varint = _zigzag(value)
        elif isinstance(value, str):
            varint = (
                len(value) if value.isascii() else len(value.encode("utf-8"))
            )
            size += varint
        elif isinstance(value, (list, tuple)):
            varint = len(value)
            pending += value
        elif value is None:
            size += 1
            continue
        elif isinstance(value, float):
            size += 9
            continue
        elif isinstance(value, (bytes, bytearray)):
            varint = len(value)
            size += varint
        elif isinstance(value, dict):
            varint = len(value)
            pending += value
            pending += value.values()
        else:
            raise StorageError(
                f"unserializable value of type {type(value).__name__}"
            )
        size += 1 + ((varint.bit_length() + 6) // 7 or 1)
    return size


def decode(data: bytes) -> Any:
    """Deserialize bytes produced by :func:`encode`.

    Raises:
        StorageError: on truncation, unknown tags or trailing garbage.
    """
    return decode_view(data)


def decode_view(data: Any) -> Any:
    """Deserialize any bytes-like buffer produced by :func:`encode`.

    Unlike :func:`decode`'s historical contract this accepts
    ``memoryview`` (e.g. a slice of a pinned page frame) and
    ``bytearray`` directly, decoding in place without first copying the
    buffer.  The caller must keep the underlying buffer alive and
    unmodified for the duration of the call only — every decoded value
    owns its memory.

    Raises:
        StorageError: on truncation, unknown tags or trailing garbage.
    """
    value, pos = _decode_value(data, 0)
    if pos != len(data):
        raise StorageError(f"{len(data) - pos} trailing bytes after value")
    return value
