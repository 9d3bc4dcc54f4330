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
bitmap bytes.  Varints are little-endian base-128, at most ten bytes,
and never reach 2**64; the bytes are frozen by the golden vectors in
``tests/test_engine_serializer.py``.

**The kernel.**  Both directions spend their time per element, so the
common shapes skip the per-value Python call:

* :func:`_encode_value` dispatches on the exact type (``dict``,
  ``list``/``tuple``, ``int``, ``str``) and writes a container's
  ``int`` elements, and a dict's ``str`` keys, inline — a varint below
  2**14 is appended byte by byte.  Everything else (``bool``, ``None``,
  ``float``, bytes, subclasses such as an ``IntEnum``, refusals) takes
  the general path, so ``True`` never encodes as an ``int``.
* :func:`_decode_value` is iterative: the open container lives in
  locals and fills itself in a tight loop (one for lists, one for
  dicts), reading one- and two-byte varints inline; only a nested
  container pushes its parent onto an explicit stack.  Nesting depth is
  bounded by memory, not by the interpreter's recursion limit.

:func:`decode_view` accepts any bytes-like buffer (``bytes``,
``bytearray``, ``memoryview``, e.g. a slice of a page frame); a view is
copied to ``bytes`` once per record, and every decoded value owns its
memory.

**Errors.**  Every failure is a :class:`~repro.errors.StorageError`:
``encode``/``encoded_size`` refuse an unserializable type, an integer
outside 64 bits and a string that is not UTF-8-encodable (a lone
surrogate); ``decode``/``decode_view`` refuse truncation, an unknown
tag, an over-long or over-wide varint, invalid UTF-8, a list or dict
used as a dict key, and trailing bytes.  Whatever they return,
``encode`` accepts.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

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

#: The first byte of every encoded list.
LIST_TAG = _T_LIST

#: The tags that open a container on the decoder's stack.
_T_PUSH = (_T_LIST, _T_DICT)

#: ``encode`` and ``encoded_size`` refuse a lone surrogate alike.
_NOT_UTF8 = "string is not UTF-8-encodable"


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
    """Read the varint at ``pos``; returns ``(value, end)``.

    At most ten bytes, and the value must stay below 2**64: the widest
    varint :func:`encode` writes is a zigzagged 64-bit integer.
    Running off the buffer raises ``IndexError``, which
    :func:`_decode_value` reports as truncation.
    """
    result = 0
    for shift in range(0, 70, 7):
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if byte < 0x80:
            if result >> 64:
                raise StorageError("varint outside 64 bits")
            return result, pos
    raise StorageError("varint longer than 10 bytes")


def _zigzag(value: int) -> int:
    return (value << 1) ^ (value >> 63) if -(1 << 63) <= value < (1 << 63) else _overflow(value)


def _overflow(value: int) -> int:
    raise StorageError(f"integer {value} outside 64-bit range")


def _encode_value(out: bytearray, value: Any) -> None:
    """Append the encoding of ``value`` to ``out``.

    Exact ``int``, ``str``, ``list``, ``tuple`` and ``dict`` take the
    fast branches; a container writes its ``int`` elements, and a dict
    its ``str`` keys, inline (a varint below 2**14 is appended byte by
    byte).  Everything else — ``bool``, ``None``, ``float``, bytes,
    subclasses such as an ``IntEnum`` member, and every refusal — goes
    through :func:`_encode_other`, so ``True`` never encodes as an
    ``int``.
    """
    cls = type(value)
    if cls is dict:
        count = len(value)
        if count < 0x80:
            out.append(_T_DICT)
            out.append(count)
        else:
            out += _TAG_DICT
            _write_varint(out, count)
        for key, item in value.items():
            if type(key) is str:
                raw = key.encode("utf-8")
                size = len(raw)
                if size < 0x80:
                    out.append(_T_STR)
                    out.append(size)
                else:
                    out += _TAG_STR
                    _write_varint(out, size)
                out += raw
            else:
                _encode_value(out, key)
            if type(item) is int and -8192 <= item < 8192:
                item = (item << 1) ^ (item >> 63)
                out.append(_T_INT)
                if item < 0x80:
                    out.append(item)
                else:
                    out.append(item & 0x7F | 0x80)
                    out.append(item >> 7)
            else:
                _encode_value(out, item)
    elif cls is list or cls is tuple:
        count = len(value)
        if count < 0x80:
            out.append(_T_LIST)
            out.append(count)
        else:
            out += _TAG_LIST
            _write_varint(out, count)
        for item in value:
            if type(item) is int and -8192 <= item < 8192:
                item = (item << 1) ^ (item >> 63)
                out.append(_T_INT)
                if item < 0x80:
                    out.append(item)
                else:
                    out.append(item & 0x7F | 0x80)
                    out.append(item >> 7)
            else:
                _encode_value(out, item)
    elif cls is int:
        out += _TAG_INT
        _write_varint(out, _zigzag(value))
    elif cls is str:
        raw = value.encode("utf-8")
        out += _TAG_STR
        _write_varint(out, len(raw))
        out += raw
    else:
        _encode_other(out, value)


def _encode_other(out: bytearray, value: Any) -> None:
    """The general path: every value the exact-type branches skip."""
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


def _decode_scalar(data: bytes, pos: int, tag: int, n: int) -> Tuple[Any, int]:
    """Decode the non-container value whose tag byte ended at ``pos``."""
    if tag == _T_INT:
        raw, pos = _read_varint(data, pos)
        return (raw >> 1) ^ -(raw & 1), pos
    if tag == _T_STR:
        length, pos = _read_varint(data, pos)
        end = pos + length
        if end > n:
            raise StorageError("truncated string")
        return str(data[pos:end], "utf-8"), end
    if tag == _T_NONE:
        return None, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_FLOAT:
        if pos + 8 > n:
            raise StorageError("truncated float")
        return _DOUBLE.unpack_from(data, pos)[0], pos + 8
    if tag == _T_BYTES:
        length, pos = _read_varint(data, pos)
        end = pos + length
        if end > n:
            raise StorageError("truncated bytes")
        return data[pos:end], end
    raise StorageError(f"unknown serializer tag {bytes((tag,))!r}")


def _decode_value(
    data: Any, pos: int, stop: Optional[int] = None
) -> Tuple[Any, int]:
    """Decode one value starting at ``pos``; returns ``(value, end)``.

    The open container lives in locals (``container``, ``remaining``):
    a list fills itself in one tight loop and a dict in another, each
    decoding an ``int`` element — and a dict its ``str`` key — inline,
    with one- and two-byte varints read without a call.  Other scalars
    go through :func:`_decode_scalar`.  Only a non-empty nested
    container suspends its parent: ``(container, remaining, key)`` goes
    on ``stack`` and comes back when the child completes, so nesting
    depth is bounded by memory, not by the interpreter's recursion
    limit.

    With ``stop``, the value must be a list, and only its first
    ``stop`` elements are decoded: ``end`` is then where they end.

    A view is copied to ``bytes`` first (indexing ``bytes`` is cheaper
    than indexing a ``memoryview``).  Running off the end, invalid
    UTF-8 and a container used as a dict key raise
    :class:`StorageError`.
    """
    if type(data) is not bytes:
        data = bytes(data)
    n = len(data)
    try:
        tag = data[pos]
        pos += 1
        if stop is not None and tag != _T_LIST:
            raise StorageError("a prefix decode needs a list")
        if tag not in _T_PUSH:
            return _decode_scalar(data, pos, tag, n)
        remaining = data[pos]
        if remaining < 0x80:
            pos += 1
        else:
            remaining, pos = _read_varint(data, pos)
        if stop is not None and stop < remaining:
            remaining = stop
        container: Any = [] if tag == _T_LIST else {}
        stack: List[Tuple[Any, int, Any]] = []
        while True:
            if type(container) is list:
                append = container.append
                while remaining:
                    tag = data[pos]
                    if tag == _T_INT:
                        value = data[pos + 1]
                        if value < 0x80:
                            pos += 2
                        else:
                            high = data[pos + 2]
                            if high < 0x80:
                                value = value & 0x7F | high << 7
                                pos += 3
                            else:
                                value, pos = _read_varint(data, pos + 1)
                        append((value >> 1) ^ -(value & 1))
                    elif tag in _T_PUSH:
                        count = data[pos + 1]
                        if count < 0x80:
                            pos += 2
                        else:
                            count, pos = _read_varint(data, pos + 1)
                        remaining -= 1
                        if count:
                            stack.append((container, remaining, None))
                            container = [] if tag == _T_LIST else {}
                            remaining = count
                            break
                        append([] if tag == _T_LIST else {})
                        continue
                    else:
                        value, pos = _decode_scalar(data, pos + 1, tag, n)
                        append(value)
                    remaining -= 1
            else:
                while remaining:
                    tag = data[pos]
                    if tag == _T_STR:
                        end = data[pos + 1]
                        if end < 0x80:
                            pos += 2
                        else:
                            end, pos = _read_varint(data, pos + 1)
                        end += pos
                        if end > n:
                            raise StorageError("truncated string")
                        key = str(data[pos:end], "utf-8")
                        pos = end
                    elif tag in _T_PUSH:
                        raise StorageError("list or dict used as a dict key")
                    else:
                        key, pos = _decode_scalar(data, pos + 1, tag, n)
                    tag = data[pos]
                    if tag == _T_INT:
                        value = data[pos + 1]
                        if value < 0x80:
                            pos += 2
                        else:
                            high = data[pos + 2]
                            if high < 0x80:
                                value = value & 0x7F | high << 7
                                pos += 3
                            else:
                                value, pos = _read_varint(data, pos + 1)
                        container[key] = (value >> 1) ^ -(value & 1)
                    elif tag in _T_PUSH:
                        count = data[pos + 1]
                        if count < 0x80:
                            pos += 2
                        else:
                            count, pos = _read_varint(data, pos + 1)
                        remaining -= 1
                        if count:
                            stack.append((container, remaining, key))
                            container = [] if tag == _T_LIST else {}
                            remaining = count
                            break
                        container[key] = [] if tag == _T_LIST else {}
                        continue
                    else:
                        container[key], pos = _decode_scalar(data, pos + 1, tag, n)
                    remaining -= 1
            if remaining:
                continue  # a nested container was opened
            value = container
            if not stack:
                return value, pos
            container, remaining, key = stack.pop()
            if type(container) is list:
                container.append(value)
            else:
                container[key] = value
    except IndexError:
        raise StorageError("truncated value") from None
    except UnicodeDecodeError as exc:
        raise StorageError(f"invalid UTF-8 in string: {exc.reason}") from None


def encode(value: Any) -> bytes:
    """Serialize any supported value to bytes.

    Raises:
        StorageError: for an unserializable type, an integer outside
            64 bits or a string that is not UTF-8-encodable.
    """
    out = bytearray()
    try:
        _encode_value(out, value)
    except UnicodeEncodeError:
        raise StorageError(_NOT_UTF8) from None
    return bytes(out)


def encoded_size(value: Any) -> int:
    """Exactly ``len(encode(value))``, without building the bytes.

    Every value costs its tag byte; all but ``None``, the booleans and
    floats then carry one varint — the zigzagged integer itself, or the
    length/count of a string, bytes, list or dict — followed by the
    payload or the elements.  The type tests are :func:`_encode_other`'s
    (only ``bool`` overlaps another branch, and it is split off inside
    the ``int`` one), tried most-frequent first.

    Raises:
        StorageError: for a value :func:`encode` rejects — an
            unserializable type, an integer outside 64 bits or a string
            that is not UTF-8-encodable.
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
            if value.isascii():
                varint = len(value)
            else:
                try:
                    varint = len(value.encode("utf-8"))
                except UnicodeEncodeError:
                    raise StorageError(_NOT_UTF8) from None
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
        StorageError: on any malformed input (see the module docstring);
            no other exception escapes.
    """
    return decode_view(data)


def decode_view(data: Any, stop: Optional[int] = None) -> Any:
    """Deserialize any bytes-like buffer produced by :func:`encode`.

    Accepts ``memoryview`` (e.g. a slice of a pinned page frame) and
    ``bytearray`` as well as ``bytes``.  The caller must keep the
    underlying buffer alive and unmodified for the duration of the call
    only — every decoded value owns its memory.

    With ``stop``, ``data`` must encode a list, and only its first
    ``stop`` elements are decoded and returned (all of them when the
    list is shorter); the bytes after them are not looked at, so
    ``data`` may be a prefix of the encoding that holds those elements.

    Raises:
        StorageError: on any malformed input (see the module docstring);
            no other exception escapes.
    """
    value, pos = _decode_value(data, 0, stop)
    if stop is None and pos != len(data):
        raise StorageError(f"{len(data) - pos} trailing bytes after value")
    return value
