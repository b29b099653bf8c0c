"""Binary value codec: msgpack-style tags, float-array fast paths.

The codec speaks exactly the JSON value universe that protocol
messages and cache entries use — ``None``, bools, ints, floats,
strings, lists, and string-keyed dicts (plus ``bytes``, which JSON
cannot spell and the framing layer needs).  Decoding a codec payload
yields the same Python values a ``json.loads(json.dumps(value))``
round trip would, with floats preserved bit-for-bit as IEEE-754
doubles instead of going through shortest-repr text.

Three container specializations carry the throughput win on result
payloads (this is where the >=2x encode+decode advantage over the C
``json`` module comes from — JSON has to print and re-parse every
double and re-scan every repeated key):

``FLOATS``
    A homogeneous ``List[float]`` (``rank_times``) is one length word
    plus one contiguous ``struct.pack('>Nd', ...)`` block.

``FLOATMAP``
    A ``Dict[str, float]`` stores its keys back-to-back followed by
    one packed double block.

``FMATRIX``
    A ``List[Dict[str, float]]`` whose rows share one key tuple — the
    exact shape of ``category_times``/``phase_times``, one dict per
    rank — stores the keys *once* and all rows as a single row-major
    double block, collapsing hundreds of per-element dispatches per
    :class:`~repro.core.execution.JobResult` into two struct calls.

Repeated key strings are interned through small bounded caches in
both directions, so a sweep-sized batch pays the utf-8 cost per
distinct key, not per occurrence.  Malformed input raises
:class:`~repro.errors.ProtocolError`; unencodable Python objects
raise :class:`TypeError` (same contract as ``json.dumps``).
"""

from __future__ import annotations

import struct
from itertools import chain
from typing import Any, Dict, List, Tuple

from ..errors import ProtocolError

__all__ = ["decode", "decode_value", "encode", "encode_value"]

# one tag byte per value; deliberately NOT a valid leading byte of a
# JSON document, so a cache file's first byte identifies its format
_T_NONE = 0xC0
_T_FALSE = 0xC2
_T_TRUE = 0xC3
_T_U8 = 0xCC        # unsigned int 0..255: tag + one byte
_T_INT64 = 0xD3
_T_BIGINT = 0xD9
_T_FLOAT64 = 0xCB
_T_SSTR = 0xDA      # short string: tag + u8 length + utf-8
_T_STR = 0xDB       # long string: tag + u32 length + utf-8
_T_BYTES = 0xC4
_T_LIST = 0xDD
_T_MAP = 0xDF
_T_FLOATS = 0xD7
_T_FLOATMAP = 0xD8
_T_FMATRIX = 0xD6

_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
_TAG_F64 = struct.Struct(">Bd")
_TAG_I64 = struct.Struct(">Bq")
_TAG_U32 = struct.Struct(">BI")
_TWO_U32 = struct.Struct(">II")

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

#: bounded interning caches for repeated key/short strings; cleared
#: wholesale when they fill so hostile inputs cannot grow them
_CACHE_LIMIT = 8192
_ENC_STRS: Dict[str, bytes] = {}
_ENC_KEYS: Dict[str, bytes] = {}
_DEC_KEYS: Dict[bytes, str] = {}

#: compiled ``>Nd`` double-block structs keyed by count — building the
#: format string and hitting struct's own cache costs more than the
#: unpack itself for sweep-sized blocks
_F64_BLOCKS: Dict[int, struct.Struct] = {}


def _f64_block(count: int) -> struct.Struct:
    block = _F64_BLOCKS.get(count)
    if block is None:
        block = struct.Struct(">%dd" % count)
        if len(_F64_BLOCKS) >= _CACHE_LIMIT:
            _F64_BLOCKS.clear()
        _F64_BLOCKS[count] = block
    return block


def _packed_str(text: str) -> bytes:
    """The full tagged encoding of a string, interned when short."""
    packed = _ENC_STRS.get(text)
    if packed is None:
        raw = text.encode("utf-8")
        if len(raw) < 256:
            packed = bytes((_T_SSTR, len(raw))) + raw
        else:
            packed = _TAG_U32.pack(_T_STR, len(raw)) + raw
        if len(text) <= 64:
            if len(_ENC_STRS) >= _CACHE_LIMIT:
                _ENC_STRS.clear()
            _ENC_STRS[text] = packed
    return packed


def _packed_key(text: str) -> bytes:
    """Tagless ``u32 length + utf-8`` (FLOATMAP/FMATRIX key blocks)."""
    packed = _ENC_KEYS.get(text)
    if packed is None:
        raw = text.encode("utf-8")
        packed = _U32.pack(len(raw)) + raw
        if len(text) <= 64:
            if len(_ENC_KEYS) >= _CACHE_LIMIT:
                _ENC_KEYS.clear()
            _ENC_KEYS[text] = packed
    return packed


def _interned(raw: bytes) -> str:
    text = _DEC_KEYS.get(raw)
    if text is None:
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"malformed wire string: {exc}") from None
        if len(_DEC_KEYS) >= _CACHE_LIMIT:
            _DEC_KEYS.clear()
        _DEC_KEYS[raw] = text
    return text


def _matrix_keys(value: list) -> Tuple[str, ...]:
    """The shared key tuple of a ``FMATRIX``-shaped list, or ``()``."""
    first = value[0]
    if type(first) is not dict or not first:
        return ()
    keys = tuple(first)
    for row in value:
        if type(row) is not dict or tuple(row) != keys:
            return ()
        for item in row.values():
            if type(item) is not float:
                return ()
    for key in keys:
        if type(key) is not str:
            return ()
    return keys


def encode_value(value: Any, out: bytearray) -> None:
    """Append the encoding of ``value`` to ``out`` (recursive)."""
    kind = type(value)
    if kind is float:
        out += _TAG_F64.pack(_T_FLOAT64, value)
    elif kind is str:
        out += _packed_str(value)
    elif kind is bool:
        out.append(_T_TRUE if value else _T_FALSE)
    elif kind is int:
        if 0 <= value <= 255:
            out.append(_T_U8)
            out.append(value)
        elif _INT64_MIN <= value <= _INT64_MAX:
            out += _TAG_I64.pack(_T_INT64, value)
        else:
            raw = value.to_bytes((value.bit_length() + 8) // 8,
                                 "big", signed=True)
            out += _TAG_U32.pack(_T_BIGINT, len(raw))
            out += raw
    elif value is None:
        out.append(_T_NONE)
    elif kind is list or kind is tuple:
        count = len(value)
        if count:
            if all(type(item) is float for item in value):
                out += _TAG_U32.pack(_T_FLOATS, count)
                out += _f64_block(count).pack(*value)
                return
            keys = _matrix_keys(value)
            if keys:
                out.append(_T_FMATRIX)
                out += _TWO_U32.pack(count, len(keys))
                for key in keys:
                    out += _packed_key(key)
                out += _f64_block(count * len(keys)).pack(
                    *chain.from_iterable(row.values() for row in value))
                return
        out += _TAG_U32.pack(_T_LIST, count)
        for item in value:
            encode_value(item, out)
    elif kind is dict:
        count = len(value)
        if count and all(type(v) is float for v in value.values()) \
                and all(type(k) is str for k in value):
            out += _TAG_U32.pack(_T_FLOATMAP, count)
            for key in value:
                out += _packed_key(key)
            out += _f64_block(count).pack(*value.values())
            return
        out += _TAG_U32.pack(_T_MAP, count)
        # inline the scalar cases: like the decoder's map loop, this
        # removes one Python call per entry on the dominant shapes
        for key, item in value.items():
            if type(key) is not str:
                raise TypeError(
                    f"wire maps need str keys, got {type(key).__name__}")
            out += _packed_str(key)
            inner = type(item)
            if inner is float:
                out += _TAG_F64.pack(_T_FLOAT64, item)
            elif inner is str:
                out += _packed_str(item)
            elif inner is bool:
                out.append(_T_TRUE if item else _T_FALSE)
            elif inner is int:
                if 0 <= item <= 255:
                    out.append(_T_U8)
                    out.append(item)
                elif _INT64_MIN <= item <= _INT64_MAX:
                    out += _TAG_I64.pack(_T_INT64, item)
                else:
                    encode_value(item, out)
            elif item is None:
                out.append(_T_NONE)
            else:
                encode_value(item, out)
    elif kind is bytes or kind is bytearray:
        out += _TAG_U32.pack(_T_BYTES, len(value))
        out += value
    else:
        raise TypeError(
            f"object of type {type(value).__name__} is not wire-encodable")


def encode(value: Any) -> bytes:
    """Encode one value as a self-contained codec payload."""
    out = bytearray()
    encode_value(value, out)
    return bytes(out)


def _short(offset: int, needed: int, have: int) -> ProtocolError:
    return ProtocolError(
        f"truncated wire payload: need {needed} byte(s) at offset "
        f"{offset}, have {max(0, have - offset)}")


def decode_value(buffer: bytes, offset: int = 0) -> Tuple[Any, int]:
    """Decode one value at ``offset``; return ``(value, next_offset)``."""
    size = len(buffer)
    if offset >= size:
        raise _short(offset, 1, size)
    tag = buffer[offset]
    offset += 1
    if tag == _T_FLOAT64:
        if offset + 8 > size:
            raise _short(offset, 8, size)
        return _F64.unpack_from(buffer, offset)[0], offset + 8
    if tag == _T_SSTR:
        if offset >= size:
            raise _short(offset, 1, size)
        end = offset + 1 + buffer[offset]
        if end > size:
            raise _short(offset + 1, buffer[offset], size)
        return _interned(buffer[offset + 1:end]), end
    if tag == _T_STR:
        if offset + 4 > size:
            raise _short(offset, 4, size)
        length = _U32.unpack_from(buffer, offset)[0]
        offset += 4
        end = offset + length
        if end > size:
            raise _short(offset, length, size)
        return _interned(buffer[offset:end]), end
    if tag == _T_U8:
        if offset >= size:
            raise _short(offset, 1, size)
        return buffer[offset], offset + 1
    if tag == _T_INT64:
        if offset + 8 > size:
            raise _short(offset, 8, size)
        return _I64.unpack_from(buffer, offset)[0], offset + 8
    if tag == _T_FLOATS:
        if offset + 4 > size:
            raise _short(offset, 4, size)
        count = _U32.unpack_from(buffer, offset)[0]
        offset += 4
        end = offset + 8 * count
        if end > size:
            raise _short(offset, 8 * count, size)
        return list(_f64_block(count).unpack_from(buffer, offset)), end
    if tag == _T_FLOATMAP or tag == _T_FMATRIX:
        if tag == _T_FMATRIX:
            if offset + 8 > size:
                raise _short(offset, 8, size)
            rows, cols = _TWO_U32.unpack_from(buffer, offset)
            offset += 8
        else:
            if offset + 4 > size:
                raise _short(offset, 4, size)
            rows, cols = 1, _U32.unpack_from(buffer, offset)[0]
            offset += 4
        keys: List[str] = []
        known = _DEC_KEYS
        for _ in range(cols):
            if offset + 4 > size:
                raise _short(offset, 4, size)
            length = _U32.unpack_from(buffer, offset)[0]
            offset += 4
            end = offset + length
            if end > size:
                raise _short(offset, length, size)
            raw = buffer[offset:end]
            key = known.get(raw)
            keys.append(key if key is not None else _interned(raw))
            offset = end
        total = rows * cols
        end = offset + 8 * total
        if end > size:
            raise _short(offset, 8 * total, size)
        values = _f64_block(total).unpack_from(buffer, offset)
        if tag == _T_FLOATMAP:
            return dict(zip(keys, values)), end
        # dict displays beat dict(zip()) ~3x per row; 1- and 2-column
        # matrices (phase_times, category_times) are the hot shapes
        if cols == 1:
            key = keys[0]
            return [{key: item} for item in values], end
        if cols == 2:
            first, second = keys
            stream = iter(values)
            return [{first: left, second: right}
                    for left, right in zip(stream, stream)], end
        # zip() exhausts ``keys`` per row, consuming exactly ``cols``
        # doubles from the shared iterator — no tuple slicing
        stream = iter(values)
        return [dict(zip(keys, stream)) for _ in range(rows)], end
    if tag == _T_MAP:
        # keys and scalar values are read inline: per-element recursion
        # is the decoder's only real cost, and map values are mostly
        # scalars, so this collapses most of the call tree
        if offset + 4 > size:
            raise _short(offset, 4, size)
        count = _U32.unpack_from(buffer, offset)[0]
        offset += 4
        unpack_f64, unpack_i64 = _F64.unpack_from, _I64.unpack_from
        t_sstr, t_f64, t_u8, t_i64 = _T_SSTR, _T_FLOAT64, _T_U8, _T_INT64
        t_none, t_true, t_false = _T_NONE, _T_TRUE, _T_FALSE
        known = _DEC_KEYS
        mapping: Dict[str, Any] = {}
        for _ in range(count):
            if offset >= size:
                raise _short(offset, 1, size)
            if buffer[offset] != t_sstr:
                key, offset = decode_value(buffer, offset)
                if type(key) is not str:
                    raise ProtocolError("wire map key is not a string")
            else:
                if offset + 1 >= size:
                    raise _short(offset + 1, 1, size)
                end = offset + 2 + buffer[offset + 1]
                if end > size:
                    raise _short(offset + 2, buffer[offset + 1], size)
                raw = buffer[offset + 2:end]
                key = known.get(raw)
                if key is None:
                    key = _interned(raw)
                offset = end
            if offset >= size:
                raise _short(offset, 1, size)
            inner = buffer[offset]
            if inner == t_f64:
                if offset + 9 > size:
                    raise _short(offset + 1, 8, size)
                mapping[key] = unpack_f64(buffer, offset + 1)[0]
                offset += 9
            elif inner == t_sstr:
                if offset + 1 >= size:
                    raise _short(offset + 1, 1, size)
                end = offset + 2 + buffer[offset + 1]
                if end > size:
                    raise _short(offset + 2, buffer[offset + 1], size)
                raw = buffer[offset + 2:end]
                item = known.get(raw)
                if item is None:
                    item = _interned(raw)
                mapping[key] = item
                offset = end
            elif inner == t_u8:
                if offset + 2 > size:
                    raise _short(offset + 1, 1, size)
                mapping[key] = buffer[offset + 1]
                offset += 2
            elif inner == t_i64:
                if offset + 9 > size:
                    raise _short(offset + 1, 8, size)
                mapping[key] = unpack_i64(buffer, offset + 1)[0]
                offset += 9
            elif inner == t_none:
                mapping[key] = None
                offset += 1
            elif inner == t_true:
                mapping[key] = True
                offset += 1
            elif inner == t_false:
                mapping[key] = False
                offset += 1
            else:
                mapping[key], offset = decode_value(buffer, offset)
        return mapping, offset
    if tag == _T_LIST:
        if offset + 4 > size:
            raise _short(offset, 4, size)
        count = _U32.unpack_from(buffer, offset)[0]
        offset += 4
        items: List[Any] = []
        push = items.append
        for _ in range(count):
            item, offset = decode_value(buffer, offset)
            push(item)
        return items, offset
    if tag == _T_NONE:
        return None, offset
    if tag == _T_TRUE:
        return True, offset
    if tag == _T_FALSE:
        return False, offset
    if tag == _T_BIGINT or tag == _T_BYTES:
        if offset + 4 > size:
            raise _short(offset, 4, size)
        length = _U32.unpack_from(buffer, offset)[0]
        offset += 4
        end = offset + length
        if end > size:
            raise _short(offset, length, size)
        raw = buffer[offset:end]
        if tag == _T_BYTES:
            return bytes(raw), end
        return int.from_bytes(raw, "big", signed=True), end
    raise ProtocolError(f"unknown wire tag 0x{tag:02x} at offset "
                        f"{offset - 1}")


def decode(data) -> Any:
    """Decode one complete codec payload (rejects trailing bytes)."""
    if isinstance(data, (memoryview, bytearray)):
        data = bytes(data)
    value, offset = decode_value(data, 0)
    if offset != len(data):
        raise ProtocolError(
            f"{len(data) - offset} trailing byte(s) after wire value")
    return value
