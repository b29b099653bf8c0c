"""Length-prefixed binary frames: protocol v3 and schema-3 cache files.

Frame layout (all integers big-endian)::

    0      1      2      3      4               8
    +------+------+------+------+---------------+=============+
    | 'R'  | 'W'  | ver  | flags|  payload_len  |   payload   |
    +------+------+------+------+---------------+=============+
      magic (2B)    u8     u8        u32          payload_len B

``ver`` is :data:`FRAME_VERSION` (3).  ``flags`` bit 0 (``MORE``)
marks a *chunk*: the logical message continues in the next frame, and
a reader concatenates payloads until it sees a frame with ``MORE``
clear.  Writers split any message larger than :data:`CHUNK_BYTES`
this way, so a sweep-sized batch response streams as bounded frames
instead of one giant buffer — receivers can start pulling bytes off
the socket while the sender is still encoding nothing (the payload is
encoded once; only the *framing* is incremental).

The assembled payload is one :mod:`repro.wire.codec` value.  Readers
reject wrong magic, unknown versions, oversized payloads, and
truncated frames with :class:`~repro.errors.ProtocolError`, the typed
error the server answers malformed requests with.

The magic is also what the server reads a connection's framing from:
a first byte other than ``{`` starts the frame loop, while ``{`` marks
a protocol-2 NDJSON peer, which is refused (:mod:`repro.service.transport`).

Schema-3 cache entries, the only cache format, reuse the exact same
layout: a cache file is one logical framed message whose payload is
the entry dict.
"""

from __future__ import annotations

import struct
from typing import Any, List, Optional, Tuple

from ..errors import ProtocolError
from . import codec

__all__ = ["CHUNK_BYTES", "FRAME_MAGIC", "FRAME_VERSION",
           "HEADER_BYTES", "MAX_PAYLOAD_BYTES", "pack_frames",
           "read_frame_message", "unpack_frames", "write_frame_message"]

FRAME_MAGIC = b"RW"
FRAME_VERSION = 3
#: flags bit 0: this frame is a chunk, the message continues
FLAG_MORE = 0x01
#: writers split payloads larger than this into continuation frames
CHUNK_BYTES = 1 << 16
#: readers refuse assembled messages larger than this (memory bomb)
MAX_PAYLOAD_BYTES = 1 << 26

HEADER_BYTES = 8
_HEADER = struct.Struct(">2sBBI")


def pack_frames(message: Any,
                chunk_bytes: int = CHUNK_BYTES) -> bytes:
    """Encode ``message`` as one or more frames (chunked when large)."""
    payload = codec.encode(message)
    if len(payload) <= chunk_bytes:
        return _HEADER.pack(FRAME_MAGIC, FRAME_VERSION, 0,
                            len(payload)) + payload
    parts: List[bytes] = []
    total = len(payload)
    for start in range(0, total, chunk_bytes):
        piece = payload[start:start + chunk_bytes]
        flags = FLAG_MORE if start + chunk_bytes < total else 0
        parts.append(_HEADER.pack(FRAME_MAGIC, FRAME_VERSION, flags,
                                  len(piece)))
        parts.append(piece)
    return b"".join(parts)


def _parse_header(header: bytes) -> Tuple[int, int]:
    """Validate one frame header; return ``(flags, payload_len)``."""
    magic, version, flags, length = _HEADER.unpack(header)
    if magic != FRAME_MAGIC:
        raise ProtocolError(
            f"bad frame magic {magic!r} (expected {FRAME_MAGIC!r})")
    if version != FRAME_VERSION:
        raise ProtocolError(
            f"unsupported wire frame version {version} "
            f"(this peer speaks {FRAME_VERSION})")
    if length > MAX_PAYLOAD_BYTES:
        raise ProtocolError(
            f"frame payload of {length} bytes exceeds the "
            f"{MAX_PAYLOAD_BYTES}-byte limit")
    return flags, length


def unpack_frames(buffer: bytes, offset: int = 0) -> Tuple[Any, int]:
    """Parse one logical message from ``buffer`` at ``offset``.

    Returns ``(message, next_offset)``; raises
    :class:`~repro.errors.ProtocolError` on malformed or truncated
    input (a schema-3 cache file is read through this).
    """
    chunks: List[bytes] = []
    assembled = 0
    while True:
        header = buffer[offset:offset + HEADER_BYTES]
        if len(header) < HEADER_BYTES:
            raise ProtocolError(
                f"truncated frame header at offset {offset}: "
                f"{len(header)} of {HEADER_BYTES} bytes")
        flags, length = _parse_header(header)
        offset += HEADER_BYTES
        payload = buffer[offset:offset + length]
        if len(payload) < length:
            raise ProtocolError(
                f"truncated frame payload at offset {offset}: "
                f"{len(payload)} of {length} bytes")
        offset += length
        chunks.append(payload)
        assembled += length
        if assembled > MAX_PAYLOAD_BYTES:
            raise ProtocolError(
                f"chunked message exceeds the {MAX_PAYLOAD_BYTES}-byte "
                f"limit")
        if not flags & FLAG_MORE:
            break
    data = chunks[0] if len(chunks) == 1 else b"".join(chunks)
    return codec.decode(data), offset


def write_frame_message(stream, message: Any,
                        chunk_bytes: int = CHUNK_BYTES) -> int:
    """Write one framed message to a socket or binary file object.

    Returns the number of bytes written.
    """
    data = pack_frames(message, chunk_bytes=chunk_bytes)
    sendall = getattr(stream, "sendall", None)
    if sendall is not None:
        sendall(data)
    else:
        stream.write(data)
        flush = getattr(stream, "flush", None)
        if flush is not None:
            flush()
    return len(data)


def _read_exact(reader, count: int) -> bytes:
    """Read exactly ``count`` bytes from a binary file object."""
    data = reader.read(count)
    if data is None:
        data = b""
    while len(data) < count:
        more = reader.read(count - len(data))
        if not more:
            break
        data += more
    return data


def read_frame_message(reader) -> Optional[Any]:
    """Read one logical message from a binary file object.

    Returns ``None`` on a clean EOF at a message boundary; raises
    :class:`~repro.errors.ProtocolError` on mid-frame EOF, bad magic,
    unknown version, or oversized payloads.
    """
    chunks: List[bytes] = []
    assembled = 0
    while True:
        header = _read_exact(reader, HEADER_BYTES)
        if not header and not chunks:
            return None
        if len(header) < HEADER_BYTES:
            raise ProtocolError(
                f"truncated frame header: {len(header)} of "
                f"{HEADER_BYTES} bytes")
        flags, length = _parse_header(header)
        payload = _read_exact(reader, length)
        if len(payload) < length:
            raise ProtocolError(
                f"truncated frame payload: {len(payload)} of "
                f"{length} bytes")
        chunks.append(payload)
        assembled += length
        if assembled > MAX_PAYLOAD_BYTES:
            raise ProtocolError(
                f"chunked message exceeds the {MAX_PAYLOAD_BYTES}-byte "
                f"limit")
        if not flags & FLAG_MORE:
            break
    data = chunks[0] if len(chunks) == 1 else b"".join(chunks)
    return codec.decode(data)
