"""``repro.wire``: the compact binary wire/cache format (v3).

Two layers, both pure stdlib:

:mod:`~repro.wire.codec`
    A msgpack-style binary codec for the JSON-compatible values the
    service protocol and result cache already exchange (``None``,
    bools, ints, floats, strings, bytes, lists, string-keyed dicts).
    Homogeneous float sequences — ``rank_times``, the per-rank
    ``category_times``/``phase_times`` maps that dominate every
    :class:`~repro.core.execution.JobResult` payload — are packed as
    contiguous IEEE-754 double arrays in a single :func:`struct.pack`
    call, which is where the >2x encode+decode win over JSON comes
    from.  Decoding reproduces exactly what a JSON round-trip of the
    same value would (doubles are bit-exact; JSON has no int/float
    distinction a wire payload relies on).

:mod:`~repro.wire.frames`
    Length-prefixed framing for protocol v3 connections and schema-3
    cache entries: a struct-packed header (magic, version, flags,
    payload length) followed by a codec payload.  Large messages
    stream as *chunked* continuation frames (the ``MORE`` flag bit)
    so a sweep-sized batch response never has to be buffered as one
    giant buffer, and readers reject truncated frames, wrong magic, and
    unknown versions with :class:`~repro.errors.ProtocolError`.

Nothing here changes *what* is said on the wire or stored in the
cache — only how it is spelled.  sha256 checksums and cache content
addresses are computed over the canonical JSON form of a value, never
over its binary spelling.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".codec": ("decode", "decode_value", "encode", "encode_value"),
    ".frames": (
        "FRAME_MAGIC", "FRAME_VERSION", "MAX_PAYLOAD_BYTES", "CHUNK_BYTES",
        "read_frame_message", "write_frame_message", "pack_frames",
        "unpack_frames",
    ),
})
