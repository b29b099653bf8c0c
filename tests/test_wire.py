"""The binary wire layer: codec, frames, and schema-3 cache entries.

Protocol v3 and cache schema 3 share one invariant: a binary round
trip must be observationally identical to a JSON round trip — same
values, same checksums, same cache keys.  These tests
pin that equivalence for every wire shape the service speaks, plus
the rejection paths (truncated frames, wrong magic, unknown tags).
"""

import io
import json
import math
import struct

import pytest

from repro.core.cache import (
    CACHE_STORE_SCHEMA,
    ResultCache,
    parse_entry,
    result_checksum,
)
from repro.core.parallel import JobRequest, run_request
from repro.errors import ProtocolError
from repro.machine import tiger
from repro.service.protocol import cell_from_wire, handle_request
from repro.service.session import Session
from repro.wire import codec, frames


# -- representative values ---------------------------------------------------

JSON_VALUES = [
    None,
    True,
    False,
    0,
    255,
    -1,
    2**40,
    -(2**70),          # exceeds int64: bigint spelling
    2**100,
    0.0,
    -0.0,
    math.pi,
    1e-300,
    5e-324,            # smallest subnormal double
    1.7976931348623157e308,
    "",
    "stream",
    "ünïcode ✓",
    "x" * 300,         # long-string spelling (> 255 utf-8 bytes)
    [],
    [1, "two", 3.0, None, True],
    [[1.5, 2.5], [3.5]],
    [0.25, 0.5, 0.75],                      # FLOATS fast path
    {"a": 1.5, "b": 2.5},                   # FLOATMAP fast path
    [{"io": 1.0, "mpi": 2.0}, {"io": 3.0, "mpi": 4.0}],  # FMATRIX
    {},
    {"nested": {"list": [1, 2], "flag": False}, "n": None},
]


@pytest.mark.parametrize("value", JSON_VALUES,
                         ids=[repr(v)[:40] for v in JSON_VALUES])
def test_codec_round_trip_matches_json_round_trip(value):
    decoded = codec.decode(codec.encode(value))
    assert decoded == json.loads(json.dumps(value))
    # and types survive exactly (json would keep them too, but be sure
    # the fast paths do not coerce)
    assert type(decoded) is type(json.loads(json.dumps(value)))


def test_codec_preserves_float_bits_exactly():
    for value in (0.1, -0.0, 5e-324, 1.7976931348623157e308,
                  1 / 3, math.pi):
        decoded = codec.decode(codec.encode(value))
        assert struct.pack(">d", decoded) == struct.pack(">d", value)
    # -0.0 keeps its sign bit, which shortest-repr JSON also does —
    # but here it is guaranteed by construction
    assert math.copysign(1.0, codec.decode(codec.encode(-0.0))) == -1.0


def test_codec_round_trips_bytes():
    payload = b"\x00\xffRW{json-looking"
    assert codec.decode(codec.encode(payload)) == payload


def test_codec_rejects_truncation_at_every_boundary():
    blob = codec.encode({"rank_times": [1.0, 2.0, 3.0],
                         "name": "stream", "n": 16})
    for cut in range(len(blob)):
        with pytest.raises(ProtocolError):
            codec.decode(blob[:cut])


def test_codec_rejects_trailing_garbage_and_unknown_tags():
    with pytest.raises(ProtocolError):
        codec.decode(codec.encode(1) + b"\x00")
    with pytest.raises(ProtocolError):
        codec.decode(b"\xc1")  # unassigned tag byte
    with pytest.raises(ProtocolError):
        codec.decode(b"")


def test_codec_rejects_unencodable_objects():
    with pytest.raises(TypeError):
        codec.encode(object())
    with pytest.raises(TypeError):
        codec.encode({1: "non-string key"})


# -- frames ------------------------------------------------------------------

def test_frame_round_trip_single_and_chunked():
    message = {"op": "batch", "results": [{"rank_times": [0.1] * 100}]}
    blob = frames.pack_frames(message)
    value, offset = frames.unpack_frames(blob)
    assert value == message and offset == len(blob)

    # force chunking with a tiny chunk size: several MORE frames
    chunked = frames.pack_frames(message, chunk_bytes=16)
    assert len(chunked) > len(blob)  # extra headers
    assert chunked[:2] == frames.FRAME_MAGIC
    value, offset = frames.unpack_frames(chunked)
    assert value == message and offset == len(chunked)


def test_frame_stream_read_write_and_clean_eof():
    stream = io.BytesIO()
    frames.write_frame_message(stream, {"op": "ping"})
    frames.write_frame_message(stream, {"op": "stats"}, chunk_bytes=4)
    stream.seek(0)
    assert frames.read_frame_message(stream) == {"op": "ping"}
    assert frames.read_frame_message(stream) == {"op": "stats"}
    assert frames.read_frame_message(stream) is None  # clean EOF


def test_frame_rejects_wrong_magic_version_and_truncation():
    good = frames.pack_frames({"op": "ping"})
    with pytest.raises(ProtocolError, match="magic"):
        frames.unpack_frames(b"XX" + good[2:])
    with pytest.raises(ProtocolError, match="version"):
        frames.unpack_frames(good[:2] + b"\x09" + good[3:])
    for cut in range(1, len(good)):
        with pytest.raises(ProtocolError, match="truncated"):
            frames.unpack_frames(good[:cut])
    # mid-frame EOF on a stream is an error, not a silent None
    with pytest.raises(ProtocolError, match="truncated"):
        frames.read_frame_message(io.BytesIO(good[:-1]))


def test_frame_rejects_oversized_payload_claim():
    header = struct.pack(">2sBBI", frames.FRAME_MAGIC,
                         frames.FRAME_VERSION, 0,
                         frames.MAX_PAYLOAD_BYTES + 1)
    with pytest.raises(ProtocolError, match="limit"):
        frames.unpack_frames(header + b"x")


# -- every wire shape the service speaks -------------------------------------

def _quick_result(tmp_path):
    from repro.bench.chaos import _QuickWorkload
    cache = ResultCache(directory=tmp_path)
    request = JobRequest(spec=tiger(), workload=_QuickWorkload())
    return run_request(request, cache=cache)


def test_service_wire_shapes_survive_binary_identically(tmp_path):
    result = _quick_result(tmp_path / "c")
    session = Session(name="wire-test",
                      cache=ResultCache(directory=tmp_path / "s"))
    try:
        shapes = [
            handle_request(session, {"op": "ping"}),
            handle_request(session, {"op": "stats"}),
            handle_request(session, {"op": "nonsense"}),  # protocol_error
            {"status": "ok", "op": "submit", "source": "executed",
             "result": result.to_dict()},
            {"status": "infeasible", "error": "does not fit",
             "code": "infeasible_scheme"},
            {"status": "failed", "error": "worker crashed",
             "code": "job_failed", "kind": "crash"},
        ]
    finally:
        session.close()
    for shape in shapes:
        via_json = json.loads(json.dumps(shape))
        via_binary = codec.decode(codec.encode(shape))
        assert via_binary == via_json, shape
        framed, _ = frames.unpack_frames(frames.pack_frames(shape))
        assert framed == via_json


def test_wire_cell_round_trips_through_cell_from_wire():
    cell = {"system": "tiger", "workload": "stream", "ntasks": 4,
            "scheme": "interleave", "tier": "exact"}
    request = cell_from_wire(codec.decode(codec.encode(cell)))
    assert request.to_job().key() == cell_from_wire(cell).to_job().key()


# -- schema-3 cache entries ---------------------------------------------------

def test_schema2_json_entry_is_quarantined_recomputed_and_fixed(tmp_path):
    """A schema-2 JSON file at a key's path is a corrupt entry."""
    from repro.bench.chaos import _QuickWorkload
    from repro.telemetry.doctor import check_cache_dir

    request = JobRequest(spec=tiger(), workload=_QuickWorkload())
    original = run_request(request,
                           cache=ResultCache(directory=tmp_path / "fresh"))
    result_data = original.to_dict()
    legacy = {"schema": 2, "check": result_checksum(result_data),
              "result": result_data}
    cache = ResultCache(directory=tmp_path / "cache")
    path = cache._path(request.key())
    path.parent.mkdir(parents=True)

    # doctor --fix moves it aside
    path.write_text(json.dumps(legacy))
    report = check_cache_dir(tmp_path / "cache", fix=True)
    assert report["entries"] == 1 and len(report["corrupt"]) == 1
    assert not path.exists()
    assert path.with_suffix(".json.corrupt").exists()

    # a read quarantines it and the cell recomputes into schema 3
    path.write_text(json.dumps(legacy))
    recomputed = run_request(request, cache=cache)
    assert cache.stats.corrupt == 1 and cache.stats.disk_hits == 0
    assert recomputed.to_dict() == result_data
    entry = parse_entry(path.read_bytes())
    assert entry["schema"] == CACHE_STORE_SCHEMA
    assert entry["check"] == result_checksum(result_data)


def test_parse_entry_rejects_malformed_input():
    with pytest.raises(ValueError):
        parse_entry(b"RWgarbage-after-magic")
    with pytest.raises(ValueError):
        parse_entry(b"{not json")
    with pytest.raises(ValueError):
        parse_entry(frames.pack_frames(["not", "a", "dict"]))
