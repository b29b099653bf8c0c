"""Tests for the observability plane: metrics, tracing, exposition.

The load-bearing promises:

* The metrics helpers are free when no registry is enabled (the null
  path), and exact when one is: counters sum across label sets,
  histograms place observations in fixed buckets, snapshots from
  different processes merge bucket-wise, and quantiles interpolate
  inside the target bucket.
* ``{"op": "metrics"}`` is side-effect-free, answers in JSON and
  Prometheus text, and the router's cluster-wide scrape degrades to
  per-shard ``error`` entries — a dead or malformed shard never fails
  the scrape.
* A ``trace_id`` minted at the client survives the full path —
  router forward → shard protocol handler → session job → executor
  batch — with each hop's ``parent_span`` pointing at the hop above,
  and an untraced request records nothing.
* ``trace export`` reconstructs one request across every process's
  ledger record as Chrome trace JSON.
* The regress replay gate skips records with zero completed requests
  instead of gating against their meaningless p99 of 0.0.
"""

import json
import socket
import time

import pytest

from repro.core.cache import ResultCache
from repro.cluster import Router
from repro.service import Session
from repro.service.daemon import TcpServiceServer
from repro.service.protocol import cell_from_wire, handle_request
from repro.service.transport import TcpFrameServer, serve_in_thread
from repro.telemetry import ledger, metrics, tracecmd, tracing
from repro.telemetry.ledger import RunRecorder
from repro.telemetry.regress import evaluate

FAST_STREAM = {"workload": "stream", "system": "tiger", "ntasks": 2,
               "scheme": "default", "tier": "fast"}
FAST_CG = {"workload": "cg", "system": "tiger", "ntasks": 2,
           "scheme": "default", "tier": "fast"}


@pytest.fixture
def registry():
    """A fresh process-wide metrics registry, torn down afterwards."""
    reg = metrics.enable()
    try:
        yield reg
    finally:
        metrics.disable()


@pytest.fixture
def recorder():
    """An active ledger recorder capturing trace spans."""
    rec = RunRecorder(tool="test").start()
    try:
        yield rec
    finally:
        rec.stop()


@pytest.fixture
def session(tmp_path):
    with Session(cache=ResultCache(directory=tmp_path / "cache"),
                 jobs=1) as sess:
        yield sess


# -- metrics registry and null path -----------------------------------------


def test_disabled_helpers_are_noops_and_snapshot_is_empty():
    metrics.disable()
    metrics.inc("x_total")
    metrics.set_gauge("x_gauge", 7)
    metrics.observe("x_seconds", 0.2)
    assert metrics.active_registry() is None
    assert metrics.snapshot() == {"counters": {}, "gauges": {},
                                  "histograms": {}}


def test_enabled_helpers_record_with_labels(registry):
    metrics.inc("req_total", shard="s0")
    metrics.inc("req_total", 2, shard="s1")
    metrics.inc("req_total")
    metrics.set_gauge("depth", 3)
    snap = metrics.snapshot()
    assert snap["counters"]['req_total{shard="s0"}'] == 1
    assert snap["counters"]['req_total{shard="s1"}'] == 2
    assert metrics.counter_total(snap, "req_total") == 4
    assert metrics.gauge_value(snap, "depth") == 3
    assert metrics.gauge_value(snap, "absent") is None


def test_histogram_buckets_overflow_and_merge():
    hist = metrics.Histogram(bounds=(0.1, 1.0, 10.0))
    for value in (0.05, 0.5, 0.5, 5.0, 50.0):
        hist.observe(value)
    assert hist.counts == [1, 2, 1, 1]  # last slot is the overflow
    assert hist.total == 5
    assert hist.max == 50.0
    other = metrics.Histogram(bounds=(0.1, 1.0, 10.0))
    other.observe(0.2)
    hist.merge(other)
    assert hist.counts == [1, 3, 1, 1]
    assert hist.total == 6
    with pytest.raises(ValueError):
        hist.merge(metrics.Histogram(bounds=(1.0, 2.0)))


def test_histogram_quantile_interpolates_and_overflow_reports_max():
    entry = {"bounds": [0.1, 1.0], "counts": [0, 10, 0], "count": 10,
             "sum": 5.0, "max": 0.9}
    # all mass in (0.1, 1.0]: the median interpolates to the middle
    assert metrics.histogram_quantile(entry, 0.5) == pytest.approx(0.55)
    assert metrics.histogram_quantile(entry, 1.0) == pytest.approx(1.0)
    overflow = {"bounds": [0.1], "counts": [0, 4], "count": 4,
                "sum": 100.0, "max": 42.0}
    assert metrics.histogram_quantile(overflow, 0.99) == 42.0
    assert metrics.histogram_quantile({"bounds": [], "counts": [],
                                       "count": 0}, 0.5) is None


def test_merge_snapshots_sums_and_merges_bucketwise():
    a = {"counters": {"n_total": 2}, "gauges": {"g": 1},
         "histograms": {"h": {"bounds": [1.0], "counts": [1, 0],
                              "count": 1, "sum": 0.5, "max": 0.5}}}
    b = {"counters": {"n_total": 3}, "gauges": {"g": 2},
         "histograms": {"h": {"bounds": [1.0], "counts": [0, 2],
                              "count": 2, "sum": 6.0, "max": 4.0}}}
    merged = metrics.merge_snapshots([a, b])
    assert merged["counters"]["n_total"] == 5
    assert merged["gauges"]["g"] == 3
    assert merged["histograms"]["h"]["counts"] == [1, 2]
    assert merged["histograms"]["h"]["count"] == 3
    assert merged["histograms"]["h"]["max"] == 4.0
    # mismatched bounds fold count/sum only instead of corrupting buckets
    c = {"histograms": {"h": {"bounds": [9.0], "counts": [5, 0],
                              "count": 5, "sum": 1.0, "max": 0.2}}}
    folded = metrics.merge_snapshots([a, c])
    assert folded["histograms"]["h"]["counts"] == [1, 0]
    assert folded["histograms"]["h"]["count"] == 6


def test_prometheus_text_exposition(registry):
    metrics.inc("req_total", 3, shard="s0")
    metrics.set_gauge("depth", 2)
    metrics.observe("lat_seconds", 0.3, bounds=(0.1, 1.0))
    text = metrics.to_prometheus(metrics.snapshot())
    assert 'req_total{shard="s0"} 3\n' in text
    assert "depth 2\n" in text
    assert 'lat_seconds_bucket{le="0.1"} 0\n' in text
    assert 'lat_seconds_bucket{le="1"} 1\n' in text
    assert 'lat_seconds_bucket{le="+Inf"} 1\n' in text
    assert "lat_seconds_count 1\n" in text


# -- the metrics protocol op -------------------------------------------------


def test_metrics_op_json_and_text_forms(session, registry):
    handle_request(session, {"op": "submit", "cell": dict(FAST_STREAM)})
    reply = handle_request(session, {"op": "metrics"})
    assert reply["status"] == "ok"
    assert reply["enabled"] is True
    assert reply["session"] == session.name
    assert "text" not in reply
    snap = reply["metrics"]
    assert metrics.counter_total(snap, "service_submitted_total") >= 1
    assert metrics.counter_total(snap, "service_completed_total") >= 1
    text_reply = handle_request(session, {"op": "metrics",
                                          "format": "text"})
    assert "service_submitted_total" in text_reply["text"]


def test_metrics_op_is_side_effect_free(session, registry):
    before = handle_request(session, {"op": "metrics"})["metrics"]
    again = handle_request(session, {"op": "metrics"})["metrics"]
    assert before["counters"] == again["counters"]
    assert session.stats.as_dict() == session.stats.as_dict()


def test_metrics_op_without_registry_reports_disabled(session):
    metrics.disable()
    reply = handle_request(session, {"op": "metrics"})
    assert reply["status"] == "ok"
    assert reply["enabled"] is False
    assert reply["metrics"]["counters"] == {}


# -- router cluster scrape error paths ---------------------------------------


class FakeMetricsShard:
    """A shard answering the ops the router's scrape needs."""

    def __init__(self, name, metrics_reply):
        self.name = name
        self.metrics_reply = metrics_reply
        self.server = TcpFrameServer(("127.0.0.1", 0), self.handle)
        serve_in_thread(self.server, name)

    @property
    def address(self):
        return self.server.address

    def handle(self, message):
        op = message.get("op")
        if op == "metrics":
            return self.metrics_reply
        return {"status": "ok", "op": op, "session": self.name}

    def kill(self):
        self.server.shutdown()
        self.server.close()


def _dead_address():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    address = probe.getsockname()
    probe.close()
    return address


def test_router_metrics_scrape_degrades_per_shard(registry):
    good_snap = {"counters": {"service_completed_total": 7},
                 "gauges": {}, "histograms": {}}
    good = FakeMetricsShard("good", {"status": "ok", "op": "metrics",
                                     "metrics": good_snap})
    malformed = FakeMetricsShard("malformed", {"status": "ok",
                                               "op": "metrics"})
    router = Router([("good", good.address),
                     ("malformed", malformed.address),
                     ("dead", _dead_address())],
                    retries=0, backoff_s=0.01, request_timeout_s=5.0)
    try:
        metrics.inc("router_forwards_total", 2, shard="good")
        reply = router.handle_message({"op": "metrics", "format": "text"})
        assert reply["status"] == "ok"
        assert reply["router"] is True
        merged = reply["metrics"]
        # the good shard's counters merged with the router's own
        assert metrics.counter_total(
            merged, "service_completed_total") == 7
        assert metrics.counter_total(merged, "router_forwards_total") == 2
        assert "metrics" in reply["shards"]["good"]
        assert "error" in reply["shards"]["dead"]
        assert "malformed" in reply["shards"]["malformed"]["error"]
        assert "service_completed_total 7" in reply["text"]
    finally:
        router.stop()
        good.kill()
        malformed.kill()


# -- trace propagation -------------------------------------------------------


def _spans_by_name(recorder, trace_id):
    spans = {}
    for span in recorder.trace_spans:
        if span["trace"] == trace_id:
            spans.setdefault(span["name"], []).append(span)
    return spans


@pytest.mark.parametrize("op", ["submit", "batch"])
def test_trace_round_trip_router_to_worker(tmp_path, recorder, op):
    """One trace_id crosses router → shard → session → executor."""
    session = Session(cache=ResultCache(directory=tmp_path / "cache"),
                      jobs=1)
    shard = TcpServiceServer(("127.0.0.1", 0), session)
    serve_in_thread(shard, "traced-shard")
    router = Router([("s0", shard.address)], retries=0, backoff_s=0.01,
                    request_timeout_s=30.0)
    trace_id = tracing.new_trace_id()
    try:
        cell = dict(FAST_STREAM)
        cell["trace"] = tracing.wire_trace(trace_id)
        if op == "submit":
            reply = router.handle_message({"op": "submit", "cell": cell})
        else:
            reply = router.handle_message({"op": "batch", "cells": [cell]})
            assert reply["status"] == "ok"
            reply = reply["results"][0]
        assert reply["status"] == "ok"
        assert reply["trace_id"] == trace_id
    finally:
        router.stop()
        shard.shutdown()
        shard.close()
        session.close()

    spans = _spans_by_name(recorder, trace_id)
    for name in ("router_forward", "service_submit", "session_job",
                 "worker_batch"):
        assert name in spans, f"missing {name} span"
        assert len(spans[name]) == 1
    fwd, sub = spans["router_forward"][0], spans["service_submit"][0]
    job, work = spans["session_job"][0], spans["worker_batch"][0]
    # parent chain: each hop hangs off the hop above it
    assert fwd["parent"] is None
    assert sub["parent"] == fwd["span"]
    assert job["parent"] == sub["span"]
    assert work["parent"] == job["span"]
    assert all(s["count"] == 1 for s in (fwd, sub, job, work))
    assert job["attrs"]["status"] == "ok"


def test_untraced_submit_records_no_spans(session, recorder):
    reply = handle_request(session, {"op": "submit",
                                     "cell": dict(FAST_CG)})
    assert reply["status"] == "ok"
    assert "trace_id" not in reply
    assert recorder.trace_spans == []


def test_batch_traced_cells_record_spans_per_cell(session, recorder):
    trace_a, trace_b = tracing.new_trace_id(), tracing.new_trace_id()
    cell_a = dict(FAST_STREAM, trace=tracing.wire_trace(trace_a))
    cell_b = dict(FAST_CG, trace=tracing.wire_trace(trace_b))
    reply = handle_request(session, {"op": "batch",
                                     "cells": [cell_a, cell_b,
                                               dict(FAST_STREAM)]})
    assert reply["status"] == "ok"
    assert reply["results"][0]["trace_id"] == trace_a
    assert reply["results"][1]["trace_id"] == trace_b
    assert "trace_id" not in reply["results"][2]
    for trace_id in (trace_a, trace_b):
        spans = _spans_by_name(recorder, trace_id)
        assert "service_submit" in spans
        assert "session_job" in spans
        assert spans["session_job"][0]["parent"] == \
            spans["service_submit"][0]["span"]


@pytest.mark.parametrize("op", ["submit", "batch"])
def test_traced_cell_rejected_at_admission_records_its_hop(
        tmp_path, recorder, op):
    """A rejected traced cell still records ``service_submit``, with the
    rejection's code: a failed hop is still a hop."""
    with Session(cache=ResultCache(directory=tmp_path / "cache"), jobs=1,
                 max_pending=1, paused=True) as session:
        session.submit(cell_from_wire(FAST_CG))  # fills the queue
        trace_id = tracing.new_trace_id()
        cell = dict(FAST_STREAM, trace=tracing.wire_trace(trace_id))
        if op == "submit":
            reply = handle_request(session, {"op": "submit", "cell": cell})
        else:
            reply = handle_request(session, {"op": "batch",
                                             "cells": [cell]})
            reply = reply["results"][0]
        assert reply["code"] == "queue_full"
        spans = _spans_by_name(recorder, trace_id)
        assert list(spans) == ["service_submit"]
        assert spans["service_submit"][0]["attrs"]["error"] == "queue_full"


def test_malformed_trace_envelope_degrades_to_untraced(session, recorder):
    cell = dict(FAST_STREAM)
    cell["trace"] = {"trace_id": 12345}  # not a string: invalid
    reply = handle_request(session, {"op": "submit", "cell": cell})
    assert reply["status"] == "ok"
    assert recorder.trace_spans == []


def test_trace_span_limit_aggregates_then_drops():
    rec = RunRecorder(tool="test")
    rec.TRACE_SPAN_LIMIT = 2
    for _ in range(5):
        rec.record_trace_span("hop", "t1", tracing.new_span_id(), None,
                              time.time(), 0.01)
    assert len(rec.trace_spans) == 2
    # overflow aggregated into the same-shaped span: counts sum to 5
    assert sum(s["count"] for s in rec.trace_spans) == 5
    assert rec.trace_spans_dropped == 0
    # a span with no same-shaped target to fold into counts as dropped
    rec.record_trace_span("other", "t2", tracing.new_span_id(), None,
                          time.time(), 0.01)
    assert rec.trace_spans_dropped == 1
    record = rec.finish(config={})
    assert record["trace_spans_dropped"] == 1
    assert sum(s["count"] for s in record["trace_spans"]) == 5


# -- trace export ------------------------------------------------------------


def _write_trace_record(tmp_path, tool, spans):
    rec = RunRecorder(tool=tool)
    rec.start()
    rec.stop()
    for span in spans:
        rec.record_trace_span(**span)
    ledger.append(rec.finish(config={}), tmp_path)


def test_trace_export_stitches_processes(tmp_path, capsys):
    trace_id = "feedbeefcafef00d"
    t0 = 1700000000.0
    _write_trace_record(tmp_path, "cluster", [
        {"name": "router_forward", "trace_id": trace_id, "span_id": "r1",
         "parent_span": None, "t0": t0, "dur_s": 0.5},
    ])
    _write_trace_record(tmp_path, "serve", [
        {"name": "service_submit", "trace_id": trace_id, "span_id": "s1",
         "parent_span": "r1", "t0": t0 + 0.1, "dur_s": 0.3,
         "attrs": {"session": "shard-0"}},
        {"name": "service_submit", "trace_id": "othertrace",
         "span_id": "x1", "parent_span": None, "t0": t0, "dur_s": 0.1},
    ])
    spans = tracecmd.collect_spans(trace_id, tmp_path)
    assert [s["name"] for s in spans] == ["router_forward",
                                          "service_submit"]
    assert spans[1]["proc"] == "shard-0"
    chrome = tracecmd.to_chrome_trace(trace_id, spans)
    slices = [e for e in chrome["traceEvents"] if e["ph"] == "X"]
    assert len(slices) == 2
    assert slices[0]["ts"] == 0.0
    assert slices[1]["ts"] == pytest.approx(1e5)  # +0.1 s in µs
    assert slices[0]["pid"] != slices[1]["pid"]
    assert {e["args"]["name"] for e in chrome["traceEvents"]
            if e["ph"] == "M"} == {"cluster", "shard-0"}

    out = tmp_path / "trace.json"
    rc = tracecmd.main(["export", trace_id, "--out", str(out),
                        "--ledger-dir", str(tmp_path)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["otherData"]["trace_id"] == trace_id

    rc = tracecmd.main(["list", "--ledger-dir", str(tmp_path)])
    assert rc == 0
    listing = capsys.readouterr().out
    assert trace_id in listing and "othertrace" in listing


def test_trace_export_unknown_id_fails_with_hint(tmp_path, capsys):
    rc = tracecmd.main(["export", "nope", "--ledger-dir", str(tmp_path)])
    assert rc == 1
    assert "shutdown" in capsys.readouterr().err


# -- regress replay gate -----------------------------------------------------


def _replay_record(ok, p99, config_hash="h"):
    return {"tool": "replay", "config_hash": config_hash,
            "elapsed_s": 1.0, "status": "ok",
            "replay": {"ok": ok, "errors": 0,
                       "latency_p99_ms": p99}}


def test_regress_skips_zero_completed_replay_candidate():
    records = [_replay_record(100, 20.0), _replay_record(0, 0.0)]
    summary, failures, notes = evaluate(records)
    assert failures == []
    assert any("zero requests" in note for note in notes)


def test_regress_excludes_zero_completed_replay_from_baseline():
    # a 0-ok baseline record carries p99=0.0; gating against it would
    # flag any real latency as an unbounded regression
    records = [_replay_record(0, 0.0), _replay_record(100, 20.0)]
    summary, failures, notes = evaluate(records)
    assert failures == []


def test_regress_still_gates_real_replay_regressions():
    records = [_replay_record(100, 20.0), _replay_record(100, 20.0),
               _replay_record(100, 200.0)]
    _summary, failures, _notes = evaluate(records)
    assert any("p99" in failure for failure in failures)


# -- history --json ----------------------------------------------------------


def test_history_json_emits_run_and_metric_series(tmp_path, capsys):
    from repro.telemetry.history import main as history_main

    for elapsed in (1.0, 2.0):
        rec = RunRecorder(tool="bench")
        rec.start()
        rec.stop()
        record = rec.finish(config={})
        record["elapsed_s"] = elapsed
        ledger.append(record, tmp_path)
    rc = history_main(["--json", "--ledger-dir", str(tmp_path)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 1
    assert len(payload["runs"]) == 2
    assert payload["metrics"]["elapsed"] == [1.0, 2.0]
    assert "replay-p99-ms" in payload["metrics"]


# -- repro-bench top ---------------------------------------------------------


def test_top_once_renders_live_daemon(tmp_path, registry, capsys):
    from repro.telemetry.top import main as top_main

    session = Session(cache=ResultCache(directory=tmp_path / "cache"),
                      jobs=1)
    shard = TcpServiceServer(("127.0.0.1", 0), session)
    serve_in_thread(shard, "top-test")
    try:
        handle_request(session, {"op": "submit",
                                 "cell": dict(FAST_STREAM)})
        host, port = shard.address
        rc = top_main(["--connect", f"{host}:{port}", "--once"])
    finally:
        shard.shutdown()
        shard.close()
        session.close()
    assert rc == 0
    frame = capsys.readouterr().out
    assert "up" in frame
    assert "done" in frame


def test_top_once_reports_dead_endpoint(capsys):
    from repro.telemetry.top import main as top_main

    host, port = _dead_address()
    rc = top_main(["--connect", f"{host}:{port}", "--once"])
    assert rc == 1
    assert "DOWN" in capsys.readouterr().out
