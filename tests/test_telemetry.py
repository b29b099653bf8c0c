"""Tests for the run ledger, spans, logging, and the regression gate.

The load-bearing properties: telemetry is invisible when unconfigured
(byte-identical CLI stdout, inert spans), every recorded run appends
one parseable JSONL record carrying timings/cache/pool/fidelity data,
and ``repro-bench regress`` trips on injected fidelity and slowdown
regressions while passing an identical repeat.
"""

import json
import logging

import pytest

from repro.bench import cli
from repro.core import TableResult
from repro.sim.trace import Tracer, reset_dropped, total_dropped
from repro.telemetry import ledger
from repro.telemetry.history import metric_series, render_history
from repro.telemetry.ledger import RunRecorder
from repro.telemetry.regress import evaluate, run_class
from repro.telemetry.tracing import active_recorder, set_recorder, span


@pytest.fixture(autouse=True)
def _clean_recorder():
    yield
    set_recorder(None)


def _fake_target():
    """A paper-style table (fast stand-in for a real bench target)."""
    table = TableResult(title="fake target", headers=["a", "b"])
    table.add_row(1, 2.0)
    return table


@pytest.fixture
def fake_target(monkeypatch):
    monkeypatch.setitem(cli.TARGETS, "faketab", _fake_target)
    return "faketab"


# -- spans -------------------------------------------------------------------

def test_span_is_inert_without_recorder():
    assert active_recorder() is None
    with span("sweep", cells=3) as s:
        s.note(extra=1)  # must not raise


def test_span_aggregates_into_recorder():
    recorder = RunRecorder(tool="bench").start()
    try:
        for _ in range(3):
            with span("sweep", cells=10) as s:
                s.note(kind="scheme_sweep")
    finally:
        recorder.stop()
    entry = recorder.spans["sweep"]
    assert entry["count"] == 3
    assert entry["cells"] == 30  # numeric attrs sum
    assert entry["kind"] == "scheme_sweep"  # descriptive attrs keep latest
    assert entry["total_s"] >= entry["max_s"] >= 0.0


def test_span_reads_no_clock_without_recorder_or_registry(monkeypatch):
    import time

    from repro.telemetry import metrics, tracing

    def no_clock():
        raise AssertionError("the null span read a clock")

    metrics.disable()
    assert active_recorder() is None
    monkeypatch.setattr(time, "perf_counter", no_clock)
    monkeypatch.setattr(time, "time", no_clock)
    with tracing.context("feedbeefcafef00d"), \
            span("executor_batch", histogram="executor_batch_seconds",
                 cells=2) as s:
        s.note(parallel=False)
    later = span("session_job", session="s")
    later.end()
    assert s.elapsed is None and later.span_id is None


def test_batch_histograms_observe_once_per_batch(tmp_path):
    """Each batch's span feeds its histogram: one observation, no second
    timer."""
    from repro.core.cache import ResultCache
    from repro.core.parallel import run_requests
    from repro.service import Session
    from repro.service.protocol import cell_from_wire
    from repro.telemetry import metrics

    cell = {"workload": "stream", "system": "tiger", "ntasks": 2,
            "scheme": "default", "tier": "fast"}

    def counts():
        snap = metrics.snapshot()
        return [(metrics.histogram_entry(snap, name) or {}).get("count", 0)
                for name in ("executor_batch_seconds",
                             "service_batch_seconds")]

    metrics.enable()
    try:
        run_requests([cell_from_wire(cell).to_job()], jobs=1,
                     cache=ResultCache(directory=tmp_path / "a"))
        assert counts() == [1, 0]
        with Session(cache=ResultCache(directory=tmp_path / "b"),
                     jobs=1) as session:
            session.submit(cell_from_wire(cell)).result()
        # the session batch runs one executor batch inside it
        assert counts() == [2, 1]
    finally:
        metrics.disable()


def test_recorder_stop_uninstalls_itself():
    recorder = RunRecorder(tool="bench").start()
    assert active_recorder() is recorder
    recorder.stop()
    assert active_recorder() is None


# -- ledger ------------------------------------------------------------------

def test_ledger_append_read_roundtrip(tmp_path):
    record = RunRecorder(tool="bench", argv=["tab01"]).start().finish(
        config={"targets": ["tab01"], "jobs": 1})
    path = ledger.append(record, tmp_path)
    assert path == tmp_path / "ledger.jsonl"
    read = ledger.read_records(tmp_path)
    assert read == [record]
    assert read[0]["schema"] == 1
    assert read[0]["config_hash"] == record["config_hash"]


def test_ledger_skips_torn_lines(tmp_path):
    ledger.append({"tool": "bench", "run_id": "a"}, tmp_path)
    with open(tmp_path / "ledger.jsonl", "a") as handle:
        handle.write('{"tool": "bench", "run_id": "tor')  # torn write
    ledger.append({"tool": "bench", "run_id": "b"}, tmp_path)
    ids = [r["run_id"] for r in ledger.read_records(tmp_path)]
    assert ids == ["a", "b"]


def test_read_records_missing_file(tmp_path):
    assert ledger.read_records(tmp_path / "absent") == []


def test_same_config_same_hash_distinct_runs():
    a = RunRecorder(tool="bench").start().finish(config={"targets": ["x"]})
    b = RunRecorder(tool="bench").start().finish(config={"targets": ["x"]})
    c = RunRecorder(tool="bench").start().finish(config={"targets": ["y"]})
    assert a["config_hash"] == b["config_hash"] != c["config_hash"]
    assert a["run_id"] != b["run_id"]


def test_hit_rate():
    assert ledger.hit_rate({"cache": {"memory_hits": 3, "disk_hits": 1,
                                      "misses": 1}}) == 0.8
    assert ledger.hit_rate({"cache": {}}) is None
    assert ledger.hit_rate({}) is None


# -- regression gate ---------------------------------------------------------

def _record(run_id, elapsed=10.0, hits=90, misses=10, rho=0.95,
            targets=(("tab02", 6.0), ("fig08", 4.0)), config_hash="cfg"):
    return {
        "schema": 1, "tool": "bench", "run_id": run_id,
        "elapsed_s": elapsed, "config_hash": config_hash,
        "cache": {"memory_hits": 0, "disk_hits": hits, "misses": misses},
        "targets": [{"name": n, "seconds": s, "cache_hits": 0,
                     "cache_misses": 0} for n, s in targets],
        "fidelity": {"Table 2": {"cells": 44, "rank_correlation": rho,
                                 "median_ratio": 1.0, "ratio_spread": 1.2}},
    }


def test_regress_identical_repeat_passes():
    records = [_record("r1"), _record("r2"), _record("r3")]
    summary, failures, _notes = evaluate(records)
    assert failures == []
    assert summary["class"] == "warm"
    assert summary["baseline_runs"] == ["r1", "r2"]


def test_regress_trips_on_injected_slowdown():
    records = [_record("r1"), _record("r2")]
    _s, failures, notes = evaluate(records, inject_slowdown=1.3)
    assert any("slowdown" in f for f in failures)
    assert any("injected" in n for n in notes)


def test_regress_trips_on_injected_fidelity_drop():
    records = [_record("r1"), _record("r2")]
    _s, failures, _n = evaluate(records, inject_fidelity_drop=0.1)
    assert any("fidelity" in f and "Table 2" in f for f in failures)


def test_regress_small_fidelity_wobble_tolerated():
    records = [_record("r1", rho=0.95), _record("r2", rho=0.92)]
    _s, failures, _n = evaluate(records)
    assert failures == []  # 0.03 < the 0.05 drop threshold


def test_regress_trips_on_per_target_slowdown():
    slow = _record("r3", targets=(("tab02", 9.0), ("fig08", 4.0)))
    _s, failures, _n = evaluate([_record("r1"), _record("r2"), slow])
    assert any("target tab02" in f for f in failures)


def test_regress_trips_on_cache_collapse():
    collapsed = _record("r3", hits=20, misses=15)  # warm (disk >= misses)
    # baseline hit rate 0.9; candidate 20/35 = 0.57 is above 0.45 -> pass
    _s, failures, _n = evaluate([_record("r1"), _record("r2"), collapsed])
    assert failures == []
    collapsed = _record("r3", hits=40, misses=39)  # still warm: 40 >= 39
    # 0.506 is above half the 0.9 baseline -> still fine
    _s, failures, _n = evaluate([_record("r1"), _record("r2"), collapsed])
    assert failures == []


def test_regress_does_not_compare_across_cache_classes():
    cold = _record("cold1", elapsed=100.0, hits=5, misses=95)
    warm = _record("warm1", elapsed=2.0, hits=95, misses=5)
    # candidate is warm; the cold run must not serve as timing baseline
    summary, failures, notes = evaluate([cold, warm, _record("warm2",
                                                             elapsed=2.1)])
    assert failures == []
    assert summary["baseline_runs"] == ["warm1"]


def test_run_class_coalesced_cold_run_is_cold():
    # The seed-cold failure mode: duplicate sweep cells coalesce into
    # *memory* hits (rate 0.54), but every unique cell missed on disk —
    # that run simulated everything and must classify cold.
    record = {"cache": {"memory_hits": 76, "disk_hits": 0, "misses": 64}}
    assert run_class(record) == "cold"


def test_run_class_disk_replay_is_warm():
    record = {"cache": {"memory_hits": 3, "disk_hits": 80, "misses": 2}}
    assert run_class(record) == "warm"


def test_run_class_partial_records_fall_back_to_hit_rate():
    # Without a miss counter only the aggregate rate is recoverable.
    assert run_class({"cache": {"memory_hits": 9, "disk_hits": 0}}) == "warm"
    assert run_class({"cache": {"hits": 9, "misses": 1}}) == "cold"
    assert run_class({}) == "cold"


def test_regress_no_bench_records_raises():
    with pytest.raises(ValueError):
        evaluate([{"tool": "prof", "run_id": "p1"}])


# -- CLI subcommands ---------------------------------------------------------

def _seed_ledger(tmp_path, n=3, **kwargs):
    for i in range(n):
        ledger.append(_record(f"r{i}", **kwargs), tmp_path)


def test_cli_regress_exit_codes(tmp_path, capsys):
    assert cli.main(["regress", "--ledger-dir", str(tmp_path)]) == 2
    _seed_ledger(tmp_path)
    assert cli.main(["regress", "--ledger-dir", str(tmp_path)]) == 0
    assert cli.main(["regress", "--ledger-dir", str(tmp_path),
                     "--inject-slowdown", "1.3"]) == 1
    assert cli.main(["regress", "--ledger-dir", str(tmp_path),
                     "--inject-fidelity-drop", "0.1"]) == 1
    capsys.readouterr()


def test_cli_regress_exports_history(tmp_path, capsys):
    _seed_ledger(tmp_path)
    out = tmp_path / "BENCH_history.json"
    assert cli.main(["regress", "--ledger-dir", str(tmp_path),
                     "--export", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "ok"
    assert len(payload["runs"]) == 3
    assert payload["gates"]["rank_correlation_drop"] == 0.05
    assert payload["runs"][0]["fidelity_mean_rank_correlation"] == 0.95
    capsys.readouterr()


def test_cli_history_renders_sparklines(tmp_path, capsys):
    assert cli.main(["history", "--ledger-dir", str(tmp_path)]) == 1
    _seed_ledger(tmp_path)
    assert cli.main(["history", "--ledger-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "elapsed" in out and "hit-rate" in out
    assert "Table 2" in out  # per-table rank correlation trend
    assert cli.main(["history", "--ledger-dir", str(tmp_path),
                     "--plot", "elapsed"]) == 0
    assert "elapsed by run" in capsys.readouterr().out


def test_history_metric_series_and_render():
    records = [_record("r1", elapsed=1.0), _record("r2", elapsed=2.0)]
    assert metric_series(records, "elapsed") == [1.0, 2.0]
    assert metric_series(records, "hit-rate") == [0.9, 0.9]
    with pytest.raises(ValueError):
        metric_series(records, "nope")
    text = render_history(records)
    assert "fidelity" in text


# -- CLI recording -----------------------------------------------------------

def test_cli_records_run_and_timings_json(tmp_path, capsys, fake_target):
    timings = tmp_path / "timings.json"
    assert cli.main([fake_target, "--ledger-dir", str(tmp_path),
                     "--timings-json", str(timings)]) == 0
    capsys.readouterr()
    payload = json.loads(timings.read_text())
    assert payload["targets"][0]["name"] == fake_target
    assert payload["total"]["seconds"] >= 0
    # the prefetch flight is reported beside the targets, not as one
    assert payload["prefetch"]["name"] == "(prefetch)"
    assert [t["name"] for t in payload["targets"]] == [fake_target]
    records = ledger.read_records(tmp_path)
    assert len(records) == 1
    record = records[0]
    assert record["tool"] == "bench"
    assert record["config"]["targets"] == [fake_target]
    assert record["targets"][0]["name"] == fake_target
    assert "cache" in record and "pool" in record
    assert record["trace_dropped"] == 0


def test_cli_stdout_byte_identical_with_and_without_telemetry(
        tmp_path, capsys, fake_target):
    assert cli.main([fake_target]) == 0
    plain = capsys.readouterr().out
    assert cli.main([fake_target, "--ledger-dir", str(tmp_path),
                     "--timings", "-v"]) == 0
    recorded = capsys.readouterr()
    assert recorded.out == plain  # diagnostics stay on stderr
    assert "recorded to" in recorded.err


def test_cli_timings_sorted_slowest_first(tmp_path, capsys, monkeypatch):
    import time as time_module

    def slow_target():
        time_module.sleep(0.05)
        return _fake_target()

    monkeypatch.setitem(cli.TARGETS, "slowtab", slow_target)
    monkeypatch.setitem(cli.TARGETS, "fasttab", _fake_target)
    assert cli.main(["fasttab", "slowtab", "--timings"]) == 0
    err = capsys.readouterr().err
    assert err.index("slowtab") < err.index("fasttab")
    assert "(prefetch)" in err
    assert err.rstrip().splitlines()[-1].split()[0] == "total"


def test_fidelity_scores_extraction():
    table = TableResult(
        title="fidelity: model vs paper, per table",
        headers=["Paper table", "cells", "rank corr", "median ratio",
                 "ratio spread"])
    table.add_row("Table 2 (NAS, Longs)", 44, 0.93, 1.01, 1.5)
    scores = cli._fidelity_scores({"fidelity": table})
    assert scores["Table 2 (NAS, Longs)"]["rank_correlation"] == 0.93
    assert cli._fidelity_scores({}) == {}


# -- tracer drop telemetry ---------------------------------------------------

def test_tracer_warns_once_and_counts_drops(caplog):
    reset_dropped()
    tracer = Tracer(capacity=2)
    with caplog.at_level(logging.WARNING, logger="repro.sim.trace"):
        for i in range(5):
            tracer.emit(float(i), "compute")
    warnings = [r for r in caplog.records if "capacity" in r.message]
    assert len(warnings) == 1  # only the first drop logs
    assert tracer.dropped == 3
    assert len(tracer) == 2
    assert total_dropped() == 3
    tracer.clear()
    assert tracer.dropped == 0
    assert total_dropped() == 3  # process-wide tally survives clear()
    reset_dropped()
    assert total_dropped() == 0
