"""Hardened bench pipeline: crash isolation, corruption recovery, repair."""

import json

import pytest

from repro.bench import chaos
from repro.bench.chaos import SCENARIOS, _QuickWorkload
from repro.core import parallel
from repro.core.affinity import AffinityScheme
from repro.core.cache import (
    CACHE_SCHEMA,
    CACHE_STORE_SCHEMA,
    ResultCache,
    configure,
    default_cache,
    parse_entry,
    result_checksum,
)
from repro.core.parallel import (
    JobRequest,
    TargetFailure,
    reset_pool_stats,
    run_request,
    run_requests,
    take_failures,
)
from repro.faults import CacheDegrade, FaultPlan
from repro.machine import dmz, tiger
from repro.telemetry import doctor, ledger
from repro.telemetry.regress import excluded_from_baseline
from repro.wire import frames


def _rewrite_entry(path, entry):
    """Write a mutated cache entry back in whatever format the file used."""
    if path.read_bytes()[:2] == frames.FRAME_MAGIC:
        path.write_bytes(frames.pack_frames(entry))
    else:
        path.write_text(json.dumps(entry))


class _WideWorkload(_QuickWorkload):
    """16 ranks: infeasible under One-MPI schemes on small machines."""

    name = "chaos-wide"
    ntasks = 16


@pytest.fixture(autouse=True)
def _clean_executor_state():
    """Isolate the process-wide executor accounting per test."""
    reset_pool_stats()
    take_failures()
    yield
    parallel.shutdown_pool()
    take_failures()
    reset_pool_stats()


# -- chaos self-test scenarios (the heavyweight end-to-end paths) ----------

@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_chaos_scenario_recovers(name):
    ok, notes = SCENARIOS[name]()
    assert ok, f"{name} failed to recover: {notes}"


def test_chaos_cli_single_scenario():
    assert chaos.main(["--scenario", "torn-ledger"]) == 0


# -- corrupted cache entries ------------------------------------------------

def _populate(tmp_path):
    cache = ResultCache(directory=tmp_path)
    request = JobRequest(spec=tiger(), workload=_QuickWorkload())
    original = run_request(request, cache=cache)
    return request, original, cache._path(request.key())


def test_truncated_cache_entry_is_quarantined_and_recomputed(tmp_path):
    request, original, path = _populate(tmp_path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])

    fresh = ResultCache(directory=tmp_path)
    recovered = run_request(request, cache=fresh)
    assert fresh.stats.corrupt == 1
    assert fresh.stats.misses == 1
    assert recovered.to_dict() == original.to_dict()
    assert path.with_suffix(".json.corrupt").exists()
    # the recomputed entry was rewritten cleanly (parse_entry validates format)
    entry = parse_entry(path.read_bytes())
    assert entry["schema"] in (CACHE_SCHEMA, CACHE_STORE_SCHEMA)
    assert entry["check"] == result_checksum(entry["result"])


def test_bitflipped_cache_entry_fails_the_checksum(tmp_path):
    request, original, path = _populate(tmp_path)
    entry = parse_entry(path.read_bytes())
    entry["result"]["wall_time"] += 1.0  # well-formed entry, stale checksum
    _rewrite_entry(path, entry)

    fresh = ResultCache(directory=tmp_path)
    assert fresh.get(request.key()) is None
    assert fresh.stats.corrupt == 1


def test_missing_entry_is_a_plain_miss_not_corruption(tmp_path):
    cache = ResultCache(directory=tmp_path)
    request = JobRequest(spec=tiger(), workload=_QuickWorkload())
    assert cache.get(request.key()) is None
    assert cache.stats.corrupt == 0
    assert cache.stats.misses == 1


def test_stale_schema_entry_is_rejected(tmp_path):
    request, original, path = _populate(tmp_path)
    entry = parse_entry(path.read_bytes())
    entry["schema"] = CACHE_SCHEMA - 1
    _rewrite_entry(path, entry)
    fresh = ResultCache(directory=tmp_path)
    assert fresh.get(request.key()) is None
    assert fresh.stats.corrupt == 1


# -- doctor -----------------------------------------------------------------

def test_doctor_reports_then_fixes_cache_damage(tmp_path):
    request, original, path = _populate(tmp_path)
    path.write_bytes(path.read_bytes()[:10])  # corrupt the entry
    (tmp_path / "dead-writer.json.tmp").write_text("partial")

    report = doctor.check_cache_dir(tmp_path, fix=False)
    assert report["entries"] == 1
    assert len(report["corrupt"]) == 1
    assert report["stale_tmp"] == 1
    assert path.exists()  # scan-only never touches files

    fixed = doctor.check_cache_dir(tmp_path, fix=True)
    assert len(fixed["corrupt"]) == 1
    assert not path.exists()
    assert path.with_suffix(".json.corrupt").exists()
    assert not (tmp_path / "dead-writer.json.tmp").exists()

    again = doctor.check_cache_dir(tmp_path, fix=True)
    assert not again["corrupt"]
    assert again["quarantined"] == 1  # swept on this pass
    assert not path.with_suffix(".json.corrupt").exists()


def test_doctor_cli_exit_codes(tmp_path, capsys):
    ledger_dir = tmp_path / "ledger"
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    ledger.append({"schema": 1, "run_id": "a"}, ledger_dir)
    with open(ledger.ledger_path(ledger_dir), "a") as handle:
        handle.write('{"torn": ')

    argv = ["--ledger-dir", str(ledger_dir), "--cache-dir", str(cache_dir)]
    assert doctor.main(argv) == 1  # torn line found, not fixed
    assert doctor.main(argv + ["--fix"]) == 0
    assert doctor.main(argv) == 0  # healthy after repair
    out = capsys.readouterr().out
    assert "healthy" in out


# -- torn ledger ------------------------------------------------------------

def test_ledger_scan_and_repair_round_trip(tmp_path):
    ledger.append({"schema": 1, "run_id": "a"}, tmp_path)
    ledger.append({"schema": 1, "run_id": "b"}, tmp_path)
    path = ledger.ledger_path(tmp_path)
    with open(path, "a") as handle:
        handle.write('{"schema": 1, "run_id": "c', )  # torn mid-record

    assert [r["run_id"] for r in ledger.read_records(tmp_path)] == ["a", "b"]
    report = ledger.scan(tmp_path)
    assert report["records"] == 2
    assert report["torn_lines"] == [3]

    repaired = ledger.repair(tmp_path)
    assert repaired["repaired"]
    backup = path.with_suffix(path.suffix + ".bak")
    assert backup.exists()
    assert ledger.scan(tmp_path)["torn_lines"] == []

    # appending after a fresh tear starts on a new line: no coalescing
    with open(path, "a") as handle:
        handle.write('{"half": ')
    ledger.append({"schema": 1, "run_id": "d"}, tmp_path)
    assert [r["run_id"] for r in ledger.read_records(tmp_path)] \
        == ["a", "b", "d"]


def test_ledger_repair_is_a_noop_when_healthy(tmp_path):
    ledger.append({"schema": 1, "run_id": "a"}, tmp_path)
    report = ledger.repair(tmp_path)
    assert report["repaired"] is False
    path = ledger.ledger_path(tmp_path)
    assert not path.with_suffix(path.suffix + ".bak").exists()


# -- sweep executor failure handling ---------------------------------------

def test_infeasible_cell_in_parallel_sweep_stays_a_dash(tmp_path):
    cache = ResultCache(directory=tmp_path)
    feasible = [JobRequest(spec=tiger(), workload=_QuickWorkload(salt=i))
                for i in range(2)]
    infeasible = JobRequest(spec=dmz(), workload=_WideWorkload(salt=9),
                            scheme=AffinityScheme.ONE_MPI_LOCAL)
    results = run_requests(feasible + [infeasible], jobs=2, cache=cache)
    assert results[0] is not None and results[1] is not None
    assert results[2] is None
    assert parallel.pool_stats().infeasible == 1
    # infeasibility is the paper's dash, not a pipeline failure
    assert take_failures() == []


def test_take_failures_drains():
    failure = TargetFailure(index=0, kind="crash", message="boom",
                            attempts=2, label="x on y [default]")
    parallel._FAILURES.append(failure)
    assert take_failures() == [failure]
    assert take_failures() == []
    assert failure.as_dict()["kind"] == "crash"


def test_default_faults_materialize_into_requests(tmp_path):
    from repro.service import RunRequest, Session

    cache = ResultCache(directory=tmp_path)
    request = RunRequest(system=tiger(), workload=_QuickWorkload())
    healthy = Session(cache=cache).run(request).require()
    assert healthy.faults is None

    plan = FaultPlan(faults=(CacheDegrade(capacity_factor=0.5),))
    faulted = Session(cache=cache, faults=plan).run(request).require()
    # the plan reached the simulation and the cell keyed separately
    assert faulted.faults is not None
    assert cache.stats.stores == 2

    again = Session(cache=cache).run(request).require()
    assert again.faults is None  # no session plan; healthy key hits
    assert again.to_dict() == healthy.to_dict()
    # a bare executor call never sees a session's plan
    bare = run_request(JobRequest(spec=tiger(), workload=_QuickWorkload()),
                       cache=cache)
    assert bare.to_dict() == healthy.to_dict()


def test_timeout_and_retry_knobs_round_trip(monkeypatch, tmp_path):
    from repro.backends import ThreadBackend
    from repro.service import Session

    seen = []

    class Recording(ThreadBackend):
        def submit_cells(self, batch, jobs=None, timeout=None, retries=None):
            seen.append((timeout, retries))
            return super().submit_cells(batch, jobs, timeout, retries)

    def limits(**settings):
        """(timeout, retries) a session's flight hands its backend."""
        cache = ResultCache(directory=tmp_path / str(len(seen)))
        Session(cache=cache, backend=Recording(), **settings).prefetch(
            [JobRequest(spec=tiger(), workload=_QuickWorkload())])
        return seen[-1]

    monkeypatch.setenv("REPRO_BENCH_TIMEOUT", "12.5")
    monkeypatch.setenv("REPRO_BENCH_RETRIES", "3")
    assert limits(timeout=0) == (None, 3)  # 0 beats the env: no watchdog
    assert limits(timeout=2.0, retries=0) == (2.0, 0)
    assert limits() == (12.5, 3)  # unset: back to the environment
    monkeypatch.delenv("REPRO_BENCH_TIMEOUT")
    monkeypatch.delenv("REPRO_BENCH_RETRIES")
    assert limits() == (None, 1)  # shipped defaults


# -- regression-gate exclusions --------------------------------------------

def test_excluded_from_baseline_reasons():
    assert excluded_from_baseline({"status": "aborted"}) == "aborted"
    assert excluded_from_baseline({"faults": {"seed": 1}}) == "fault-injected"
    assert excluded_from_baseline({"status": "ok"}) is None
    assert excluded_from_baseline({"faults": None}) is None


# -- a failed cell in a repro-bench run --------------------------------------

@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_failed_cell_skips_its_target_and_records_the_run(
        tmp_path, monkeypatch, capsys, jobs):
    """A cell lost to an exhausted transport fault skips its target;
    the remaining targets run, the summary lists the failure, the run
    exits 1 and the ledger record carries ``failures``."""
    from repro.bench import cli
    from repro.core.report import TableResult

    def ok_target():
        table = TableResult(title="still runs", headers=["a"])
        table.add_row(1)
        return table

    monkeypatch.setitem(cli.TARGETS, "oktab", ok_target)
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"seed": 3, "faults": [
        {"kind": "message_faults", "drop_prob": 0.95, "max_retries": 1}]}))
    ledger_dir = tmp_path / "ledger"
    cache = default_cache()
    saved = (cache.enabled, cache.directory, cache.disk)
    configure(enabled=True, directory=tmp_path / "cache", disk=True)
    try:
        code = cli.main(["fig14", "oktab", "--jobs", jobs, "--faults",
                         str(plan), "--ledger-dir", str(ledger_dir)])
    finally:
        configure(enabled=saved[0], directory=saved[1], disk=saved[2])
    out, err = capsys.readouterr()
    assert code == 1
    assert "still runs" in out
    assert "failed and were skipped" in err
    assert "target fig14" in err
    records = ledger.read_records(ledger_dir)
    assert len(records) == 1
    failures = records[0]["failures"]
    assert any(f["label"] == "target fig14" for f in failures)
    assert all(f["kind"] == "fault_exhausted" for f in failures)
    if jobs == "2":  # the prefetch's own cell failures are kept too
        assert any(f["label"] != "target fig14" for f in failures)
