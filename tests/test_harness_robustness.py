"""Hardened bench pipeline: crash isolation, corruption recovery, repair."""

import json
import sys
from pathlib import Path

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
from repro.workloads import ImbPingPong
from repro.telemetry import doctor, ledger
from repro.telemetry.regress import excluded_from_baseline
from repro.wire import frames

ROOT = Path(__file__).resolve().parent.parent


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
    yield
    parallel.shutdown_pool()
    reset_pool_stats()


# -- chaos self-test scenarios (the heavyweight end-to-end paths) ----------

@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_chaos_scenario_recovers(name):
    chaos.run_scenario(name)


def test_chaos_cli_single_scenario():
    assert chaos.main(["--scenario", "torn-ledger"]) == 0


def test_each_scenario_is_the_pinned_example_of_one_property():
    assert sorted(SCENARIOS) == [
        "corrupted-cache", "hung-worker", "killed-service-worker",
        "killed-shard", "killed-worker", "sim-faults", "torn-ledger"]
    for name in SCENARIOS:
        owners = [prop for prop, entry in chaos.PROPERTIES.items()
                  if name in entry.examples]
        assert owners == [SCENARIOS[name]], name


def test_chaos_runs_every_scenario_without_hypothesis(monkeypatch, capsys):
    monkeypatch.setitem(sys.modules, "hypothesis", None)
    with pytest.raises(ImportError):
        import hypothesis  # noqa: F401
    assert chaos.main(["--json"]) == 0
    summary = json.loads(next(line for line in capsys.readouterr().out
                              .splitlines() if line.startswith("{")))
    assert summary == {"failed": [],
                       "scenarios": {name: True for name in SCENARIOS}}
    assert chaos.main(["--search"]) == 2
    assert "hypothesis is not installed" in capsys.readouterr().err


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


def test_empty_cache_entry_is_quarantined_and_recomputed(tmp_path):
    """A zero-length entry, what a crash can leave of an unsynced write."""
    request, original, path = _populate(tmp_path)
    path.write_bytes(b"")

    fresh = ResultCache(directory=tmp_path)
    recovered = run_request(request, cache=fresh)
    assert fresh.stats.corrupt == 1
    assert fresh.stats.misses == 1
    assert recovered.to_dict() == original.to_dict()
    assert path.with_suffix(".json.corrupt").exists()
    entry = parse_entry(path.read_bytes())
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
    outcomes = []
    results = run_requests(feasible + [infeasible], jobs=2, cache=cache,
                           outcomes=outcomes)
    assert results[0] is not None and results[1] is not None
    assert results[2] is None
    assert parallel.pool_stats().infeasible == 1
    # infeasibility is the paper's dash, not a pipeline failure
    assert [status for status, _ in outcomes] == ["ok", "ok", "infeasible"]


def test_take_failures_drains(tmp_path):
    """A bare batch (no ``outcomes`` list) still leaves its failures for
    :func:`take_failures`, which hands each out once."""
    from repro.backends import ThreadBackend

    plan = FaultPlan.from_dict(json.loads(
        (ROOT / "benchmarks" / "faultplans" / "msg_exhaust.json").read_text()))
    cell = JobRequest(dmz(), ImbPingPong(1024), faults=plan)
    take_failures()
    results = run_requests([cell], cache=ResultCache(directory=tmp_path),
                           backend=ThreadBackend())
    [failure] = take_failures()
    assert results == [None]
    assert take_failures() == []
    assert isinstance(failure, TargetFailure)
    assert failure.as_dict()["kind"] == "fault_exhausted"


def test_default_faults_materialize_into_requests(tmp_path):
    from repro.service import Session

    cache = ResultCache(directory=tmp_path)
    request = JobRequest(spec=tiger(), workload=_QuickWorkload())
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
    # at every --jobs the prefetch's own cell failures are kept too
    cells = [f for f in failures if f["label"] != "target fig14"]
    assert cells
    # each cell is reported once; the target points at one of them
    # instead of repeating its message
    assert len({f["label"] for f in cells}) == len(cells)
    assert all(f["label"].startswith("imb-pingpong[") for f in cells)
    target = next(f for f in failures if f["label"] == "target fig14")
    assert target["message"] not in {f["message"] for f in cells}


def test_prefetch_enumerates_only_the_requested_figures_cells():
    from repro.bench import cli, figures

    class Recording:
        def prefetch(self, requests):
            self.requests = list(requests)
            return []

    session = Recording()
    cli._prefetch(session, ["fig14"])
    names = {request.workload.name for request in session.requests}
    assert names and all(n.startswith("imb-pingpong[") for n in names)
    assert len(session.requests) == 24  # 3 MPI implementations x 8 sizes
    # `all` enumerates every figure's cells, as one unfiltered list
    every = [name for name in cli.TARGETS if name.startswith("fig")]
    assert [r.key() for r in figures.figure_requests(every)] \
        == [r.key() for r in figures.figure_requests()]


def test_prefetch_enumerates_only_the_requested_ablation_and_extension_cells():
    from repro.bench import ablations, cli, extensions

    class Recording:
        def prefetch(self, requests):
            self.requests = list(requests)
            return []

    session = Recording()
    cli._prefetch(session, ["abl_topology"])
    assert len(session.requests) == 6  # 3 topologies x NAS FT and CG
    assert {r.spec.name for r in session.requests} \
        == {"longs-ladder", "longs-ring", "longs-crossbar"}
    assert {r.scheme for r in session.requests} \
        == {AffinityScheme.INTERLEAVE}
    cli._prefetch(session, ["ext_npb"])
    assert len(session.requests) == 24  # 4 NPB kernels x 6 schemes
    assert {(r.spec.name, r.workload.ntasks) for r in session.requests} \
        == {("Longs", 8)}
    cli._prefetch(session, ["tab02", "fig14"])
    assert not any(r.spec.name.startswith("longs-")
                   for r in session.requests)
    # `all` enumerates every ablation's and extension's cells
    for module, prefix in ((ablations, "abl_"), (extensions, "ext_")):
        every = [name for name in cli.TARGETS if name.startswith(prefix)]
        assert [r.key() for r in module.requests(every)] \
            == [r.key() for r in module.requests()]


def test_prefetch_enumerates_only_the_requested_tables_cells(tmp_path):
    """A parallel tab02 stores exactly the entries a serial one does."""
    from repro.bench import cli

    cache = default_cache()
    saved = (cache.enabled, cache.directory, cache.disk)
    stored = {}
    try:
        for jobs in ("1", "2"):
            directory = tmp_path / f"jobs{jobs}"
            configure(enabled=True, directory=directory, disk=True)
            assert cli.main(["tab02", "--tier", "fast",
                             "--jobs", jobs]) == 0
            stored[jobs] = sorted(p.name for p in directory.rglob("*.json"))
    finally:
        configure(enabled=saved[0], directory=saved[1], disk=saved[2])
    assert stored["1"] and stored["2"] == stored["1"]


def test_no_cache_run_simulates_each_cell_once(monkeypatch, capsys):
    """With the result cache off, a parallel run's prefetch flight still
    answers the tables: every distinct cell executes exactly once."""
    from collections import Counter

    from repro.bench import cli

    executed = []
    real_execute = JobRequest.execute

    def counting_execute(self):
        executed.append(self.key())
        return real_execute(self)

    monkeypatch.setattr(JobRequest, "execute", counting_execute)
    cache = default_cache()
    saved = cache.enabled
    try:
        assert cli.main(["tab02", "tab03", "--tier", "fast", "--jobs", "2",
                         "--no-cache", "--backend", "threads"]) == 0
    finally:
        configure(enabled=saved)
    capsys.readouterr()
    counts = Counter(executed)
    assert counts and set(counts.values()) == {1}


def test_serial_failed_cell_runs_once_across_targets(tmp_path, monkeypatch,
                                                     capsys):
    """At ``--jobs 1`` the prefetch is one in-process flight: a failed
    cell two targets read is simulated once, its message is printed
    once, and both targets point at it."""
    from repro.bench import cli

    executed = []
    real_execute = JobRequest.execute

    def counting_execute(self):
        executed.append(self.label())
        return real_execute(self)

    monkeypatch.setattr(JobRequest, "execute", counting_execute)
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"seed": 3, "faults": [
        {"kind": "message_faults", "drop_prob": 0.95, "max_retries": 1}]}))
    cache = default_cache()
    saved = (cache.enabled, cache.directory, cache.disk)
    configure(enabled=True, directory=tmp_path / "cache", disk=True)
    try:
        code = cli.main(["fig14", "fig14lat", "--jobs", "1",
                         "--faults", str(plan)])
    finally:
        configure(enabled=saved[0], directory=saved[1], disk=saved[2])
    err = capsys.readouterr().err
    assert code == 1
    assert len(executed) == len(set(executed))
    lines = [line for line in err.splitlines() if "] target " in line]
    assert len(lines) == 2
    label = lines[0].split("target fig14: skipped, cell ", 1)[1][:-len(
        " failed")]
    assert label in executed
    assert lines[1].endswith(f"target fig14lat: skipped, cell {label} "
                             f"failed")
    cell_lines = [line for line in err.splitlines()
                  if line.startswith("  [") and f"] {label}: " in line]
    assert len(cell_lines) == 1
    message = cell_lines[0].split(f"] {label}: ", 1)[1]
    assert all(message not in line for line in lines)


def _failure_lines(argv, cache_dir, capsys):
    """The failure report lines of one ``repro-bench`` run on its own
    throwaway cache, with its exit code."""
    from repro.bench import cli

    cache = default_cache()
    saved = (cache.enabled, cache.directory, cache.disk)
    configure(enabled=True, directory=cache_dir, disk=True)
    try:
        code = cli.main(argv)
    finally:
        configure(enabled=saved[0], directory=saved[1], disk=saved[2])
    err = capsys.readouterr().err
    return code, [line for line in err.splitlines()
                  if line.startswith("  [")]


def test_serial_and_parallel_runs_report_the_same_failures(tmp_path, capsys):
    """``--jobs 1`` prefetches like ``--jobs 2``: the same failed cells
    and the same skipped targets, line for line."""
    plan = str(ROOT / "benchmarks" / "faultplans" / "msg_exhaust.json")
    reports = {}
    for jobs in ("1", "2"):
        reports[jobs] = _failure_lines(
            ["fig14", "fig14lat", "--jobs", jobs, "--faults", plan],
            tmp_path / jobs, capsys)
    code, lines = reports["1"]
    assert code == 1
    assert reports["2"] == reports["1"]
    targets = [line for line in lines if "] target " in line]
    assert [line.split(": ", 1)[0] for line in targets] == [
        "  [fault_exhausted] target fig14",
        "  [fault_exhausted] target fig14lat"]
    cells = [line for line in lines if "] target " not in line]
    assert cells and all("imb-pingpong[" in line for line in cells)
    assert len(set(cells)) == len(cells)


def test_run_many_duplicate_of_a_failed_cell_is_failed(tmp_path):
    """A failing cell asked twice in one batch fails twice; the twin is
    not mistaken for an infeasible dash."""
    from repro.backends import ThreadBackend
    from repro.service import Session

    plan = FaultPlan.from_dict({"seed": 3, "faults": [
        {"kind": "message_faults", "drop_prob": 0.95, "max_retries": 1}]})
    request = JobRequest(spec=dmz(), workload=ImbPingPong(1024),
                         faults=plan)
    with Session(cache=ResultCache(directory=tmp_path),
                 backend=ThreadBackend()) as session:
        results = session.run_many([request, request])
    assert [r.kind for r in results] == ["fault_exhausted"] * 2


def test_run_requests_reports_each_duplicate_of_a_failed_cell(tmp_path):
    """A bare batch that asks a failing cell twice gets a failure at
    both indices, so neither reads as an infeasible dash."""
    from repro.backends import ThreadBackend

    plan = FaultPlan.from_dict(json.loads(
        (ROOT / "benchmarks" / "faultplans" / "msg_exhaust.json").read_text()))
    cell = JobRequest(dmz(), ImbPingPong(1024), faults=plan)
    outcomes = []
    results = run_requests([cell, cell], cache=ResultCache(directory=tmp_path),
                           backend=ThreadBackend(), outcomes=outcomes)
    assert [status for status, _ in outcomes] == ["failed"] * 2
    failures = [payload for _, payload in outcomes]
    assert results == [None, None]
    assert [f.index for f in failures] == [0, 1]
    assert [f.kind for f in failures] == ["fault_exhausted"] * 2
    assert failures[0].message == failures[1].message
    assert failures[0].key == failures[1].key == cell.key()


def test_failed_prefetch_cell_runs_once(tmp_path, monkeypatch):
    """A cell that failed in a session's prefetch is answered from that
    failure by a later run, not simulated again."""
    from repro.backends import ThreadBackend
    from repro.errors import JobFailedError
    from repro.service import Session

    executed = []
    real_execute = JobRequest.execute

    def counting_execute(self):
        executed.append(self.label())
        return real_execute(self)

    monkeypatch.setattr(JobRequest, "execute", counting_execute)
    plan = FaultPlan.from_dict({"seed": 3, "faults": [
        {"kind": "message_faults", "drop_prob": 0.95, "max_retries": 1}]})
    request = JobRequest(spec=dmz(), workload=ImbPingPong(1024))
    with Session(cache=ResultCache(directory=tmp_path), faults=plan,
                 backend=ThreadBackend()) as session:
        failures = session.prefetch([request])
        assert len(failures) == 1 and len(executed) == 1
        with pytest.raises(JobFailedError) as excinfo:
            session.run(request).require()
    assert str(excinfo.value) == failures[0].message
    assert excinfo.value.kind == failures[0].kind
    assert excinfo.value.key == failures[0].key
    assert len(executed) == 1  # answered from the kept failure
    # failures are never cached: a fresh session simulates the cell
    with Session(cache=ResultCache(directory=tmp_path), faults=plan,
                 backend=ThreadBackend()) as fresh:
        with pytest.raises(JobFailedError):
            fresh.run(request).require()
    assert len(executed) == 2
