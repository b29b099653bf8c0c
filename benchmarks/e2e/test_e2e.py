"""Tests of the end-to-end benchmark itself: ``pytest benchmarks/e2e``."""

import collections
import json
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import hostclock  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402


@pytest.fixture(scope="module")
def pool():
    return inputs.serve_pool()


def test_serve_trace_is_seeded_with_a_fixed_class_mix(pool):
    traces = {seed: inputs.serve_trace(pool, seed) for seed in (1, 2, 3)}
    assert traces[1] == inputs.serve_trace(pool, 1)
    assert traces[1] != traces[2] != traces[3]
    for trace in traces.values():
        new = [index for index, is_new in trace if is_new]
        assert sorted(new) == list(range(len(pool)))
        for prefix in (100, 1000, 3333):
            count = sum(1 for _, is_new in trace[:prefix] if is_new)
            assert abs(count - (1 - inputs.REPEAT_SHARE) * prefix) <= 1.5
        seen = set()
        for index, is_new in trace:
            assert is_new != (index in seen)
            seen.add(index)

    def mix(seed, count):
        new = [index for index, is_new in traces[seed] if is_new]
        return collections.Counter(pool[i]["workload"] for i in new[:count])

    blocks = inputs.serve_blocks(pool)
    for rounds in (1, 5, 10):
        assert mix(1, rounds * len(blocks)) == mix(2, rounds * len(blocks)) \
            == mix(3, rounds * len(blocks))
    order = inputs.new_cell_order(pool)
    first_round = sorted(order[:len(blocks)])
    assert first_round == sorted(
        next(i for i in order if i in block) for block in blocks)


def test_sweep_cells_are_a_stratified_sample_in_submission_order():
    from repro.bench import figures, tables

    cells = inputs.sweep_cells()
    assert [c.key() for c in cells] == [c.key() for c in
                                        inputs.sweep_cells()]
    every = {}
    for position, request in enumerate(tables.sweep_requests()
                                       + figures.figure_requests()):
        every.setdefault(request.key(), (position, request))
    positions = [every[c.key()][0] for c in cells]
    assert positions == sorted(positions)
    classes = {type(r.workload).__name__ for _, r in every.values()}
    small = collections.Counter(
        type(r.workload).__name__ for _, r in every.values()
        if r.workload.ntasks <= inputs.SWEEP_MAX_TASKS)
    sample = collections.Counter(type(c.workload).__name__ for c in cells)
    assert sample == {name: max(1, -(-small[name] // inputs.SWEEP_STRIDE))
                      for name in classes}
    assert all(c.workload.ntasks <= inputs.SWEEP_MAX_TASKS
               for c in cells if small[type(c.workload).__name__])


def test_percentile_needs_ten_samples_beyond_it():
    assert stats.percentile(list(range(1000)), 99) == 989
    assert stats.percentile(list(range(999)), 99) is None
    assert stats.percentile(list(range(20)), 50) == 9
    assert stats.percentile(list(range(19)), 50) is None
    assert stats.percentile([], 50) is None
    assert stats.tail(list(range(1000))) == (989, "p99")
    assert stats.tail(list(range(100))) == (89, "p90")
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, "max")


def test_host_clock_scales_by_the_readings_around_an_interval():
    clock = hostclock.HostClock()
    ref = hostclock.REFERENCE_S
    clock.readings = [(float(t), ref * (2 if t >= 10 else 1))
                      for t in range(20)]
    assert clock.seconds(2.0, 8.0) == pytest.approx(6.0)
    assert clock.seconds(12.0, 18.0) == pytest.approx(3.0)
    # the readings cut an interval into pieces, each scaled on its own
    assert clock.seconds(8.0, 12.0) == pytest.approx(2.0 + 1.0)
    # short intervals take the nearest readings, at least MIN_READINGS
    assert clock.seconds(14.5, 14.6) == pytest.approx(0.05)
    assert clock.seconds(8.5, 8.6) == pytest.approx(0.1)
    assert clock.seconds(-5.0, -4.0) == pytest.approx(1.0)

    live = hostclock.HostClock().start()
    time.sleep(0.5)
    live.stop()
    assert live.proc is None and len(live.readings) >= 2
    assert all(cpu > 0 for _, cpu in live.readings)


def _span(pid, ident, parent, start, end, name="f", layer="l", **attrs):
    return {"pid": pid, "ppid": 1, "id": ident, "parent": parent,
            "start": start, "end": end, "name": name, "layer": layer,
            "run": "r", "attrs": attrs}


def test_self_time_subtracts_the_union_of_children():
    tree = [
        _span(10, 1, None, 0.0, 10.0, layer="a"),
        _span(10, 2, 1, 1.0, 3.0, layer="b"),
        _span(10, 3, 1, 2.0, 4.0, layer="b"),   # overlaps its sibling
        _span(10, 4, 1, 6.0, 7.0, layer="c"),
        _span(10, 5, 4, 6.2, 6.7, layer="b"),   # grandchild
        _span(11, 1, None, 0.0, 5.0, layer="a"),  # same id, other pid
    ]
    selfs = spans.self_times(tree)
    assert selfs[(10, 1)] == pytest.approx(10.0 - 3.0 - 1.0)
    assert selfs[(10, 4)] == pytest.approx(0.5)
    assert selfs[(10, 5)] == pytest.approx(0.5)
    assert selfs[(11, 1)] == pytest.approx(5.0)
    table = spans.layer_table(tree)
    assert table["a"] == {"spans": 2, "self_s": pytest.approx(11.0)}
    assert table["b"]["self_s"] == pytest.approx(2.0 + 2.0 + 0.5)
    assert spans.covered([(1, 3), (2, 4), (9, 12)], 0, 10) == \
        pytest.approx(4.0)


def test_backend_overhead_is_wait_beyond_the_busiest_worker():
    batch = _span(10, 1, None, 0.0, 10.0, name="ProcessBackend.submit_cells",
                  layer="backends", cells=3, failed=0, retried=0)
    worker = dict(_span(20, 1, None, 1.0, 4.0, name="JobRequest.execute"),
                  ppid=10)
    worker2 = dict(_span(20, 2, None, 4.5, 8.5, name="JobRequest.execute"),
                   ppid=10)
    other = dict(_span(21, 1, None, 2.0, 5.0, name="JobRequest.execute"),
                 ppid=10)
    metrics = spans.layer_metrics([batch, worker, worker2, other], {})
    assert metrics["backends.wait_s"] == pytest.approx(10.0)
    assert metrics["backends.overhead_s"] == pytest.approx(10.0 - 7.0)
    assert metrics["backends.cells"] == 3


PARENT = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]


@pytest.mark.parametrize("change, better, bound, expected", [
    ([v * 0.8 for v in PARENT], "lower", 0.1, "improved"),
    ([v * 1.01 for v in PARENT], "lower", 0.1, "no worse"),
    ([v * 1.3 for v in PARENT], "lower", 0.1, "regressed"),
    ([v * 1.3 for v in PARENT], "higher", 0.1, "improved"),
    ([v * 0.7 for v in PARENT], "higher", 0.1, "regressed"),
    ([v * 1.3 for v in PARENT], "lower", 0.5, "no worse"),
    ([50.0, 150.0, 60.0, 140.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0],
     "lower", 0.1, "unresolved"),
])
def test_compare_verdicts(change, better, bound, expected):
    row = stats.verdict(PARENT, change, better, bound)
    assert row["verdict"] == expected
    assert row["pairs"] == len(PARENT)


def test_compare_reads_runs_per_workload():
    catalog = [{"name": "m", "unit": "s", "better": "lower", "bound": 0.1}]
    parent = [{"w": {"m": v}} for v in PARENT]
    change = [{"w": {"m": 2 * v}} for v in PARENT]
    rows = stats.compare(parent, change, catalog)
    assert [(r["workload"], r["metric"], r["verdict"]) for r in rows] == \
        [("w", "m", "regressed")]


def test_smoke_run_emits_every_benchmark_metric(tmp_path):
    out = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
         "--trace", "1", "--trace-dir", str(tmp_path / "trace"),
         "--json", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        catalog = json.load(handle)
    wanted = {m["name"] for m in catalog["end_to_end"]
              + catalog["per_layer"]}
    run = json.loads(out.read_text())["runs"][0]
    assert set(run) == {w["name"] for w in catalog["workloads"]}
    for workload, result in run.items():
        assert result["correct"], (workload, result["gates"])
        assert wanted <= set(result["metrics"]), \
            (workload, sorted(wanted - set(result["metrics"])))
    layers = json.loads((tmp_path / "trace" / "layers.json").read_text())
    assert set(layers) == set(run)
    final = json.loads(done.stdout.strip().splitlines()[-1])
    assert final["correct"] and final["failed"] == 0
