"""Tests for the extension features: render, numastat, minimize, IMB extras."""

import numpy as np
import pytest

from repro.apps.md import lj_forces, neighbor_pairs, steepest_descent
from repro.bench.extensions import ext_hybrid_scaling
from repro.core import AffinityScheme, run_workload
from repro.core import cache as result_cache
from repro.machine import describe, distance_table, dmz, hypothetical, longs
from repro.numa import (
    FirstTouch,
    Interleave,
    LocalAlloc,
    Membind,
    PAGE_SIZE,
    PageTable,
    numastat,
)
from repro.service import Session, default_session, set_default_session
from repro.sim.engine import Engine
from repro.workloads import ImbAllreduce, ImbBcast, ImbSendRecv


# -- machine rendering ---------------------------------------------------------

def test_describe_longs_structure():
    text = describe(longs())
    assert "8 sockets" in text and "16 cores" in text
    assert "Socket 7" in text
    assert "1.8 GHz" in text
    assert "diameter: 4 hops" in text
    assert "node distances:" in text


def test_describe_effective_bandwidth_visible():
    text = describe(longs())
    assert "1.87 GB/s" in text  # the coherence-derated controller
    assert "3.59 GB/s" in describe(dmz())


def test_distance_table_symmetric_diagonal():
    text = distance_table(dmz())
    lines = [l for l in text.splitlines() if ":" in l and "distances" not in l]
    assert lines[0].split(":")[1].split() == ["10", "20"]
    assert lines[1].split(":")[1].split() == ["20", "10"]


def test_describe_custom_machine():
    spec = hypothetical("future", sockets=4, cores_per_socket=4,
                        frequency_ghz=2.6, topology="crossbar")
    text = describe(spec)
    assert "16 cores" in text
    assert "2.6 GHz" in text


# -- numastat -------------------------------------------------------------------

def test_numastat_local_allocations_hit():
    table = PageTable(num_nodes=4)
    table.allocate(0, 10 * PAGE_SIZE, toucher_node=1, policy=LocalAlloc())
    stats = numastat(table, {0: 1})
    assert stats[1].numa_hit == 10
    assert stats[1].local_node == 10
    assert stats[0].total_pages == 0


def test_numastat_membind_shows_misses():
    table = PageTable(num_nodes=4)
    table.allocate(0, 10 * PAGE_SIZE, toucher_node=2,
                   policy=Membind(nodes=(0, 1)))
    stats = numastat(table, {0: 2})
    assert stats[0].numa_miss == 5
    assert stats[1].numa_miss == 5
    assert stats[2].numa_hit == 0


def test_numastat_interleave_counter():
    table = PageTable(num_nodes=4)
    table.allocate(0, 8 * PAGE_SIZE, toucher_node=0, policy=Interleave())
    stats = numastat(table, {0: 0})
    assert sum(s.interleave_hit for s in stats.values()) == 8
    assert stats[0].numa_hit == 2  # this task's local share


def test_numastat_requires_task_mapping():
    table = PageTable(num_nodes=2)
    table.allocate(5, PAGE_SIZE, 0, FirstTouch())
    with pytest.raises(ValueError):
        numastat(table, {})


def test_numastat_conserves_pages():
    table = PageTable(num_nodes=4)
    for task, node in ((0, 0), (1, 3)):
        table.allocate(task, 25 * PAGE_SIZE, node, Interleave())
    stats = numastat(table, {0: 0, 1: 3})
    assert sum(s.total_pages for s in stats.values()) == 50


# -- energy minimization ------------------------------------------------------------

def _lj_force_fn(box):
    def force_fn(positions):
        pairs = neighbor_pairs(positions, box, 1.8)
        return lj_forces(positions, pairs, box, cutoff=1.8)
    return force_fn


def test_steepest_descent_reduces_energy():
    rng = np.random.default_rng(41)
    box = 6.0
    # slightly perturbed lattice: relaxation must lower the energy
    grid = np.arange(4) * 1.4 + 0.3
    positions = np.array(np.meshgrid(grid, grid, grid)).T.reshape(-1, 3)
    positions += rng.normal(0, 0.05, positions.shape)
    force_fn = _lj_force_fn(box)
    _, e_start = force_fn(positions)
    relaxed, e_end, iterations = steepest_descent(
        positions, force_fn, steps=150, box=box)
    assert e_end < e_start
    assert iterations > 1


def test_steepest_descent_stops_at_minimum():
    # two particles at the LJ minimum distance: forces ~0, no movement
    r_min = 2.0 ** (1 / 6)
    positions = np.array([[1.0, 1.0, 1.0], [1.0 + r_min, 1.0, 1.0]])
    force_fn = _lj_force_fn(10.0)
    relaxed, _e, iterations = steepest_descent(positions, force_fn,
                                               steps=50, box=10.0,
                                               force_tolerance=1e-8)
    assert np.allclose(relaxed, positions, atol=1e-5)


def test_steepest_descent_validation():
    with pytest.raises(ValueError):
        steepest_descent(np.zeros((1, 3)), lambda p: (p, 0.0), steps=0)


def test_steepest_descent_monotone_energy_property():
    """Energy after k+m steps never exceeds energy after k steps."""
    rng = np.random.default_rng(43)
    box = 5.0
    positions = rng.uniform(1, 4, size=(12, 3))
    force_fn = _lj_force_fn(box)
    _, e20, _ = steepest_descent(positions, force_fn, steps=20, box=box)
    _, e60, _ = steepest_descent(positions, force_fn, steps=60, box=box)
    assert e60 <= e20 + 1e-12


# -- extra IMB benchmarks --------------------------------------------------------------

def test_imb_sendrecv_runs():
    result = run_workload(dmz(), ImbSendRecv(4, 8192, reps=5))
    assert result.phase_time("sendrecv") > 0
    assert result.bytes_sent == 4 * 5 * 8192


def test_imb_allreduce_latency_grows_with_ranks():
    spec = longs()
    t2 = run_workload(spec, ImbAllreduce(2, 8, reps=10),
                      AffinityScheme.ONE_MPI_LOCAL).phase_time("allreduce")
    t8 = run_workload(spec, ImbAllreduce(8, 8, reps=10),
                      AffinityScheme.ONE_MPI_LOCAL).phase_time("allreduce")
    assert t8 > t2


def test_imb_bcast_root_validation():
    with pytest.raises(ValueError):
        ImbBcast(4, 1024, root=4)
    result = run_workload(dmz(), ImbBcast(4, 4096, reps=5))
    assert result.phase_time("bcast") > 0


def test_imb_extra_validation():
    with pytest.raises(ValueError):
        ImbSendRecv(1, 100)
    with pytest.raises(ValueError):
        ImbAllreduce(2, -1)


# -- hybrid scaling extension bench -------------------------------------------

def test_warm_ext_hybrid_runs_no_simulation(tmp_path, monkeypatch):
    """Every ext_hybrid cell, hybrid ones included, is served from cache."""
    cache = result_cache.default_cache()
    saved = (cache.enabled, cache.directory, cache.disk)
    result_cache.configure(enabled=True, directory=tmp_path, disk=True)
    # hybrid cells stay exact regardless of the session's tier
    previous = set_default_session(Session(name="default", tier="fast"))
    try:
        default_session().clear()
        table = ext_hybrid_scaling()
        cold = (table.to_text(), table.to_csv())

        default_session().clear()
        misses = cache.stats.misses

        def no_simulation(self, *args, **kwargs):
            raise AssertionError("a warm run must not step the engine")

        monkeypatch.setattr(Engine, "run", no_simulation)
        table = ext_hybrid_scaling()
        warm = (table.to_text(), table.to_csv())
        assert warm == cold
        assert cache.stats.misses == misses
    finally:
        set_default_session(previous)
        default_session().clear()
        result_cache.configure(enabled=saved[0], directory=saved[1],
                               disk=saved[2])
