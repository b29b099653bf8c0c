"""Tests for the job runtime: op execution, accounting, scheme effects."""

from typing import Iterator, List

import pytest

from repro.core import (
    AffinityScheme,
    Allreduce,
    Barrier,
    Compute,
    JobRunner,
    Op,
    SendRecv,
    Workload,
    resolve_scheme,
    run_workload,
)
from repro.machine import GB, MB, dmz, longs


class OpsWorkload(Workload):
    """Test helper: every rank executes a fixed op list."""

    def __init__(self, ops: List[Op], ntasks: int = 2, name: str = "test",
                 time_scale: float = 1.0):
        self.ops = ops
        self.ntasks = ntasks
        self.name = name
        self.time_scale = time_scale

    def program(self, rank: int) -> Iterator[Op]:
        yield from self.ops


def test_compute_flop_bound_time():
    """A cache-resident, flop-heavy op runs at peak * efficiency."""
    spec = dmz()
    flops = 4.4e9  # one second at peak
    wl = OpsWorkload([Compute(flops=flops, flop_efficiency=1.0)], ntasks=1)
    result = run_workload(spec, wl, AffinityScheme.DEFAULT)
    assert result.wall_time == pytest.approx(1.0, rel=1e-6)


def test_compute_memory_bound_time():
    """A zero-flop streaming op runs at the controller bandwidth."""
    spec = dmz()
    nbytes = 1 * GB
    wl = OpsWorkload(
        [Compute(dram_bytes=nbytes, working_set=nbytes, reuse=0.0)], ntasks=1
    )
    aff = resolve_scheme(AffinityScheme.ONE_MPI_LOCAL, spec, 1)
    runner = JobRunner(spec, aff)
    result = runner.run(wl)
    expected = nbytes / runner.machine.mem.controller_capacity
    assert result.wall_time == pytest.approx(expected, rel=1e-6)


def test_compute_overlaps_flops_and_memory():
    """Phase time is max(flop time, memory time), not the sum."""
    spec = dmz()
    aff = resolve_scheme(AffinityScheme.ONE_MPI_LOCAL, spec, 1)
    runner = JobRunner(spec, aff)
    mem_time = 1 * GB / runner.machine.mem.controller_capacity
    flop_time = 2.0 * mem_time  # make flops dominate
    flops = flop_time * 4.4e9
    wl = OpsWorkload(
        [Compute(flops=flops, flop_efficiency=1.0,
                 dram_bytes=1 * GB, working_set=1 * GB)], ntasks=1
    )
    result = runner.run(wl)
    assert result.wall_time == pytest.approx(flop_time, rel=1e-4)


def test_cache_resident_workload_ignores_bandwidth():
    """High-reuse ops barely touch DRAM (the DGEMM Star == Single effect)."""
    spec = dmz()
    hot = OpsWorkload(
        [Compute(flops=1e8, flop_efficiency=0.9, dram_bytes=1 * GB,
                 working_set=0.5 * MB, reuse=0.99)], ntasks=1)
    cold = OpsWorkload(
        [Compute(flops=1e8, flop_efficiency=0.9, dram_bytes=1 * GB,
                 working_set=1 * GB, reuse=0.0)], ntasks=1)
    t_hot = run_workload(spec, hot).wall_time
    t_cold = run_workload(spec, cold).wall_time
    assert t_cold > 3 * t_hot


def test_two_tasks_one_socket_contend():
    """Two streaming ranks on one socket take ~2x one rank's time."""
    spec = dmz()
    one = OpsWorkload([Compute(dram_bytes=1 * GB, working_set=1 * GB)], ntasks=1)
    two = OpsWorkload([Compute(dram_bytes=1 * GB, working_set=1 * GB)], ntasks=2)
    t1 = run_workload(spec, one, AffinityScheme.ONE_MPI_LOCAL).wall_time
    t2_packed = run_workload(spec, two, AffinityScheme.TWO_MPI_LOCAL).wall_time
    t2_spread = run_workload(spec, two, AffinityScheme.ONE_MPI_LOCAL).wall_time
    assert t2_packed == pytest.approx(2 * t1, rel=0.01)
    assert t2_spread == pytest.approx(t1, rel=0.01)


def test_membind_slower_than_localalloc_for_memory_bound():
    """The paper's core placement finding on the 8-socket ladder."""
    spec = longs()
    wl = lambda: OpsWorkload([Compute(dram_bytes=0.5 * GB, working_set=1 * GB)],
                             ntasks=8)
    t_local = run_workload(spec, wl(), AffinityScheme.TWO_MPI_LOCAL).wall_time
    t_membind = run_workload(spec, wl(), AffinityScheme.TWO_MPI_MEMBIND).wall_time
    t_inter = run_workload(spec, wl(), AffinityScheme.INTERLEAVE).wall_time
    # membind's two-controller hotspot is by far the worst; interleave
    # trades locality for spreading and lands in a band around local
    assert t_membind > 1.5 * t_local
    assert t_membind > 1.5 * t_inter
    assert 0.6 * t_local < t_inter < 1.5 * t_local


def test_latency_bound_op_uses_numa_latency():
    spec = longs()
    updates = 1_000_000
    wl = lambda: OpsWorkload([Compute(random_accesses=updates,
                                      working_set=1 * GB)], ntasks=2)
    t_local = run_workload(spec, wl(), AffinityScheme.ONE_MPI_LOCAL).wall_time
    t_inter = run_workload(spec, wl(), AffinityScheme.INTERLEAVE).wall_time
    params = spec.params
    assert t_local == pytest.approx(updates * params.dram_latency, rel=0.01)
    assert t_inter > 1.5 * t_local  # interleave pays hop latency


def test_comm_ops_accounted_separately():
    spec = dmz()
    wl = OpsWorkload([
        Compute(flops=1e8, flop_efficiency=1.0),
        Allreduce(nbytes=8),
        Barrier(),
    ], ntasks=2)
    result = run_workload(spec, wl)
    assert result.category_time("compute") > 0
    assert result.category_time("comm") > 0


def test_phase_accounting():
    spec = dmz()
    wl = OpsWorkload([
        Compute(flops=4.4e8, flop_efficiency=1.0, phase="fft"),
        Compute(flops=4.4e8, flop_efficiency=1.0, phase="direct"),
    ], ntasks=1)
    result = run_workload(spec, wl)
    assert result.phases() == ["direct", "fft"]
    assert result.phase_time("fft") == pytest.approx(0.1, rel=1e-3)
    assert result.phase_time("absent") == 0.0


def test_time_scale_multiplies_all_times():
    spec = dmz()
    base = OpsWorkload([Compute(flops=4.4e8, flop_efficiency=1.0, phase="p")],
                       ntasks=1)
    scaled = OpsWorkload([Compute(flops=4.4e8, flop_efficiency=1.0, phase="p")],
                         ntasks=1, time_scale=5.0)
    r1, r5 = run_workload(spec, base), run_workload(spec, scaled)
    assert r5.wall_time == pytest.approx(5 * r1.wall_time)
    assert r5.phase_time("p") == pytest.approx(5 * r1.phase_time("p"))


def test_halo_exchange_completes():
    spec = longs()

    class Halo(Workload):
        name = "halo"
        ntasks = 8

        def program(self, rank):
            p = self.ntasks
            for _ in range(3):
                yield Compute(flops=1e6, flop_efficiency=0.5)
                yield SendRecv(send_to=(rank + 1) % p,
                               recv_from=(rank - 1) % p, nbytes=64 * 1024)

    result = run_workload(spec, Halo(), AffinityScheme.ONE_MPI_LOCAL)
    assert result.wall_time > 0
    assert result.messages == 8 * 3


def test_ntasks_mismatch_raises():
    spec = dmz()
    aff = resolve_scheme(AffinityScheme.DEFAULT, spec, 2)
    runner = JobRunner(spec, aff)
    with pytest.raises(ValueError):
        runner.run(OpsWorkload([Compute(flops=1.0)], ntasks=3))


def test_unknown_op_raises():
    spec = dmz()

    class Bogus(Op):
        pass

    wl = OpsWorkload([Bogus()], ntasks=1)
    with pytest.raises(TypeError):
        run_workload(spec, wl)


def test_determinism_of_runs():
    spec = longs()
    wl = lambda: OpsWorkload([
        Compute(flops=1e7, dram_bytes=10 * MB, working_set=10 * MB),
        Allreduce(nbytes=1024),
    ], ntasks=8)
    t_a = run_workload(spec, wl(), AffinityScheme.TWO_MPI_LOCAL).wall_time
    t_b = run_workload(spec, wl(), AffinityScheme.TWO_MPI_LOCAL).wall_time
    assert t_a == t_b


def test_compute_validation():
    with pytest.raises(ValueError):
        Compute(flops=-1)
    with pytest.raises(ValueError):
        Compute(reuse=2.0)
    with pytest.raises(ValueError):
        Compute(flop_efficiency=0.0)


def test_fault_armed_mid_run_reaches_later_occurrences_of_a_shared_op():
    """Costs are taken per occurrence: a cache-way disable armed
    mid-run slows the later occurrences of a repeated op object."""
    from repro.faults import CacheDegrade, FaultPlan

    spec = longs()
    work = Compute(dram_bytes=2 * MB, working_set=1 * MB, reuse=0.9)
    affinity = resolve_scheme(AffinityScheme.DEFAULT, spec, 1)
    base = JobRunner(spec, affinity).run(OpsWorkload([work] * 4, ntasks=1))
    plan = FaultPlan(faults=(CacheDegrade(capacity_factor=0.1,
                                          start=base.wall_time / 2),))
    slowed = JobRunner(spec, affinity, faults=plan).run(
        OpsWorkload([work] * 4, ntasks=1))
    assert slowed.wall_time > base.wall_time


def test_micro_engine_comm_runs(capsys):
    from repro.bench.micro import main

    assert main(["--only", "engine-comm", "--repeat", "1",
                 "--number", "1"]) == 0
    assert "engine-comm" in capsys.readouterr().out
