"""Generators for every figure of the paper's evaluation (Figures 2–17).

Each ``figureNN()`` returns a :class:`~repro.core.report.SeriesResult`
(or :class:`TableResult` where the paper's figure is a bar chart over
configurations) containing the same series the paper plots, produced by
simulating the corresponding workload on the modeled systems.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..core import (
    AffinityScheme,
    JobResult,
    ResolvedAffinity,
    SeriesResult,
    TableResult,
    resolve_scheme,
)
from ..core.affinity import ResolvedAffinity
from ..kernels.hpl import hpl_flops
from ..machine import GB, MachineSpec, all_systems, dmz, longs
from ..mpi import LAM, MPICH2, OPENMPI
from ..numa import LocalAlloc
from ..osmodel import Placement
from ..workloads import (
    DaxpyBench,
    DgemmBench,
    HpccDgemm,
    HpccFft,
    HpccHpl,
    HpccPtrans,
    HpccRandomAccess,
    HpccStream,
    ImbExchange,
    ImbPingPong,
    PingPong,
    RingExchange,
    StreamTriad,
    exchange_bandwidth,
    pingpong_oneway_time,
    triad_bytes_moved,
)
from ..core.parallel import JobRequest
from .common import RUNTIME_CONFIGS, bound_spread_affinity, run

__all__ = [
    "figure02", "figure03", "figure04", "figure05", "figure06", "figure07",
    "figure08", "figure09", "figure10", "figure11", "figure12", "figure13",
    "figure14", "figure14_latency", "figure15", "figure15_latency",
    "figure16", "figure16_latency", "figure17", "figure17_latency",
    "figure_requests",
]

MB = 1e6
US = 1e6  # seconds -> microseconds


# -- Figures 2 and 3: STREAM bandwidth scaling -------------------------------

def _stream_scaling(spec: MachineSpec) -> List[Tuple[int, float]]:
    """(active cores, aggregate triad GB/s), filling sockets first.

    Aggregate bandwidth is the sum of per-stream rates (lmbench
    convention), not total bytes over the slowest stream's time.
    """
    points = []
    for ncores in range(1, spec.total_cores + 1):
        workload = StreamTriad(ncores)
        result = run(spec, workload,
                     affinity=bound_spread_affinity(spec, ncores))
        per_task = triad_bytes_moved(workload) / ncores
        bandwidth = sum(
            per_task / result.phase_times[rank]["triad"]
            for rank in range(ncores)
        )
        points.append((ncores, bandwidth / GB))
    return points


def figure02() -> SeriesResult:
    """Figure 2: aggregate memory bandwidth vs. active cores."""
    fig = SeriesResult(
        title="Figure 2: Memory bandwidth (STREAM triad)",
        x_label="active cores", y_label="aggregate GB/s",
    )
    for spec in all_systems():
        for ncores, bandwidth in _stream_scaling(spec):
            fig.add_point(spec.name, ncores, bandwidth)
    fig.notes.append(
        "first core of each socket is activated before any second core"
    )
    return fig


def figure03() -> SeriesResult:
    """Figure 3: memory bandwidth per core."""
    fig = SeriesResult(
        title="Figure 3: Memory bandwidth per core (STREAM triad)",
        x_label="active cores", y_label="GB/s per core",
    )
    for spec in all_systems():
        for ncores, bandwidth in _stream_scaling(spec):
            fig.add_point(spec.name, ncores, bandwidth / ncores)
    return fig


# -- Figures 4-7: BLAS level 1 and 3 -------------------------------------------

DAXPY_LENGTHS = [1_000, 10_000, 100_000, 1_000_000, 4_000_000]
DGEMM_SIZES = [100, 250, 500, 1000, 1500]


def _blas_figure(title: str, workload_cls, sizes: List[int],
                 vendor: bool) -> SeriesResult:
    spec = dmz()
    fig = SeriesResult(title=title, x_label="problem size n",
                       y_label="GFlop/s", log_x=True)
    for ntasks in (1, 2, 4):
        for n in sizes:
            workload = workload_cls(ntasks, n, vendor=vendor)
            result = run(spec, workload,
                         affinity=bound_spread_affinity(spec, ntasks))
            phase = "daxpy" if workload_cls is DaxpyBench else "dgemm"
            rate = workload.flops_per_task * ntasks / result.phase_time(phase)
            fig.add_point(f"Total ({ntasks} cores)", n, rate / 1e9)
            fig.add_point(f"{ntasks}T per core", n, rate / 1e9 / ntasks)
    return fig


def figure04() -> SeriesResult:
    """Figure 4: DAXPY performance, vendor (ACML) implementation."""
    return _blas_figure("Figure 4: BLAS1 DAXPY (ACML), DMZ",
                        DaxpyBench, DAXPY_LENGTHS, vendor=True)


def figure05() -> SeriesResult:
    """Figure 5: DAXPY per-core performance, vanilla implementation."""
    return _blas_figure("Figure 5: BLAS1 DAXPY (vanilla) per core, DMZ",
                        DaxpyBench, DAXPY_LENGTHS, vendor=False)


def figure06() -> SeriesResult:
    """Figure 6: DGEMM performance, vendor (ACML) implementation."""
    return _blas_figure("Figure 6: BLAS3 DGEMM (ACML), DMZ",
                        DgemmBench, DGEMM_SIZES, vendor=True)


def figure07() -> SeriesResult:
    """Figure 7: DGEMM per-core performance, vanilla implementation."""
    return _blas_figure("Figure 7: BLAS3 DGEMM (vanilla) per core, DMZ",
                        DgemmBench, DGEMM_SIZES, vendor=False)


# -- Figures 8-13: HPCC with LAM/NUMA runtime options ---------------------------

def _hpcc_run(spec: MachineSpec, workload, scheme: AffinityScheme,
              lock: str) -> JobResult:
    return run(spec, workload, scheme, impl=LAM, lock=lock)


def figure08() -> TableResult:
    """Figure 8: HPL with the six LAM/NUMA options (Longs) plus DMZ."""
    table = TableResult(
        title="Figure 8: HPL performance with LAM/NUMA options (GFlop/s)",
        headers=["Configuration", "Longs (16 cores)", "DMZ (4 cores)"],
    )
    spec_l, spec_d = longs(), dmz()
    hpl_l, hpl_d = HpccHpl(16), HpccHpl(4)
    for label, scheme, lock in RUNTIME_CONFIGS:
        result = _hpcc_run(spec_l, hpl_l, scheme, lock)
        gflops_l = hpl_l.total_flops / result.wall_time / 1e9
        dmz_val = None
        if label == "Default":
            result_d = _hpcc_run(spec_d, hpl_d, scheme, lock)
            dmz_val = hpl_d.total_flops / result_d.wall_time / 1e9
        table.add_row(label, gflops_l, dmz_val)
    table.notes.append("DMZ is minimally affected by NUMA options; "
                       "a single DMZ result is shown (paper Section 3.3)")
    return table


def figure09() -> TableResult:
    """Figure 9: Single vs Star DGEMM and FFT with runtime options."""
    spec = longs()
    table = TableResult(
        title="Figure 9: processor performance with runtime options "
              "(GFlop/s per process)",
        headers=["Configuration", "Single DGEMM", "Star DGEMM",
                 "Single FFT", "Star FFT"],
    )
    for label, scheme, lock in RUNTIME_CONFIGS:
        row: List = [label]
        for workload_cls in (HpccDgemm, HpccFft):
            for mode in ("single", "star"):
                workload = workload_cls(16, mode=mode)
                result = _hpcc_run(spec, workload, scheme, lock)
                phase = "dgemm" if workload_cls is HpccDgemm else "fft"
                row.append(workload.flops_per_task
                           / result.phase_time(phase) / 1e9)
        table.add_row(row[0], row[1], row[2], row[3], row[4])
    return table


def figure10() -> TableResult:
    """Figure 10: Single vs Star STREAM with runtime options."""
    spec = longs()
    table = TableResult(
        title="Figure 10: STREAM triad with LAM/NUMA options "
              "(GB/s per process)",
        headers=["Configuration", "Single STREAM", "Star STREAM",
                 "Single:Star ratio"],
    )
    for label, scheme, lock in RUNTIME_CONFIGS:
        values = {}
        for mode in ("single", "star"):
            workload = HpccStream(16, mode=mode)
            result = _hpcc_run(spec, workload, scheme, lock)
            values[mode] = (workload.bytes_per_task
                            / result.phase_time("triad") / GB)
        table.add_row(label, values["single"], values["star"],
                      values["single"] / values["star"])
    table.notes.append("ratios above 2 mean the second core causes a net "
                       "per-socket bandwidth loss (paper Section 3.3)")
    return table


def figure11() -> TableResult:
    """Figure 11: Single vs Star RandomAccess with runtime options."""
    spec = longs()
    table = TableResult(
        title="Figure 11: RandomAccess with LAM/NUMA options "
              "(MUP/s per process)",
        headers=["Configuration", "Single RA", "Star RA", "MPI RA"],
    )
    for label, scheme, lock in RUNTIME_CONFIGS:
        row: List = [label]
        for mode in ("single", "star", "mpi"):
            workload = HpccRandomAccess(16, mode=mode)
            result = _hpcc_run(spec, workload, scheme, lock)
            phase_total = (result.phase_time("ra")
                           + result.phase_time("ra-exchange"))
            row.append(workload.updates / phase_total / 1e6)
        table.add_row(*row)
    return table


def figure12() -> TableResult:
    """Figure 12: PTRANS and Ring/PingPong bandwidth with runtime options."""
    spec = longs()
    table = TableResult(
        title="Figure 12: communication bandwidth with LAM/NUMA options",
        headers=["Configuration", "PTRANS (GB/s)",
                 "PingPong bw (MB/s)", "Ring bw (MB/s)"],
    )
    msg = 1 << 20
    for label, scheme, lock in RUNTIME_CONFIGS:
        ptrans = HpccPtrans(16)
        result = _hpcc_run(spec, ptrans, scheme, lock)
        # total matrix volume crossing the network over the exchange phase
        ptrans_bw = 8.0 * ptrans.n ** 2 / result.phase_time("exchange") / GB
        pp = PingPong(msg, ntasks=16)
        pp_result = _hpcc_run(spec, pp, scheme, lock)
        pp_bw = msg / pingpong_oneway_time(
            pp_result.phase_time("pingpong"), pp.reps) / MB
        ring = RingExchange(16, msg)
        ring_result = _hpcc_run(spec, ring, scheme, lock)
        ring_bw = msg * ring.reps / ring_result.phase_time("ring") / MB
        table.add_row(label, ptrans_bw, pp_bw, ring_bw)
    table.notes.append("USysV spin locks give PTRANS a clear advantage "
                       "over SysV semaphores (paper Section 3.3)")
    return table


def figure13() -> TableResult:
    """Figure 13: Ring/PingPong latency with runtime options."""
    spec = longs()
    table = TableResult(
        title="Figure 13: communication latency with LAM/NUMA options (us)",
        headers=["Configuration", "PingPong latency", "Ring latency"],
    )
    for label, scheme, lock in RUNTIME_CONFIGS:
        pp = PingPong(8, ntasks=16)
        pp_result = _hpcc_run(spec, pp, scheme, lock)
        pp_lat = pingpong_oneway_time(pp_result.phase_time("pingpong"),
                                      pp.reps) * US
        ring = RingExchange(16, 8)
        ring_result = _hpcc_run(spec, ring, scheme, lock)
        ring_lat = ring_result.phase_time("ring") / ring.reps * US
        table.add_row(label, pp_lat, ring_lat)
    table.notes.append("ring latencies exceed PingPong; SysV overwhelms both "
                       "(paper Section 3.3)")
    return table


# -- Figures 14-15: IMB across MPI implementations ---------------------------------

IMB_SWEEP = [64, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304]


def _imb_impl_results(workload_cls) -> Dict[str, Dict[int, JobResult]]:
    spec = dmz()
    out: Dict[str, Dict[int, JobResult]] = {}
    for impl in (MPICH2, LAM, OPENMPI):
        out[impl.name] = {}
        for nbytes in IMB_SWEEP:
            workload = (workload_cls(nbytes)
                        if workload_cls is ImbPingPong
                        else workload_cls(2, nbytes))
            out[impl.name][nbytes] = run(spec, workload,
                                         AffinityScheme.DEFAULT, impl=impl)
    return out


def figure14() -> SeriesResult:
    """Figure 14: IMB PingPong bandwidth across MPI implementations."""
    fig = SeriesResult(
        title="Figure 14: intra-node IMB PingPong bandwidth (DMZ)",
        x_label="message bytes", y_label="MB/s", log_x=True,
    )
    for impl, results in _imb_impl_results(ImbPingPong).items():
        for nbytes, result in results.items():
            t = pingpong_oneway_time(result.phase_time("pingpong"), 20)
            fig.add_point(impl, nbytes, nbytes / t / MB)
    return fig


def figure14_latency() -> SeriesResult:
    """Figure 14 (latency panel): IMB PingPong one-way time."""
    fig = SeriesResult(
        title="Figure 14 (latency): intra-node IMB PingPong (DMZ)",
        x_label="message bytes", y_label="us", log_x=True,
    )
    for impl, results in _imb_impl_results(ImbPingPong).items():
        for nbytes, result in results.items():
            t = pingpong_oneway_time(result.phase_time("pingpong"), 20)
            fig.add_point(impl, nbytes, t * US)
    return fig


def figure15() -> SeriesResult:
    """Figure 15: IMB Exchange bandwidth across MPI implementations."""
    fig = SeriesResult(
        title="Figure 15: intra-node IMB Exchange bandwidth (DMZ)",
        x_label="message bytes", y_label="MB/s", log_x=True,
    )
    for impl, results in _imb_impl_results(ImbExchange).items():
        for nbytes, result in results.items():
            fig.add_point(impl, nbytes,
                          exchange_bandwidth(result.phase_time("exchange"),
                                             20, nbytes) / MB)
    return fig


def figure15_latency() -> SeriesResult:
    """Figure 15 (latency panel): IMB Exchange per-repetition time."""
    fig = SeriesResult(
        title="Figure 15 (latency): intra-node IMB Exchange (DMZ)",
        x_label="message bytes", y_label="us per repetition", log_x=True,
    )
    for impl, results in _imb_impl_results(ImbExchange).items():
        for nbytes, result in results.items():
            fig.add_point(impl, nbytes,
                          result.phase_time("exchange") / 20 * US)
    return fig


# -- Figures 16-17: OpenMPI with scheduler affinity ---------------------------------

def _packed_socket_affinity(spec: MachineSpec, socket_id: int,
                            ntasks: int = 2) -> ResolvedAffinity:
    """Both processes bound to one dual-core socket, local allocation."""
    cores = tuple(socket_id * spec.cores_per_socket + i for i in range(ntasks))
    placement = Placement(cores, spec.cores_per_socket, bound=True)
    return ResolvedAffinity(
        scheme=AffinityScheme.DEFAULT, spec=spec, placement=placement,
        policies=tuple(LocalAlloc() for _ in range(ntasks)),
        numactl=resolve_scheme(AffinityScheme.DEFAULT, spec, ntasks).numactl,
    )


def _affinity_configs(spec: MachineSpec):
    """The Figure 16/17 process configurations."""
    return [
        ("2 procs, bound 0",
         dict(affinity=_packed_socket_affinity(spec, 0))),
        ("2 procs, bound 1",
         dict(affinity=_packed_socket_affinity(spec, 1))),
        ("2 procs, unbound", dict(scheme=AffinityScheme.DEFAULT)),
        ("2 procs, unbound, 2 parked",
         dict(scheme=AffinityScheme.DEFAULT, parked=2)),
    ]


def _affinity_figure(workload_factory, phase: str, title: str,
                     metric: str) -> SeriesResult:
    spec = dmz()
    fig = SeriesResult(title=title, x_label="message bytes",
                       y_label=metric, log_x=True)
    for label, kwargs in _affinity_configs(spec):
        for nbytes in IMB_SWEEP:
            workload = workload_factory(nbytes, 2)
            result = run(spec, workload, impl=OPENMPI, **kwargs)
            if phase == "pingpong":
                t = pingpong_oneway_time(result.phase_time(phase), 20)
                value = nbytes / t / MB if metric == "MB/s" else t * US
            else:
                if metric == "MB/s":
                    value = exchange_bandwidth(result.phase_time(phase),
                                               20, nbytes) / MB
                else:
                    value = result.phase_time(phase) / 20 * US
            fig.add_point(label, nbytes, value)
    return fig


def figure16() -> SeriesResult:
    """Figure 16: OpenMPI PingPong bandwidth with scheduler affinity."""
    return _affinity_figure(
        lambda n, p: ImbPingPong(n, ntasks=p), "pingpong",
        "Figure 16: intra-node OpenMPI PingPong with affinity (DMZ)", "MB/s")


def figure16_latency() -> SeriesResult:
    """Figure 16 (latency panel)."""
    return _affinity_figure(
        lambda n, p: ImbPingPong(n, ntasks=p), "pingpong",
        "Figure 16 (latency): OpenMPI PingPong with affinity (DMZ)", "us")


def figure17() -> SeriesResult:
    """Figure 17: OpenMPI Exchange bandwidth with scheduler affinity."""
    fig = _affinity_figure(
        lambda n, p: ImbExchange(p, n), "exchange",
        "Figure 17: intra-node OpenMPI Exchange with affinity (DMZ)", "MB/s")
    # the paper's extra "4 procs" configuration
    spec = dmz()
    for nbytes in IMB_SWEEP:
        workload = ImbExchange(4, nbytes)
        result = run(spec, workload, AffinityScheme.DEFAULT, impl=OPENMPI)
        fig.add_point("4 procs", nbytes,
                      exchange_bandwidth(result.phase_time("exchange"),
                                         20, nbytes) / MB)
    return fig


def figure17_latency() -> SeriesResult:
    """Figure 17 (latency panel)."""
    return _affinity_figure(
        lambda n, p: ImbExchange(p, n), "exchange",
        "Figure 17 (latency): OpenMPI Exchange with affinity (DMZ)", "us")


# -- Parallel prefetch -------------------------------------------------------

def figure_requests(targets: Optional[Iterable[str]] = None
                    ) -> List[JobRequest]:
    """Every simulation cell behind Figures 2-17 as cacheable requests.

    Feeding this list through :func:`repro.core.parallel.run_requests`
    warms the content-addressed cache in parallel; the figure builders
    above then assemble their series from cache hits.  Requests are
    content-keyed, so duplicates across figures (the latency panels
    reuse the bandwidth runs) cost nothing.  ``targets`` limits the
    list to the named figures (``fig14``, ``fig14lat``, ...).
    """
    wanted = None if targets is None else {name[:5] for name in targets}

    def want(*figures: str) -> bool:
        return wanted is None or not wanted.isdisjoint(figures)

    requests: List[JobRequest] = []
    # Figures 2/3: STREAM scaling on every system.
    if want("fig02", "fig03"):
        for spec in all_systems():
            for ncores in range(1, spec.total_cores + 1):
                requests.append(JobRequest(
                    spec=spec, workload=StreamTriad(ncores),
                    affinity=bound_spread_affinity(spec, ncores)))
    # Figures 4-7: BLAS on DMZ, vendor and vanilla.
    spec_d = dmz()
    for figure, workload_cls, sizes, vendor in (
            ("fig04", DaxpyBench, DAXPY_LENGTHS, True),
            ("fig05", DaxpyBench, DAXPY_LENGTHS, False),
            ("fig06", DgemmBench, DGEMM_SIZES, True),
            ("fig07", DgemmBench, DGEMM_SIZES, False)):
        if not want(figure):
            continue
        for ntasks in (1, 2, 4):
            for n in sizes:
                requests.append(JobRequest(
                    spec=spec_d,
                    workload=workload_cls(ntasks, n, vendor=vendor),
                    affinity=bound_spread_affinity(spec_d, ntasks)))
    # Figures 8-13: HPCC under the six LAM/NUMA runtime configurations.
    if want("fig08", "fig09", "fig10", "fig11", "fig12", "fig13"):
        spec_l = longs()
        msg = 1 << 20
        hpcc_workloads = [
            HpccHpl(16),
            HpccDgemm(16, mode="single"), HpccDgemm(16, mode="star"),
            HpccFft(16, mode="single"), HpccFft(16, mode="star"),
            HpccStream(16, mode="single"), HpccStream(16, mode="star"),
            HpccRandomAccess(16, mode="single"),
            HpccRandomAccess(16, mode="star"),
            HpccRandomAccess(16, mode="mpi"),
            HpccPtrans(16),
            PingPong(msg, ntasks=16), RingExchange(16, msg),
            PingPong(8, ntasks=16), RingExchange(16, 8),
        ]
        for _label, scheme, lock in RUNTIME_CONFIGS:
            for workload in hpcc_workloads:
                requests.append(JobRequest(
                    spec=spec_l, workload=workload, scheme=scheme,
                    impl=LAM, lock=lock))
        requests.append(JobRequest(
            spec=spec_d, workload=HpccHpl(4), scheme=AffinityScheme.DEFAULT,
            impl=LAM, lock="sysv"))
    # Figures 14/15: IMB across MPI implementations on DMZ.
    for impl in (MPICH2, LAM, OPENMPI):
        for nbytes in IMB_SWEEP:
            if want("fig14"):
                requests.append(JobRequest(
                    spec=spec_d, workload=ImbPingPong(nbytes),
                    scheme=AffinityScheme.DEFAULT, impl=impl))
            if want("fig15"):
                requests.append(JobRequest(
                    spec=spec_d, workload=ImbExchange(2, nbytes),
                    scheme=AffinityScheme.DEFAULT, impl=impl))
    # Figures 16/17: OpenMPI with scheduler affinity on DMZ.
    for _label, kwargs in _affinity_configs(spec_d):
        for nbytes in IMB_SWEEP:
            if want("fig16"):
                requests.append(JobRequest(
                    spec=spec_d, workload=ImbPingPong(nbytes, ntasks=2),
                    impl=OPENMPI, **kwargs))
            if want("fig17"):
                requests.append(JobRequest(
                    spec=spec_d, workload=ImbExchange(2, nbytes),
                    impl=OPENMPI, **kwargs))
    if want("fig17"):
        for nbytes in IMB_SWEEP:
            requests.append(JobRequest(
                spec=spec_d, workload=ImbExchange(4, nbytes),
                scheme=AffinityScheme.DEFAULT, impl=OPENMPI))
    return requests
