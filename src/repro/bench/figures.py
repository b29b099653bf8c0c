"""Generators for every figure of the paper's evaluation (Figures 2–17).

Each ``figureNN()`` returns a :class:`~repro.core.report.SeriesResult`
(or :class:`TableResult` where the paper's figure is a bar chart over
configurations) containing the same series the paper plots, produced by
simulating the corresponding workload on the modeled systems.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Tuple

from ..core import (
    AffinityScheme,
    JobRequest,
    ResolvedAffinity,
    SeriesResult,
    TableResult,
    resolve_scheme,
)
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
from .common import (RUNTIME_CONFIGS, Row, Sweep, bound_spread_affinity,
                     read, sweep, sweep_cells)

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

@sweep("fig02", "fig03")
def _stream_rows() -> List[Row]:
    """Per system, triad on 1..all cores, filling sockets first."""
    return [(spec.name, tuple(
        JobRequest(spec, StreamTriad(ncores),
                   affinity=bound_spread_affinity(spec, ncores))
        for ncores in range(1, spec.total_cores + 1)))
        for spec in all_systems()]


def _stream_scaling() -> Iterator[Tuple[str, int, float]]:
    """(system, active cores, aggregate triad GB/s) points.

    Aggregate bandwidth is the sum of per-stream rates (lmbench
    convention), not total bytes over the slowest stream's time.
    """
    for system, cells, results in read(_stream_rows()):
        for cell, result in zip(cells, results):
            ncores = cell.workload.ntasks
            per_task = triad_bytes_moved(cell.workload) / ncores
            yield system, ncores, sum(
                per_task / result.phase_times[rank]["triad"]
                for rank in range(ncores)
            ) / GB


def figure02() -> SeriesResult:
    """Figure 2: aggregate memory bandwidth vs. active cores."""
    fig = SeriesResult(
        title="Figure 2: Memory bandwidth (STREAM triad)",
        x_label="active cores", y_label="aggregate GB/s",
    )
    for system, ncores, bandwidth in _stream_scaling():
        fig.add_point(system, ncores, bandwidth)
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
    for system, ncores, bandwidth in _stream_scaling():
        fig.add_point(system, ncores, bandwidth / ncores)
    return fig


# -- Figures 4-7: BLAS level 1 and 3 -------------------------------------------

DAXPY_LENGTHS = [1_000, 10_000, 100_000, 1_000_000, 4_000_000]
DGEMM_SIZES = [100, 250, 500, 1000, 1500]


def _blas_rows(workload_cls, sizes: List[int], vendor: bool) -> List[Row]:
    """One ``(tasks, size)`` row per cell, bound one core per socket
    first, on DMZ."""
    spec = dmz()
    return [((ntasks, n), (JobRequest(
        spec, workload_cls(ntasks, n, vendor=vendor),
        affinity=bound_spread_affinity(spec, ntasks)),))
        for ntasks in (1, 2, 4) for n in sizes]


_BLAS = {figure: Sweep(_blas_rows, workload_cls, sizes, vendor,
                       readers=(figure,))
         for figure, workload_cls, sizes, vendor in (
             ("fig04", DaxpyBench, DAXPY_LENGTHS, True),
             ("fig05", DaxpyBench, DAXPY_LENGTHS, False),
             ("fig06", DgemmBench, DGEMM_SIZES, True),
             ("fig07", DgemmBench, DGEMM_SIZES, False))}


def _blas_figure(title: str, figure: str) -> SeriesResult:
    fig = SeriesResult(title=title, x_label="problem size n",
                       y_label="GFlop/s", log_x=True)
    for (ntasks, n), (cell,), (result,) in read(_BLAS[figure]()):
        workload = cell.workload
        phase = "daxpy" if type(workload) is DaxpyBench else "dgemm"
        rate = workload.flops_per_task * ntasks / result.phase_time(phase)
        fig.add_point(f"Total ({ntasks} cores)", n, rate / 1e9)
        fig.add_point(f"{ntasks}T per core", n, rate / 1e9 / ntasks)
    return fig


def figure04() -> SeriesResult:
    """Figure 4: DAXPY performance, vendor (ACML) implementation."""
    return _blas_figure("Figure 4: BLAS1 DAXPY (ACML), DMZ", "fig04")


def figure05() -> SeriesResult:
    """Figure 5: DAXPY per-core performance, vanilla implementation."""
    return _blas_figure("Figure 5: BLAS1 DAXPY (vanilla) per core, DMZ",
                        "fig05")


def figure06() -> SeriesResult:
    """Figure 6: DGEMM performance, vendor (ACML) implementation."""
    return _blas_figure("Figure 6: BLAS3 DGEMM (ACML), DMZ", "fig06")


def figure07() -> SeriesResult:
    """Figure 7: DGEMM per-core performance, vanilla implementation."""
    return _blas_figure("Figure 7: BLAS3 DGEMM (vanilla) per core, DMZ",
                        "fig07")


# -- Figures 8-13: HPCC with LAM/NUMA runtime options ---------------------------

@sweep("fig08", "fig09", "fig10", "fig11", "fig12", "fig13")
def _hpcc_rows() -> List[Row]:
    """Per runtime configuration, each figure's HPCC cells on Longs
    under LAM; then the one DMZ cell Figure 8 adds."""
    msg = 1 << 20
    figures = (
        ("fig08", [HpccHpl(16)]),
        ("fig09", [HpccDgemm(16, mode="single"), HpccDgemm(16, mode="star"),
                   HpccFft(16, mode="single"), HpccFft(16, mode="star")]),
        ("fig10", [HpccStream(16, mode=m) for m in ("single", "star")]),
        ("fig11", [HpccRandomAccess(16, mode=m)
                   for m in ("single", "star", "mpi")]),
        ("fig12", [HpccPtrans(16), PingPong(msg, ntasks=16),
                   RingExchange(16, msg)]),
        ("fig13", [PingPong(8, ntasks=16), RingExchange(16, 8)]),
    )
    rows: List[Row] = [((label, figure), tuple(
        JobRequest(longs(), workload, scheme=scheme, impl=LAM, lock=lock)
        for workload in workloads))
        for label, scheme, lock in RUNTIME_CONFIGS
        for figure, workloads in figures]
    rows.append((("DMZ", "fig08"), (JobRequest(
        dmz(), HpccHpl(4), scheme=AffinityScheme.DEFAULT, impl=LAM,
        lock="sysv"),)))
    return rows


def _runtime_rows(figure: str) -> List[Row]:
    """Each runtime configuration's label and its cells for ``figure``."""
    return [(label, cells) for (label, name), cells in _hpcc_rows()
            if name == figure]


def figure08() -> TableResult:
    """Figure 8: HPL with the six LAM/NUMA options (Longs) plus DMZ."""
    table = TableResult(
        title="Figure 8: HPL performance with LAM/NUMA options (GFlop/s)",
        headers=["Configuration", "Longs (16 cores)", "DMZ (4 cores)"],
    )
    *configs, (_label, (cell_d,), (result_d,)) = read(
        _runtime_rows("fig08"))
    for label, (cell,), (result,) in configs:
        gflops_l = cell.workload.total_flops / result.wall_time / 1e9
        dmz_val = None
        if label == "Default":
            dmz_val = cell_d.workload.total_flops / result_d.wall_time / 1e9
        table.add_row(label, gflops_l, dmz_val)
    table.notes.append("DMZ is minimally affected by NUMA options; "
                       "a single DMZ result is shown (paper Section 3.3)")
    return table


def figure09() -> TableResult:
    """Figure 9: Single vs Star DGEMM and FFT with runtime options."""
    table = TableResult(
        title="Figure 9: processor performance with runtime options "
              "(GFlop/s per process)",
        headers=["Configuration", "Single DGEMM", "Star DGEMM",
                 "Single FFT", "Star FFT"],
    )
    for label, cells, results in read(_runtime_rows("fig09")):
        table.add_row(label, *[
            cell.workload.flops_per_task / result.phase_time(phase) / 1e9
            for cell, result, phase in zip(
                cells, results, ("dgemm", "dgemm", "fft", "fft"))])
    return table


def figure10() -> TableResult:
    """Figure 10: Single vs Star STREAM with runtime options."""
    table = TableResult(
        title="Figure 10: STREAM triad with LAM/NUMA options "
              "(GB/s per process)",
        headers=["Configuration", "Single STREAM", "Star STREAM",
                 "Single:Star ratio"],
    )
    for label, cells, results in read(_runtime_rows("fig10")):
        single, star = (cell.workload.bytes_per_task
                        / result.phase_time("triad") / GB
                        for cell, result in zip(cells, results))
        table.add_row(label, single, star, single / star)
    table.notes.append("ratios above 2 mean the second core causes a net "
                       "per-socket bandwidth loss (paper Section 3.3)")
    return table


def figure11() -> TableResult:
    """Figure 11: Single vs Star RandomAccess with runtime options."""
    table = TableResult(
        title="Figure 11: RandomAccess with LAM/NUMA options "
              "(MUP/s per process)",
        headers=["Configuration", "Single RA", "Star RA", "MPI RA"],
    )
    for label, cells, results in read(_runtime_rows("fig11")):
        table.add_row(label, *[
            cell.workload.updates / (result.phase_time("ra")
                                     + result.phase_time("ra-exchange")) / 1e6
            for cell, result in zip(cells, results)])
    return table


def figure12() -> TableResult:
    """Figure 12: PTRANS and Ring/PingPong bandwidth with runtime options."""
    table = TableResult(
        title="Figure 12: communication bandwidth with LAM/NUMA options",
        headers=["Configuration", "PTRANS (GB/s)",
                 "PingPong bw (MB/s)", "Ring bw (MB/s)"],
    )
    msg = 1 << 20
    for label, (ptrans, pp, ring), (result, pp_result, ring_result) in read(
            _runtime_rows("fig12")):
        # total matrix volume crossing the network over the exchange phase
        ptrans_bw = (8.0 * ptrans.workload.n ** 2
                     / result.phase_time("exchange") / GB)
        pp_bw = msg / pingpong_oneway_time(
            pp_result.phase_time("pingpong"), pp.workload.reps) / MB
        ring_bw = (msg * ring.workload.reps
                   / ring_result.phase_time("ring") / MB)
        table.add_row(label, ptrans_bw, pp_bw, ring_bw)
    table.notes.append("USysV spin locks give PTRANS a clear advantage "
                       "over SysV semaphores (paper Section 3.3)")
    return table


def figure13() -> TableResult:
    """Figure 13: Ring/PingPong latency with runtime options."""
    table = TableResult(
        title="Figure 13: communication latency with LAM/NUMA options (us)",
        headers=["Configuration", "PingPong latency", "Ring latency"],
    )
    for label, (pp, ring), (pp_result, ring_result) in read(
            _runtime_rows("fig13")):
        pp_lat = pingpong_oneway_time(pp_result.phase_time("pingpong"),
                                      pp.workload.reps) * US
        ring_lat = ring_result.phase_time("ring") / ring.workload.reps * US
        table.add_row(label, pp_lat, ring_lat)
    table.notes.append("ring latencies exceed PingPong; SysV overwhelms both "
                       "(paper Section 3.3)")
    return table


# -- Figures 14-15: IMB across MPI implementations ---------------------------------

IMB_SWEEP = [64, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304]


def _imb_impl_build() -> List[Row]:
    """One ``(implementation, bytes)`` row per size: its PingPong cell
    (Figure 14), then its Exchange cell (Figure 15), on DMZ."""
    spec = dmz()
    return [((impl.name, nbytes), (
        JobRequest(spec, ImbPingPong(nbytes), AffinityScheme.DEFAULT,
                   impl=impl),
        JobRequest(spec, ImbExchange(2, nbytes), AffinityScheme.DEFAULT,
                   impl=impl)))
        for impl in (MPICH2, LAM, OPENMPI) for nbytes in IMB_SWEEP]


_IMB_IMPL = Sweep(_imb_impl_build, columns=(("fig14",), ("fig15",)))


def _imb_impl_results(column: int):
    """``(implementation, bytes, result)`` of one column of the sweep."""
    return [(impl, nbytes, result) for (impl, nbytes), _cells, (result,)
            in read([(label, cells[column:column + 1])
                     for label, cells in _IMB_IMPL()])]


def figure14() -> SeriesResult:
    """Figure 14: IMB PingPong bandwidth across MPI implementations."""
    fig = SeriesResult(
        title="Figure 14: intra-node IMB PingPong bandwidth (DMZ)",
        x_label="message bytes", y_label="MB/s", log_x=True,
    )
    for impl, nbytes, result in _imb_impl_results(0):
        t = pingpong_oneway_time(result.phase_time("pingpong"), 20)
        fig.add_point(impl, nbytes, nbytes / t / MB)
    return fig


def figure14_latency() -> SeriesResult:
    """Figure 14 (latency panel): IMB PingPong one-way time."""
    fig = SeriesResult(
        title="Figure 14 (latency): intra-node IMB PingPong (DMZ)",
        x_label="message bytes", y_label="us", log_x=True,
    )
    for impl, nbytes, result in _imb_impl_results(0):
        t = pingpong_oneway_time(result.phase_time("pingpong"), 20)
        fig.add_point(impl, nbytes, t * US)
    return fig


def figure15() -> SeriesResult:
    """Figure 15: IMB Exchange bandwidth across MPI implementations."""
    fig = SeriesResult(
        title="Figure 15: intra-node IMB Exchange bandwidth (DMZ)",
        x_label="message bytes", y_label="MB/s", log_x=True,
    )
    for impl, nbytes, result in _imb_impl_results(1):
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
    for impl, nbytes, result in _imb_impl_results(1):
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


def _affinity_build() -> List[Row]:
    """One ``(configuration, bytes)`` row per size: its OpenMPI PingPong
    cell (Figure 16), then its Exchange cell (Figure 17), on DMZ."""
    spec = dmz()
    return [((label, nbytes), (
        JobRequest(spec, ImbPingPong(nbytes, ntasks=2), impl=OPENMPI,
                   **kwargs),
        JobRequest(spec, ImbExchange(2, nbytes), impl=OPENMPI, **kwargs)))
        for label, kwargs in _affinity_configs(spec) for nbytes in IMB_SWEEP]


_AFFINITY = Sweep(_affinity_build, columns=(("fig16",), ("fig17",)))


@sweep("fig17")
def _four_procs_rows() -> List[Row]:
    """Figure 17's extra "4 procs" OpenMPI Exchange cells."""
    spec = dmz()
    return [(nbytes, (JobRequest(spec, ImbExchange(4, nbytes),
                                 AffinityScheme.DEFAULT, impl=OPENMPI),))
            for nbytes in IMB_SWEEP]


def _affinity_figure(column: int, title: str, metric: str) -> SeriesResult:
    phase = ("pingpong", "exchange")[column]
    fig = SeriesResult(title=title, x_label="message bytes",
                       y_label=metric, log_x=True)
    for (label, nbytes), _cells, (result,) in read(
            [(label, cells[column:column + 1])
             for label, cells in _AFFINITY()]):
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
        0, "Figure 16: intra-node OpenMPI PingPong with affinity (DMZ)",
        "MB/s")


def figure16_latency() -> SeriesResult:
    """Figure 16 (latency panel)."""
    return _affinity_figure(
        0, "Figure 16 (latency): OpenMPI PingPong with affinity (DMZ)", "us")


def figure17() -> SeriesResult:
    """Figure 17: OpenMPI Exchange bandwidth with scheduler affinity."""
    fig = _affinity_figure(
        1, "Figure 17: intra-node OpenMPI Exchange with affinity (DMZ)",
        "MB/s")
    # the paper's extra "4 procs" configuration
    for nbytes, _cells, (result,) in read(_four_procs_rows()):
        fig.add_point("4 procs", nbytes,
                      exchange_bandwidth(result.phase_time("exchange"),
                                         20, nbytes) / MB)
    return fig


def figure17_latency() -> SeriesResult:
    """Figure 17 (latency panel)."""
    return _affinity_figure(
        1, "Figure 17 (latency): OpenMPI Exchange with affinity (DMZ)", "us")


# -- Parallel prefetch -------------------------------------------------------

#: every figure's sweeps, in the order the prefetch lists their cells
_SWEEPS = (_stream_rows, *_BLAS.values(), _hpcc_rows, _IMB_IMPL, _AFFINITY,
           _four_procs_rows)


def figure_requests(targets: Optional[Iterable[str]] = None
                    ) -> List[JobRequest]:
    """Every simulation cell behind Figures 2-17 as cacheable requests.

    Feeding this list through :func:`repro.core.parallel.run_requests`
    warms the content-addressed cache in parallel; the figure builders
    above then read the same instances as cache hits.  Requests are
    content-keyed, so duplicates across figures (the latency panels
    reuse the bandwidth runs) cost nothing.  ``targets`` limits the
    list to the named figures (``fig14``, ``fig14lat``, ...).
    """
    return sweep_cells(_SWEEPS, None if targets is None
                       else {name[:5] for name in targets})
