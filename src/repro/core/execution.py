"""The job runtime: executes workloads on a machine under an affinity scheme.

:class:`JobRunner` spawns one discrete-event process per MPI rank.  Each
rank walks its workload program and converts every operation descriptor
into engine activity:

* ``Compute`` — the flop time and the (cache-filtered, NUMA-distributed)
  DRAM traffic run concurrently (a core overlaps computation with its
  outstanding memory stream); dependent ``random_accesses`` are charged
  serially at the placement's expected NUMA latency with a
  contention-aware queueing term.
* communication ops — delegated to the simulated MPI world, whose copies
  contend with the compute traffic on the same memory controllers.

The runner accounts wall time, per-rank busy time by category
(compute / memory / communication) and by workload phase, scaled by the
workload's ``time_scale``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from ..machine.topology import MachineSpec
from ..mpi.implementations import MpiImplementation, OPENMPI
from .affinity import AffinityScheme, ResolvedAffinity, resolve_scheme
from .ops import (
    Allgather,
    Allreduce,
    Alltoall,
    Barrier,
    Bcast,
    Compute,
    MarkerStart,
    MarkerStop,
    Op,
    Recv,
    Reduce,
    Send,
    SendRecv,
)
from .workload import Workload

if TYPE_CHECKING:
    from ..faults.plan import FaultPlan
    from ..perfctr.counters import PerfSession

__all__ = ["JobResult", "JobRunner", "run_workload"]


@dataclass
class JobResult:
    """Outcome of one simulated job."""

    workload: str
    system: str
    scheme: str
    ntasks: int
    #: end-to-end wall time (seconds, already time_scale-adjusted)
    wall_time: float
    #: per-rank completion times
    rank_times: List[float]
    #: per-rank seconds by category: "compute", "memory_latency", "comm"
    category_times: List[Dict[str, float]]
    #: per-rank seconds by workload phase label
    phase_times: List[Dict[str, float]]
    #: total MPI messages / bytes
    messages: int = 0
    bytes_sent: int = 0
    #: perfctr snapshot (profiled runs only; ``None`` keeps the cache
    #: JSON of unprofiled results byte-identical to pre-profiling runs)
    perf: Optional[Dict] = None
    #: fault-injection summary (faulted runs only; ``None`` keeps the
    #: cache JSON of healthy results byte-identical to pre-faults runs)
    faults: Optional[Dict] = None

    def phase_time(self, phase: str) -> float:
        """Critical-path time of one phase (max over ranks)."""
        return max((pt.get(phase, 0.0) for pt in self.phase_times), default=0.0)

    def category_time(self, category: str) -> float:
        """Max over ranks of time spent in one category."""
        return max((ct.get(category, 0.0) for ct in self.category_times),
                   default=0.0)

    def phases(self) -> List[str]:
        """All phase labels observed, sorted."""
        labels = set()
        for pt in self.phase_times:
            labels.update(pt)
        return sorted(labels)

    def to_dict(self) -> Dict:
        """JSON-serializable form for the on-disk result cache.

        Floats survive ``json`` round trips exactly (shortest-repr), so
        ``from_dict(json.loads(json.dumps(to_dict())))`` reproduces this
        result bit-for-bit — the property the cache's bit-identical
        guarantee rests on.
        """
        data = {
            "workload": self.workload,
            "system": self.system,
            "scheme": self.scheme,
            "ntasks": self.ntasks,
            "wall_time": self.wall_time,
            "rank_times": list(self.rank_times),
            "category_times": [dict(ct) for ct in self.category_times],
            "phase_times": [dict(pt) for pt in self.phase_times],
            "messages": self.messages,
            "bytes_sent": self.bytes_sent,
        }
        if self.perf is not None:
            data["perf"] = self.perf
        if self.faults is not None:
            data["faults"] = self.faults
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "JobResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            workload=data["workload"],
            system=data["system"],
            scheme=data["scheme"],
            ntasks=data["ntasks"],
            wall_time=data["wall_time"],
            rank_times=list(data["rank_times"]),
            category_times=[dict(ct) for ct in data["category_times"]],
            phase_times=[dict(pt) for pt in data["phase_times"]],
            messages=data["messages"],
            bytes_sent=data["bytes_sent"],
            perf=data.get("perf"),
            faults=data.get("faults"),
        )


class JobRunner:
    """Executes one workload under one resolved affinity configuration."""

    def __init__(self, spec: MachineSpec, affinity: ResolvedAffinity,
                 impl: MpiImplementation = OPENMPI,
                 lock: Optional[str] = None,
                 trace: bool = False,
                 profile: bool = False,
                 perf: Optional[PerfSession] = None,
                 faults: Optional[FaultPlan] = None):
        # the engine loads with the first runner, not with the cell
        # value that a warm (cached) run decodes
        from ..machine.machine import Machine
        from ..mpi.simmpi import MpiWorld
        from ..perfctr.counters import CACHE_LINE, PerfSession
        from ..sim.trace import Tracer

        if affinity.spec.name != spec.name:
            raise ValueError("affinity was resolved for a different system")
        self._cache_line = CACHE_LINE
        self.spec = spec
        self.affinity = affinity
        if perf is None and profile:
            perf = PerfSession()
        self.perf = perf
        self.machine = Machine(spec, tracer=Tracer(enabled=trace), perf=perf,
                               fault_plan=faults)
        self.world = MpiWorld(
            self.machine,
            affinity.placement,
            impl=impl,
            lock=lock,
            buffer_nodes=affinity.buffer_nodes(),
            overhead_multiplier=1.0 + affinity.scheduler_noise,
        )
        # Static contention estimate for latency-bound accesses: the
        # expected number of competing request streams per controller.
        self._sharers = affinity.controller_sharers()

    def run(self, workload: Workload) -> JobResult:
        """Simulate the workload to completion and gather accounting."""
        workload.validate()
        if workload.ntasks != self.affinity.ntasks:
            raise ValueError(
                f"workload wants {workload.ntasks} ranks but affinity "
                f"provides {self.affinity.ntasks}"
            )
        n = workload.ntasks
        rank_times = [0.0] * n
        category_times: List[Dict[str, float]] = [dict() for _ in range(n)]
        phase_times: List[Dict[str, float]] = [dict() for _ in range(n)]

        perf = self.perf
        core_of_rank = self.affinity.placement.core_of_rank
        frequency = self.spec.socket.core.frequency_hz
        tracer = self.machine.tracer

        def rank_process(rank: int):
            engine = self.machine.engine
            core = core_of_rank[rank]
            for op in workload.program(rank):
                if isinstance(op, (MarkerStart, MarkerStop)):
                    # zero-cost observability brackets; invisible (and
                    # free) when no profiling session is attached
                    if perf is not None:
                        if isinstance(op, MarkerStart):
                            perf.region_start(op.name, core)
                        else:
                            perf.region_stop(op.name, core)
                    continue
                start = engine.now
                if perf is not None and op.phase:
                    perf.region_start(op.phase, core)
                category = yield from self._execute(op, rank)
                elapsed = engine.now - start
                if perf is not None:
                    perf.count(core, "cycles", elapsed * frequency)
                    if op.phase:
                        perf.region_stop(op.phase, core)
                bucket = category_times[rank]
                bucket[category] = bucket.get(category, 0.0) + elapsed
                if op.phase:
                    pbucket = phase_times[rank]
                    pbucket[op.phase] = pbucket.get(op.phase, 0.0) + elapsed
                if tracer.enabled:
                    tracer.emit(
                        start, category, rank=rank, duration=elapsed,
                        op=type(op).__name__, op_phase=op.phase,
                    )
            rank_times[rank] = engine.now

        ranks = [self.machine.engine.process(rank_process(rank))
                 for rank in range(n)]
        self.machine.engine.run()
        # No fault interrupts a rank, so a rank still alive once the
        # schedule has drained waits on something that never comes.
        stuck = [rank for rank, proc in enumerate(ranks) if proc.is_alive]
        if stuck:
            raise ValueError(
                f"{workload.name}: ranks {stuck} never complete: the "
                "schedule drained while they waited (deadlock)")

        scale = workload.time_scale
        perf_snapshot = None
        if perf is not None:
            leaked = perf.regions.open_regions
            if leaked:
                raise ValueError(
                    f"unclosed marker regions at job end: {leaked}"
                )
            perf_snapshot = perf.snapshot(time_scale=scale)
        faults_summary = None
        end_time = self.machine.engine.now
        if self.machine.faults is not None:
            # arm/disarm events can outlive the last rank; wall time is
            # when the job finished, not when the schedule drained
            end_time = max(rank_times) if rank_times else end_time
            faults_summary = self.machine.faults.summary()
        return JobResult(
            workload=workload.name,
            system=self.spec.name,
            scheme=str(self.affinity.scheme),
            ntasks=n,
            wall_time=end_time * scale,
            rank_times=[t * scale for t in rank_times],
            category_times=[
                {k: v * scale for k, v in ct.items()} for ct in category_times
            ],
            phase_times=[
                {k: v * scale for k, v in pt.items()} for pt in phase_times
            ],
            messages=self.world.stats.messages,
            bytes_sent=self.world.stats.bytes_sent,
            perf=perf_snapshot,
            faults=faults_summary,
        )

    def _distribution(self, rank: int):
        """The rank's NUMA traffic shares, remapped under armed node loss."""
        distribution = self.affinity.distribution(rank)
        faults = self.machine.faults
        if faults is not None:
            distribution = faults.remap_distribution(distribution)
        return distribution

    # -- op execution -----------------------------------------------------

    def _execute(self, op: Op, rank: int):
        """Generator executing one op; returns its accounting category."""
        if isinstance(op, Compute):
            yield from self._compute(op, rank)
            return "compute"
        world = self.world
        if isinstance(op, Send):
            yield from world.send(rank, op.dst, op.nbytes, op.tag)
        elif isinstance(op, Recv):
            yield from world.recv(rank, src=op.src, tag=op.tag)
        elif isinstance(op, SendRecv):
            yield from world.sendrecv(rank, op.send_to, op.recv_from,
                                      op.nbytes, op.tag)
        elif isinstance(op, Barrier):
            yield from world.barrier(rank)
        elif isinstance(op, Allreduce):
            yield from world.allreduce(rank, op.nbytes)
        elif isinstance(op, Alltoall):
            yield from world.alltoall(rank, op.nbytes)
        elif isinstance(op, Allgather):
            yield from world.allgather(rank, op.nbytes)
        elif isinstance(op, Bcast):
            yield from world.bcast(rank, op.root, op.nbytes)
        elif isinstance(op, Reduce):
            yield from world.reduce(rank, op.root, op.nbytes)
        else:
            raise TypeError(f"unknown operation {op!r}")
        return "comm"

    def _check_thread_team(self, op: Compute, rank: int) -> None:
        """A rank's thread team must fit on its socket alongside co-residents."""
        if op.threads == 1:
            return
        occupied = self.affinity.placement.sharers_on_socket(rank) * op.threads
        if occupied > self.machine.spec.cores_per_socket:
            raise ValueError(
                f"rank {rank}: {op.threads} threads with "
                f"{self.affinity.placement.sharers_on_socket(rank)} ranks on "
                f"the socket oversubscribe its "
                f"{self.machine.spec.cores_per_socket} cores"
            )

    def _compute(self, op: Compute, rank: int):
        """Flop time overlapped with streaming traffic; serial latency part.

        A thread team (``op.threads > 1``) divides the flop and
        dependent-access work, streams as T concurrent flows, and pays a
        fork/join overhead per region — the OpenMP-within-a-socket model
        the paper's conclusion proposes.
        """
        self._check_thread_team(op, rank)
        engine = self.machine.engine
        socket = self.affinity.placement.socket_of_rank(rank)
        core = self.machine.spec.socket.core
        threads = op.threads
        parts = []

        # Each thread works on its own slice; per-thread working sets
        # shrink, so the cache residency factor uses the slice size.
        residency_factor = self.machine.cache.dram_traffic_factor(
            op.working_set / threads, op.reuse
        )

        perf = self.perf
        perf_core = self.affinity.placement.core_of_rank[rank]
        if perf is not None:
            if op.flops > 0:
                perf.count(perf_core, "flops", op.flops)
            line_requests = (op.dram_bytes / self._cache_line
                             + op.random_accesses)
            if line_requests > 0:
                hierarchy = self.machine.cache.hierarchy_counts(
                    op.working_set / threads, op.reuse, line_requests
                )
                for event, value in hierarchy.items():
                    perf.count(perf_core, event, value)

        flop_time = 0.0
        if op.flops > 0:
            flop_time = op.flops / (core.peak_flops * op.flop_efficiency
                                    * threads)
            if self.machine.faults is not None:
                # thermal throttle, sampled at op start (analytic
                # granularity: an op spanning an arm instant is charged
                # the factor armed when it was issued)
                flop_time *= self.machine.faults.flop_factor(perf_core)

        latency_time = 0.0
        if op.random_accesses > 0:
            # Dependent accesses that hit in cache cost nothing: scale
            # the miss count by the same residency factor as streaming
            # traffic.  This is the source of superlinear speedups when
            # a per-task working set drops into L2 (LAMMPS chain).
            misses = op.random_accesses * residency_factor / threads
            distribution = self._distribution(rank)
            extra = max(0.0, sum(
                frac * (self._sharers.get(node, 1.0) - 1.0)
                for node, frac in distribution.items()
            ))
            per_access = self.machine.mem.expected_latency(
                socket, distribution, extra_sharers=extra
            )
            latency_time = misses * per_access
            self.machine.mem.count_dependent_accesses(
                socket, distribution, misses * threads, perf_core
            )

        memory_floor = 0.0
        if op.dram_bytes > 0:
            traffic = op.dram_bytes * residency_factor
            distribution = self._distribution(rank)
            per_node = {node: traffic * frac
                        for node, frac in distribution.items()}
            parts.append(self.machine.mem.stream(
                socket, per_node, weight=float(threads), core=perf_core,
                write_fraction=op.write_fraction,
            ))
            # Serial-stream floor: one core cannot pull faster than a
            # single latency-limited request stream (capped further by
            # the kernel's own access-pattern demand), however many
            # controllers its pages are spread across.  T threads issue
            # T such streams, jointly capped by the controller.
            stream_factor = self.machine.mem.stream_cost_factor(
                socket, distribution
            )
            stream_rate = min(op.stream_bandwidth * threads,
                              self.machine.mem.controller_capacity)
            memory_floor = traffic * stream_factor / stream_rate

        # Flops overlap with outstanding memory traffic; dependent
        # accesses and the serial-stream floor share the core's memory
        # pipeline, so they add to each other but overlap with flops.
        # Unbound runs with co-resident processes lose timeslices.
        noise = 1.0 + self.affinity.scheduler_noise
        if threads > 1:
            # fork/join brackets the region: strictly serial time
            from ..openmp import fork_join_cost

            yield engine.timeout(fork_join_cost(threads))
        if flop_time > 0:
            parts.append(engine.timeout(flop_time * noise))
        if latency_time + memory_floor > 0:
            parts.append(engine.timeout((latency_time + memory_floor) * noise))

        if parts:
            yield engine.all_of(parts)


def run_workload(spec: MachineSpec, workload: Workload,
                 scheme: AffinityScheme = AffinityScheme.DEFAULT,
                 impl: MpiImplementation = OPENMPI,
                 lock: Optional[str] = None,
                 parked: int = 0,
                 profile: bool = False,
                 faults: Optional[FaultPlan] = None) -> JobResult:
    """One-call convenience: resolve the scheme, build a runner, run."""
    affinity = resolve_scheme(scheme, spec, workload.ntasks, parked=parked)
    return JobRunner(spec, affinity, impl=impl, lock=lock,
                     profile=profile, faults=faults).run(workload)
