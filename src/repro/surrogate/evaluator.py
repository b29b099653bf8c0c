"""The analytic evaluator behind the ``fast`` tier.

The exact tier pays for generality: every byte of DRAM traffic and
every MPI fragment becomes engine events whose costs emerge from
dynamic fair-share bandwidth renegotiation.  For the healthy,
unprofiled cells that dominate the paper sweeps, those costs are
predictable enough to compute directly:

* **Compute ops** — the same cache-residency, flop-ceiling, NUMA-latency
  and serial-stream-floor formulas as ``JobRunner._compute``, with the
  dynamic controller contention replaced by the static
  ``controller_sharers()`` estimate (the quantity the exact tier already
  uses for its latency queueing term).  Unique ``(op, placement)``
  combinations across a program are deduplicated and each is costed
  once, through the owning :meth:`CacheModel.dram_traffic_factor` and
  :func:`~repro.openmp.fork_join_cost` rather than a copy of their
  formulas (most programs have a handful of unique ops, too few for
  array evaluation to pay off).
* **Messages** — protocol overhead, queue-lock cost, eager copies /
  rendezvous handshake + pipelined bulk, HT wire latency: the same
  constants as :mod:`repro.mpi.simmpi`, composed arithmetically instead
  of as engine timeouts.
* **Collectives** — expanded into the *identical* per-rank send/recv
  round structure as ``MpiWorld`` (dissemination barrier, recursive
  doubling, binomial trees, pairwise exchange, ring), so message and
  byte counts match the exact tier exactly and the timing inherits the
  algorithms' log/linear shapes.

Cross-rank coupling is honoured by a lightweight per-rank virtual-clock
scheduler with FIFO message matching — not a discrete-event engine,
just ``max()`` over a handful of closed-form completion times per
message.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import networkx as nx

from ..core.affinity import AffinityScheme, ResolvedAffinity, resolve_scheme
from ..core.execution import JobResult
from ..core.ops import (
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
from ..core.workload import Workload
from ..errors import SurrogateUnsupportedError
from ..machine.cache import CacheModel
from ..machine.topology import MachineSpec, build_socket_graph
from ..mpi.implementations import LockLayer, MpiImplementation, OPENMPI
from ..mpi.simmpi import MpiWorld
from ..openmp import fork_join_cost

__all__ = [
    "SurrogateEvaluator",
    "evaluate_request",
    "evaluate_workload",
    "unsupported_reason",
]

_KNOWN_OPS = (Compute, MarkerStart, MarkerStop, Send, Recv, SendRecv,
              Barrier, Allreduce, Alltoall, Allgather, Bcast, Reduce)


def unsupported_reason(workload: Workload, profile: bool = False,
                       faults=None) -> Optional[str]:
    """Why the fast tier cannot evaluate this cell, or ``None`` if it can.

    The checks are static and cheap (one pass over the materialized
    programs), so ``tier="auto"`` can call this before cache keying:
    cells routed to the exact tier keep exact-tier content addresses.
    """
    if profile:
        return "marker profiling needs the exact event-driven tier"
    if faults:
        return "fault plans need the exact event-driven tier"
    for rank in range(workload.ntasks):
        for op in workload.program(rank):
            if isinstance(op, Recv) and op.src is None:
                return ("wildcard Recv(src=None) needs the exact tier's "
                        "arrival-order matching")
            if not isinstance(op, _KNOWN_OPS):
                return f"unknown operation {type(op).__name__}"
    return None


# -- sub-operation vocabulary the scheduler runs ---------------------------
# ('compute', op) | ('send', dst, nbytes, tag) | ('recv', src, tag)
# | ('sendrecv', to, frm, nbytes, tag)


def _expand_collective(op: Op, rank: int, p: int) -> List[tuple]:
    """Mirror the MpiWorld algorithm of one collective as sub-ops."""
    subops: List[tuple] = []
    if isinstance(op, Barrier):
        if p == 1:
            return subops
        step, round_no = 1, 0
        while step < p:
            subops.append(("sendrecv", (rank + step) % p, (rank - step) % p,
                           0, MpiWorld._TAG_BARRIER + round_no))
            step *= 2
            round_no += 1
        return subops
    if isinstance(op, Allreduce):
        if p == 1:
            return subops
        p2 = 1
        while p2 * 2 <= p:
            p2 *= 2
        extra = p - p2
        tag0 = MpiWorld._TAG_ALLREDUCE
        if rank >= p2:
            subops.append(("send", rank - p2, op.nbytes, tag0))
            subops.append(("recv", rank - p2, tag0 + 99))
            return subops
        if rank < extra:
            subops.append(("recv", rank + p2, tag0))
        step, round_no = 1, 1
        while step < p2:
            partner = rank ^ step
            subops.append(("sendrecv", partner, partner, op.nbytes,
                           tag0 + round_no))
            step *= 2
            round_no += 1
        if rank < extra:
            subops.append(("send", rank + p2, op.nbytes, tag0 + 99))
        return subops
    if isinstance(op, Bcast):
        if p == 1:
            return subops
        vrank = (rank - op.root) % p
        tag = MpiWorld._TAG_BCAST
        mask = 1
        while mask < p:
            if vrank & mask:
                parent = ((vrank ^ mask) + op.root) % p
                subops.append(("recv", parent, tag))
                break
            mask *= 2
        mask //= 2
        while mask >= 1:
            child = vrank + mask
            if child < p:
                subops.append(("send", (child + op.root) % p, op.nbytes, tag))
            mask //= 2
        return subops
    if isinstance(op, Alltoall):
        for i in range(1, p):
            subops.append(("sendrecv", (rank + i) % p, (rank - i) % p,
                           op.nbytes, MpiWorld._TAG_ALLTOALL + i))
        return subops
    if isinstance(op, Allgather):
        for i in range(p - 1):
            subops.append(("sendrecv", (rank + 1) % p, (rank - 1) % p,
                           op.nbytes, MpiWorld._TAG_ALLGATHER + i))
        return subops
    if isinstance(op, Reduce):
        if p == 1:
            return subops
        vrank = (rank - op.root) % p
        tag = MpiWorld._TAG_REDUCE
        mask = 1
        while mask < p:
            if vrank & mask:
                parent = (vrank & ~mask)
                subops.append(("send", (parent + op.root) % p, op.nbytes, tag))
                return subops
            child = vrank | mask
            if child < p:
                subops.append(("recv", (child + op.root) % p, tag))
            mask *= 2
        return subops
    raise TypeError(f"not a collective: {op!r}")  # pragma: no cover


class SurrogateEvaluator:
    """Closed-form evaluator for one (machine, affinity, MPI) binding.

    Mirrors :class:`~repro.core.execution.JobRunner`'s constructor
    signature minus the engine-only knobs; reusable across workloads on
    the same binding.
    """

    def __init__(self, spec: MachineSpec, affinity: ResolvedAffinity,
                 impl: MpiImplementation = OPENMPI,
                 lock: Optional[str] = None):
        if affinity.spec.name != spec.name:
            raise ValueError("affinity was resolved for a different system")
        self.spec = spec
        self.affinity = affinity
        self.impl = impl or OPENMPI
        params = spec.params
        self.params = params
        self.om = 1.0 + affinity.scheduler_noise
        self.lock_cost = LockLayer(
            lock if lock is not None else self.impl.default_lock
        ).cost(params) * self.om
        graph = build_socket_graph(spec)
        self.hops: Dict[int, Dict[int, int]] = {
            src: dict(lengths)
            for src, lengths in nx.all_pairs_shortest_path_length(graph)
        }
        coherence = 1.0 / (
            1.0 + params.coherence_probe_cost * (spec.sockets - 1))
        self.ctrl_capacity = (spec.socket.dram_peak_bandwidth
                              * params.dram_achievable_fraction * coherence)
        self.cache = CacheModel.for_socket(
            spec.socket, traffic_floor=params.compulsory_traffic_floor)
        self.sharers = affinity.controller_sharers()
        self.buffer_nodes = affinity.buffer_nodes()
        n = affinity.ntasks
        self.socket_of = [affinity.placement.socket_of_rank(r)
                          for r in range(n)]
        # derated bytes-per-byte each rank puts on each controller when
        # streaming: the flow sizes the fluid fair-share model sees
        self._flow_coef: List[Dict[int, float]] = []
        for r in range(n):
            sock = self.socket_of[r]
            self._flow_coef.append({
                node: frac * (1.0 + params.hop_bandwidth_derate
                              * self.hops[sock][node])
                for node, frac in affinity.distribution(r).items()
                if frac > 0
            })
        self._scalars = [self._rank_scalars(r) for r in range(n)]

    # -- per-rank placement scalars ------------------------------------

    def _rank_scalars(self, rank: int) -> Tuple[float, float, float]:
        """(expected latency, stream cost factor, drain s/byte) for a rank.

        The latency and stream-factor formulas are the exact tier's
        ``MemorySystem.expected_latency`` / ``stream_cost_factor``.  The
        drain term is the processor-sharing closed form of the engine's
        fluid fair-share controllers: with every rank streaming at once
        (the symmetric-program case the sweeps are made of), flow *i* on
        a controller completes at ``sum_j min(bytes_j, bytes_i) /
        capacity`` — early finishers return their share to the rest.
        """
        params = self.params
        dist = self.affinity.distribution(rank)
        sock = self.socket_of[rank]
        hops = self.hops[sock]
        total = sum(dist.values())
        extra = max(0.0, sum(
            frac * (self.sharers.get(node, 1.0) - 1.0)
            for node, frac in dist.items()
        ))
        e_lat = 0.0
        s_factor = 1.0
        if total > 0:
            contention = 1.0 + params.latency_contention_factor * extra
            e_lat = contention * sum(
                frac / total * (params.dram_latency
                                + params.hop_latency * hops[node])
                for node, frac in dist.items()
            )
            s_factor = sum(
                frac / total
                * (1.0 + params.remote_stream_penalty * hops[node])
                for node, frac in dist.items()
            )
        drain = 0.0
        mine = self._flow_coef[rank]
        for node, coef in mine.items():
            per_byte = sum(
                min(other.get(node, 0.0), coef)
                for other in self._flow_coef
            ) / self.ctrl_capacity
            if hops[node]:
                per_byte = max(per_byte,
                               dist[node] / params.ht_link_bandwidth)
            drain = max(drain, per_byte)
        return e_lat, s_factor, drain

    def _check_thread_team(self, op: Compute, rank: int) -> None:
        if op.threads == 1:
            return
        placement = self.affinity.placement
        occupied = placement.sharers_on_socket(rank) * op.threads
        if occupied > self.spec.cores_per_socket:
            raise ValueError(
                f"rank {rank}: {op.threads} threads with "
                f"{placement.sharers_on_socket(rank)} ranks on the socket "
                f"oversubscribe its {self.spec.cores_per_socket} cores"
            )

    # -- compute-op costing --------------------------------------------

    def _compute_cost_scalar(self, op: Compute, rank: int) -> float:
        """The cost of one Compute op on one rank's placement."""
        e_lat, s_factor, drain = self._scalars[rank]
        threads = op.threads
        residency = self.cache.dram_traffic_factor(
            op.working_set / threads, op.reuse)
        core = self.spec.socket.core
        flop_t = 0.0
        if op.flops > 0:
            flop_t = op.flops / (core.peak_flops * op.flop_efficiency
                                 * threads)
        lat_t = 0.0
        if op.random_accesses > 0:
            lat_t = op.random_accesses * residency / threads * e_lat
        mem_floor = stream_t = 0.0
        if op.dram_bytes > 0:
            traffic = op.dram_bytes * residency
            rate = min(op.stream_bandwidth * threads, self.ctrl_capacity)
            mem_floor = traffic * s_factor / rate
            stream_t = traffic * drain
        noise = self.om
        return fork_join_cost(threads) + max(
            flop_t * noise, (lat_t + mem_floor) * noise, stream_t)

    # -- message cost pieces -------------------------------------------

    def _copy_bw(self, core_socket: int, buffer_node: int) -> float:
        params = self.params
        base = (params.intra_socket_copy_bandwidth
                if core_socket == buffer_node
                else params.inter_socket_copy_bandwidth)
        return base * self.impl.copy_bandwidth_factor

    def _copy_time(self, core_socket: int, buffer_node: int,
                   nbytes: float) -> float:
        """One eager-protocol buffer copy (copy-in or copy-out)."""
        if nbytes <= 0:
            return 0.0
        t = max(nbytes / self.ctrl_capacity,
                nbytes / self._copy_bw(core_socket, buffer_node))
        if self.hops[core_socket][buffer_node]:
            t = max(t, nbytes / self.params.ht_link_bandwidth)
        return t

    def _bulk_time(self, sender_socket: int, receiver_socket: int,
                   sender_rank: int, nbytes: float) -> float:
        """Rendezvous bulk transfer through the sender's shared buffer."""
        if nbytes <= 0:
            return 0.0
        buffer = self.buffer_nodes[sender_rank]
        copies = self.impl.copy_cost_factor(nbytes)
        bw = min(self._copy_bw(sender_socket, buffer),
                 self._copy_bw(receiver_socket, buffer))
        t = max(nbytes * copies / self.ctrl_capacity, nbytes * copies / bw)
        link = self.params.ht_link_bandwidth
        if self.hops[sender_socket][buffer]:
            t = max(t, nbytes / link)
        if self.hops[receiver_socket][buffer]:
            t = max(t, nbytes / link)
        return t

    def _post_send(self, src: int, dst: int, nbytes: int, tag: int,
                   t0: float) -> dict:
        """Sender-side costs; returns the in-flight message record.

        ``avail`` is when the receiver can match it; ``send_end`` is when
        the *sender* unblocks (filled in by the receiver for rendezvous).
        """
        oh2 = self.impl.protocol_overhead(nbytes) / 2.0 * self.om
        if self.impl.is_eager(nbytes):
            avail = (t0 + oh2 + self.lock_cost
                     + self._copy_time(self.socket_of[src],
                                       self.buffer_nodes[src], nbytes))
            return {"src": src, "tag": tag, "nbytes": nbytes,
                    "avail": avail, "eager": True, "send_end": avail}
        header = t0 + oh2 + self.lock_cost
        return {"src": src, "tag": tag, "nbytes": nbytes,
                "avail": header, "eager": False, "send_end": None}

    def _complete_recv(self, dst: int, msg: dict, t0: float) -> float:
        """Receiver-side completion; fills ``msg['send_end']``."""
        nbytes = msg["nbytes"]
        matched = max(t0 + self.lock_cost, msg["avail"])
        oh2 = self.impl.protocol_overhead(nbytes) / 2.0 * self.om
        src_sock = self.socket_of[msg["src"]]
        dst_sock = self.socket_of[dst]
        wire = self.hops[src_sock][dst_sock] * self.params.ht_link_latency
        t = matched + oh2 + wire
        if msg["eager"]:
            return t + self._copy_time(dst_sock,
                                       self.buffer_nodes[msg["src"]], nbytes)
        fragment = self.params.shm_fragment_bytes
        extra_fragments = max(0, -(-nbytes // fragment) - 1)
        done = (t + extra_fragments * self.lock_cost
                + self._bulk_time(src_sock, dst_sock, msg["src"], nbytes))
        msg["send_end"] = done
        return done

    # -- the virtual-clock scheduler -----------------------------------

    def run(self, workload: Workload) -> JobResult:
        """Evaluate the workload; mirrors ``JobRunner.run`` accounting."""
        workload.validate()
        if workload.ntasks != self.affinity.ntasks:
            raise ValueError(
                f"workload wants {workload.ntasks} ranks but affinity "
                f"provides {self.affinity.ntasks}"
            )
        n = workload.ntasks

        # Phase 1: materialize and expand every rank's program.
        programs: List[List[Tuple[Op, str, List[tuple]]]] = []
        #: unique (Compute op, rank) pairs, in first-seen order
        compute_keys: Dict[Tuple[Compute, int], None] = {}
        for rank in range(n):
            items: List[Tuple[Op, str, List[tuple]]] = []
            for op in workload.program(rank):
                if isinstance(op, (MarkerStart, MarkerStop)):
                    continue  # zero-cost observability brackets
                if isinstance(op, Compute):
                    self._check_thread_team(op, rank)
                    compute_keys[(op, rank)] = None
                    items.append((op, "compute", [("compute", op)]))
                elif isinstance(op, Send):
                    if op.nbytes < 0:
                        raise ValueError("message size must be non-negative")
                    items.append((op, "comm",
                                  [("send", op.dst, op.nbytes, op.tag)]))
                elif isinstance(op, Recv):
                    if op.src is None:
                        raise SurrogateUnsupportedError(
                            "wildcard Recv(src=None) needs the exact tier")
                    items.append((op, "comm", [("recv", op.src, op.tag)]))
                elif isinstance(op, SendRecv):
                    items.append((op, "comm",
                                  [("sendrecv", op.send_to, op.recv_from,
                                    op.nbytes, op.tag)]))
                elif isinstance(op, _KNOWN_OPS):
                    items.append((op, "comm",
                                  _expand_collective(op, rank, n)))
                else:
                    raise SurrogateUnsupportedError(
                        f"unknown operation {type(op).__name__}")
            programs.append(items)

        # Phase 2: cost each unique compute entry once.
        compute_cost = {key: self._compute_cost_scalar(*key)
                        for key in compute_keys}

        # Phase 3: advance per-rank virtual clocks to completion.
        clocks = [0.0] * n
        item_pos = [0] * n
        sub_pos = [0] * n
        op_start = [0.0] * n
        # rank wait states: ("send", msg) | ("sendrecv", recv_end, msg)
        waiting: List[Optional[tuple]] = [None] * n
        pending_out: List[Optional[dict]] = [None] * n
        queues: Dict[Tuple[int, int], List[dict]] = {}
        messages = 0
        bytes_sent = 0
        category_times: List[Dict[str, float]] = [dict() for _ in range(n)]
        phase_times: List[Dict[str, float]] = [dict() for _ in range(n)]

        def finish_item(rank: int) -> None:
            op, category, _subops = programs[rank][item_pos[rank]]
            elapsed = clocks[rank] - op_start[rank]
            bucket = category_times[rank]
            bucket[category] = bucket.get(category, 0.0) + elapsed
            if op.phase:
                pbucket = phase_times[rank]
                pbucket[op.phase] = pbucket.get(op.phase, 0.0) + elapsed
            item_pos[rank] += 1
            sub_pos[rank] = 0

        def take_match(src: int, dst: int, tag: Optional[int]
                       ) -> Optional[dict]:
            queue = queues.get((src, dst))
            if not queue:
                return None
            for i, msg in enumerate(queue):
                if tag is None or msg["tag"] == tag:
                    return queue.pop(i)
            return None

        def advance_one(rank: int) -> bool:
            """Advance one sub-op (or resume from a wait); False = stuck."""
            nonlocal messages, bytes_sent
            state = waiting[rank]
            if state is not None:
                msg = state[-1]
                if msg["send_end"] is None:
                    return False
                if state[0] == "send":
                    clocks[rank] = msg["send_end"]
                else:
                    clocks[rank] = max(state[1], msg["send_end"])
                waiting[rank] = None
                sub_pos[rank] += 1
                if sub_pos[rank] >= len(programs[rank][item_pos[rank]][2]):
                    finish_item(rank)
                return True
            if item_pos[rank] >= len(programs[rank]):
                return False  # rank done
            op, _category, subops = programs[rank][item_pos[rank]]
            if sub_pos[rank] == 0 and pending_out[rank] is None:
                op_start[rank] = clocks[rank]
            if not subops:  # e.g. a collective at p == 1
                finish_item(rank)
                return True
            sub = subops[sub_pos[rank]]
            kind = sub[0]
            if kind == "compute":
                clocks[rank] += compute_cost[(sub[1], rank)]
            elif kind == "send":
                _, dst, nbytes, tag = sub
                messages += 1
                bytes_sent += nbytes
                msg = self._post_send(rank, dst, nbytes, tag, clocks[rank])
                queues.setdefault((rank, dst), []).append(msg)
                if msg["send_end"] is None:
                    clocks[rank] = msg["avail"]
                    waiting[rank] = ("send", msg)
                    return True
                clocks[rank] = msg["send_end"]
            elif kind == "recv":
                _, src, tag = sub
                msg = take_match(src, rank, tag)
                if msg is None:
                    return False
                clocks[rank] = self._complete_recv(rank, msg, clocks[rank])
            else:  # sendrecv: the send is concurrent (isend semantics)
                _, to, frm, nbytes, tag = sub
                out = pending_out[rank]
                if out is None:
                    messages += 1
                    bytes_sent += nbytes
                    out = self._post_send(rank, to, nbytes, tag, clocks[rank])
                    queues.setdefault((rank, to), []).append(out)
                    pending_out[rank] = out
                msg = take_match(frm, rank, tag)
                if msg is None:
                    return False
                recv_end = self._complete_recv(rank, msg, clocks[rank])
                pending_out[rank] = None
                if out["send_end"] is None:
                    clocks[rank] = recv_end
                    waiting[rank] = ("sendrecv", recv_end, out)
                    return True
                clocks[rank] = max(recv_end, out["send_end"])
            sub_pos[rank] += 1
            if sub_pos[rank] >= len(subops):
                finish_item(rank)
            return True

        progressed = True
        while progressed:
            progressed = False
            for rank in range(n):
                while advance_one(rank):
                    progressed = True
        if any(item_pos[r] < len(programs[r]) or waiting[r] is not None
               for r in range(n)):
            stuck = [r for r in range(n)
                     if item_pos[r] < len(programs[r])
                     or waiting[r] is not None]
            raise SurrogateUnsupportedError(
                f"{workload.name}: ranks {stuck} never complete under "
                "analytic matching (unmatched point-to-point traffic)")

        scale = workload.time_scale
        return JobResult(
            workload=workload.name,
            system=self.spec.name,
            scheme=str(self.affinity.scheme),
            ntasks=n,
            wall_time=max(clocks, default=0.0) * scale,
            rank_times=[t * scale for t in clocks],
            category_times=[{k: v * scale for k, v in ct.items()}
                            for ct in category_times],
            phase_times=[{k: v * scale for k, v in pt.items()}
                         for pt in phase_times],
            messages=messages,
            bytes_sent=bytes_sent,
            perf=None,
            faults=None,
        )


def evaluate_request(spec: MachineSpec, workload: Workload,
                     affinity: ResolvedAffinity,
                     impl: MpiImplementation = OPENMPI,
                     lock: Optional[str] = None) -> JobResult:
    """Evaluate one cell analytically (the fast-tier ``execute`` body)."""
    return SurrogateEvaluator(spec, affinity, impl=impl, lock=lock
                              ).run(workload)


def evaluate_workload(spec: MachineSpec, workload: Workload,
                      scheme: AffinityScheme = AffinityScheme.DEFAULT,
                      impl: MpiImplementation = OPENMPI,
                      lock: Optional[str] = None,
                      parked: int = 0) -> JobResult:
    """One-call convenience mirroring ``run_workload``, fast tier."""
    affinity = resolve_scheme(scheme, spec, workload.ntasks, parked=parked)
    return evaluate_request(spec, workload, affinity, impl=impl, lock=lock)
