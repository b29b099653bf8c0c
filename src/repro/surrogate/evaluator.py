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

Cross-rank coupling is honoured by a scalar per-rank virtual-clock
scheduler with FIFO message matching — not a discrete-event engine,
just ``max()`` over a handful of closed-form completion times per
message.  :meth:`SurrogateEvaluator.run` walks each rank's program once:
that pass is also the fast tier's only support check (wildcard receives
and unknown ops raise there, through the same per-op classifier as
:func:`unsupported_reason`; malformed messages raise the exact tier's
``ValueError``), and it compiles the program into bound step tuples.
Workloads yield a repeated op as one shared object, so the pass keeps
an identity memo: ``id(op)`` maps to the op and the steps it produced,
and a repeat extends the rank's steps with that stored slice without
rebuilding, rechecking or rehashing the op.  Only a new object is
checked and bound; behind the identity memo an equality memo costs
each unique ``(Compute op, rank)`` and expands each unique
``(collective, rank)`` once for programs that yield fresh but equal
objects.  Binding a message step costs its shape ``(src, dst,
nbytes)`` — once per run — into clock-free pieces (half the protocol
overhead, eager flag, copy-in, wire latency, and the receive tail:
eager copy-out, or fragment locks plus bulk transfer), and attaches the
inbox the step posts into and the inbox it matches from.  Message and
byte totals are summed per slice at build time, so the scheduler loop
only moves records between inboxes and adds pieces to clocks.  It adds
them in one fixed order — e.g. ``((t0 + oh2) + lock) + copy`` — and
never pre-sums two pieces, so every float rounds the same way however
often a shape recurs.  A piece that is exactly ``0.0`` for the
message's protocol (a rendezvous copy-in, an eager bulk tail) is added
rather than branched around: clocks and pieces are never negative, and
``x + 0.0 == x`` for every such ``x``, so the sum is unchanged bit for
bit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

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

_COLLECTIVES = (Barrier, Allreduce, Alltoall, Allgather, Bcast, Reduce)
_KNOWN_OPS = (Compute, MarkerStart, MarkerStop, Send, Recv, SendRecv,
              *_COLLECTIVES)


def _op_reason(op: Op) -> Optional[str]:
    """Why the fast tier cannot run this op, or ``None`` if it can.

    The one per-op support check: :func:`unsupported_reason` and
    :meth:`SurrogateEvaluator.run` both report its text.
    """
    if isinstance(op, Recv) and op.src is None:
        return ("wildcard Recv(src=None) needs the exact tier's "
                "arrival-order matching")
    if not isinstance(op, _KNOWN_OPS):
        return f"unknown operation {type(op).__name__}"
    return None


def unsupported_reason(workload: Workload, profile: bool = False,
                       faults=None) -> Optional[str]:
    """Why the fast tier cannot evaluate this cell, or ``None`` if it can.

    The checks are static (one pass over the materialized programs), so
    ``tier="auto"`` can call this before cache keying: cells routed to
    the exact tier keep exact-tier content addresses.  Explicit
    ``tier="fast"`` cells skip the program pass here; ``run`` makes the
    same per-op check while it builds the schedule.
    """
    if profile:
        return "marker profiling needs the exact event-driven tier"
    if faults:
        return "fault plans need the exact event-driven tier"
    seen: Dict[int, Op] = {}  # id -> op: holding it keeps the id unique
    for rank in range(workload.ntasks):
        for op in workload.program(rank):
            if id(op) in seen:
                continue
            seen[id(op)] = op
            reason = _op_reason(op)
            if reason:
                return reason
    return None


def _check_rank(rank: int, size: int) -> None:
    """Refuse a peer outside the world as ``MpiWorld`` does, same text."""
    if not 0 <= rank < size:
        raise ValueError(f"rank {rank} outside world of size {size}")


def _check_message(dst: int, nbytes: int, size: int) -> None:
    """Refuse a malformed message as ``MpiWorld.send`` does, same texts."""
    _check_rank(dst, size)
    if nbytes < 0:
        raise ValueError("message size must be non-negative")


# -- the step tuples the scheduler runs ------------------------------------
# A collective expands into (kind, dst, src, nbytes, tag) sub-steps;
# binding them to a run gives (kind, cost, post, box, tag, end).  A
# _SEND carries its message's cost pieces in ``cost`` and the inbox it
# posts into (``inboxes[dst][rank]``) in ``post``; a _RECV carries the
# inbox it matches from (``inboxes[rank][src]``) in ``box``; a _SENDRECV
# carries all three.  A _COMPUTE step carries its cost in seconds.
# Unused slots are ``None`` (``tag`` 0).  ``end`` is ``(category,
# phase)`` on an op's last step and ``None`` on the others.
_COMPUTE, _SEND, _RECV, _SENDRECV, _NOOP = range(5)


def _expand_collective(op: Op, rank: int, p: int) -> List[tuple]:
    """Mirror the MpiWorld algorithm of one collective as
    ``(kind, dst, src, nbytes, tag)`` sub-steps."""
    subops: List[tuple] = []
    if isinstance(op, Barrier):
        if p == 1:
            return subops
        step, round_no = 1, 0
        while step < p:
            subops.append((_SENDRECV, (rank + step) % p, (rank - step) % p,
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
            subops.append((_SEND, rank - p2, 0, op.nbytes, tag0))
            subops.append((_RECV, 0, rank - p2, 0, tag0 + 99))
            return subops
        if rank < extra:
            subops.append((_RECV, 0, rank + p2, 0, tag0))
        step, round_no = 1, 1
        while step < p2:
            partner = rank ^ step
            subops.append((_SENDRECV, partner, partner, op.nbytes,
                           tag0 + round_no))
            step *= 2
            round_no += 1
        if rank < extra:
            subops.append((_SEND, rank + p2, 0, op.nbytes, tag0 + 99))
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
                subops.append((_RECV, 0, parent, 0, tag))
                break
            mask *= 2
        mask //= 2
        while mask >= 1:
            child = vrank + mask
            if child < p:
                subops.append((_SEND, (child + op.root) % p, 0,
                               op.nbytes, tag))
            mask //= 2
        return subops
    if isinstance(op, Alltoall):
        for i in range(1, p):
            subops.append((_SENDRECV, (rank + i) % p, (rank - i) % p,
                           op.nbytes, MpiWorld._TAG_ALLTOALL + i))
        return subops
    if isinstance(op, Allgather):
        for i in range(p - 1):
            subops.append((_SENDRECV, (rank + 1) % p, (rank - 1) % p,
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
                subops.append((_SEND, (parent + op.root) % p, 0,
                               op.nbytes, tag))
                return subops
            child = vrank | mask
            if child < p:
                subops.append((_RECV, 0, (child + op.root) % p, 0, tag))
            mask *= 2
        return subops
    raise TypeError(f"not a collective: {op!r}")  # pragma: no cover


def _take(box: list, tag: int) -> Optional[list]:
    """Remove and return the first record in ``box`` carrying ``tag``
    (``None`` if none does): a receive that matches out of order."""
    for i, msg in enumerate(box):
        if msg[0] == tag:
            del box[i]
            return msg
    return None


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
        #: shared with every machine of the same topology: read only
        self.hops: Dict[int, Dict[int, int]] = build_socket_graph(spec).hops
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

    def _message_pieces(self, src: int, dst: int, nbytes: int) -> tuple:
        """The clock-free cost pieces of one ``src -> dst`` message.

        ``(eager, oh2, copy_in, wire, tail_a, tail_b)``: half the
        protocol overhead (paid by each side), the sender's eager copy-in
        (0.0 under rendezvous), the HT wire latency, and the receive
        tail — the eager copy-out, or the extra fragments' queue locks
        and the pipelined bulk transfer.
        """
        oh2 = self.impl.protocol_overhead(nbytes) / 2.0 * self.om
        src_sock = self.socket_of[src]
        dst_sock = self.socket_of[dst]
        buffer = self.buffer_nodes[src]
        wire = self.hops[src_sock][dst_sock] * self.params.ht_link_latency
        if self.impl.is_eager(nbytes):
            return (True, oh2, self._copy_time(src_sock, buffer, nbytes),
                    wire, self._copy_time(dst_sock, buffer, nbytes), 0.0)
        fragment = self.params.shm_fragment_bytes
        extra_fragments = max(0, -(-nbytes // fragment) - 1)
        return (False, oh2, 0.0, wire, extra_fragments * self.lock_cost,
                self._bulk_time(src_sock, dst_sock, src, nbytes))

    # -- the virtual-clock scheduler -----------------------------------

    def _program_steps(self, workload: Workload, rank: int, n: int,
                       inboxes: List[List[list]],
                       costs: Dict[Tuple[int, int, int], tuple]
                       ) -> Tuple[List[tuple], int, int]:
        """One pass over a rank's program: check, cost, bind and flatten.

        Returns the rank's bound steps and its message and byte totals.
        Each distinct op object is checked and bound once.  ``seen``
        maps ``id(op)`` to ``(op, its steps, messages, bytes)``; holding
        ``op`` keeps the object alive, so its id cannot be reused during
        the pass.  Behind it, ``memo`` shares the steps of equal Compute
        and collective ops that a generator yields as fresh objects.
        """
        steps: List[tuple] = []
        seen: Dict[int, tuple] = {}
        memo: Dict[Op, tuple] = {}
        lookup, extend = seen.get, steps.extend
        messages = nbytes = 0
        for op in workload.program(rank):
            hit = lookup(id(op))
            if hit is None:
                hit = seen[id(op)] = (op, *self._op_steps(
                    op, rank, n, memo, inboxes, costs))
            extend(hit[1])
            messages += hit[2]
            nbytes += hit[3]
        return steps, messages, nbytes

    def _op_steps(self, op: Op, rank: int, n: int, memo: Dict[Op, tuple],
                  inboxes: List[List[list]],
                  costs: Dict[Tuple[int, int, int], tuple]) -> tuple:
        """Check one op and bind its steps (none for a marker):
        ``(steps, messages, bytes)``."""
        if isinstance(op, Compute):
            own = memo.get(op)
            if own is None:
                self._check_thread_team(op, rank)
                own = memo[op] = ([(
                    _COMPUTE, self._compute_cost_scalar(op, rank),
                    None, None, 0, ("compute", op.phase))], 0, 0)
            return own
        if isinstance(op, _COLLECTIVES):
            own = memo.get(op)
            if own is None:
                subops = _expand_collective(op, rank, n)
                for kind, dst, _, nbytes, _ in subops:
                    if kind != _RECV:
                        _check_message(dst, nbytes, n)
                if not subops:  # e.g. a collective at p == 1
                    subops = [(_NOOP, 0, 0, 0, 0)]
                own = memo[op] = self._bind(subops, ("comm", op.phase),
                                            rank, inboxes, costs)
            return own
        if isinstance(op, SendRecv):
            # the exact tier posts the receive before the send checks run
            _check_rank(op.recv_from, n)
            _check_message(op.send_to, op.nbytes, n)
            sub = (_SENDRECV, op.send_to, op.recv_from, op.nbytes, op.tag)
        elif isinstance(op, Send):
            _check_message(op.dst, op.nbytes, n)
            sub = (_SEND, op.dst, 0, op.nbytes, op.tag)
        elif isinstance(op, Recv) and op.src is not None:
            _check_rank(op.src, n)
            sub = (_RECV, 0, op.src, 0, op.tag)
        elif isinstance(op, (MarkerStart, MarkerStop)):
            return [], 0, 0  # markers are zero-cost observability brackets
        else:
            raise SurrogateUnsupportedError(_op_reason(op))
        return self._bind([sub], ("comm", op.phase), rank, inboxes, costs)

    def _bind(self, subops: List[tuple], end: tuple, rank: int,
              inboxes: List[List[list]],
              costs: Dict[Tuple[int, int, int], tuple]) -> tuple:
        """Bind checked ``(kind, dst, src, nbytes, tag)`` sub-steps of one
        op to this run: ``(steps, messages, bytes)``.  ``end`` goes on
        the last step."""
        steps: List[tuple] = []
        messages = total = 0
        last = len(subops) - 1
        for i, (kind, dst, src, nbytes, tag) in enumerate(subops):
            pieces = post = box = None
            if kind == _SEND or kind == _SENDRECV:
                key = (rank, dst, nbytes)
                pieces = costs.get(key)
                if pieces is None:
                    pieces = costs[key] = self._message_pieces(rank, dst,
                                                               nbytes)
                post = inboxes[dst][rank]
                messages += 1
                total += nbytes
            if kind == _RECV or kind == _SENDRECV:
                box = inboxes[rank][src]
            steps.append((kind, pieces, post, box, tag,
                          end if i == last else None))
        return steps, messages, total

    def run(self, workload: Workload) -> JobResult:
        """Evaluate the workload; mirrors ``JobRunner.run`` accounting.

        Raises :class:`SurrogateUnsupportedError` for a cell the fast
        tier cannot honour (wildcard receive, unknown op, unmatched
        point-to-point traffic).
        """
        workload.validate()
        if workload.ntasks != self.affinity.ntasks:
            raise ValueError(
                f"workload wants {workload.ntasks} ranks but affinity "
                f"provides {self.affinity.ntasks}"
            )
        n = workload.ntasks
        #: inboxes[dst][src]: FIFO of [tag, avail, send_end, pieces]
        inboxes: List[List[list]] = [[[] for _ in range(n)]
                                     for _ in range(n)]
        costs: Dict[Tuple[int, int, int], tuple] = {}
        programs = []
        messages = bytes_sent = 0
        for rank in range(n):
            steps, sent, nbytes = self._program_steps(workload, rank, n,
                                                      inboxes, costs)
            programs.append(steps)
            messages += sent
            bytes_sent += nbytes

        # Advance per-rank virtual clocks to completion.  A rank runs
        # until it blocks: on an unmatched receive, or on its own
        # rendezvous send (``out``) until the receiver fills in the
        # record's send end.  ``rend`` is a sendrecv's receive end while
        # its rendezvous half is still in flight.  A record's pieces
        # are added in one fixed order, exact zeros included: adding
        # 0.0 to a non-negative clock returns it unchanged.
        lock = self.lock_cost
        positions = [0] * n
        clocks = [0.0] * n
        starts = [0.0] * n  # when each rank's current op began
        outs: List[Optional[list]] = [None] * n
        rends: List[Optional[float]] = [None] * n
        category_times: List[Dict[str, float]] = [dict() for _ in range(n)]
        phase_times: List[Dict[str, float]] = [dict() for _ in range(n)]

        progressed = True
        while progressed:
            progressed = False
            for rank in range(n):
                steps = programs[rank]
                nsteps = len(steps)
                first = positions[rank]
                if first >= nsteps:
                    continue
                clock = clocks[rank]
                start = starts[rank]
                out = outs[rank]
                rend = rends[rank]
                buckets = category_times[rank]
                phases = phase_times[rank]
                for pos in range(first, nsteps):
                    kind, cost, post, box, tag, end = steps[pos]
                    # posting and matching are written out in each
                    # branch: a call per message would cost more than
                    # the rest of the step
                    if kind == _SENDRECV:
                        if out is None:  # post the outgoing message
                            avail = clock + cost[1] + lock + cost[2]
                            out = [tag, avail, avail if cost[0] else None,
                                   cost]
                            post.append(out)
                            progressed = True
                        if rend is None:
                            if not box:
                                break  # no match yet
                            msg = box[0]
                            if tag is None or msg[0] == tag:
                                del box[0]
                            else:
                                msg = _take(box, tag)
                                if msg is None:
                                    break
                            eager, oh2, _, wire, tail_a, tail_b = msg[3]
                            matched = clock + lock
                            if msg[1] > matched:
                                matched = msg[1]
                            rend = matched + oh2 + wire + tail_a + tail_b
                            if not eager:
                                msg[2] = rend
                            progressed = True
                        send_end = out[2]
                        if send_end is None:
                            break  # rendezvous: wait for the receiver
                        clock = send_end if send_end > rend else rend
                        out = rend = None
                    elif kind == _COMPUTE:
                        clock += cost
                    elif kind == _SEND:
                        if out is None:
                            avail = clock + cost[1] + lock + cost[2]
                            out = [tag, avail, avail if cost[0] else None,
                                   cost]
                            post.append(out)
                            progressed = True
                        if out[2] is None:
                            break  # rendezvous: wait for the receiver
                        clock = out[2]
                        out = None
                    elif kind == _RECV:
                        if not box:
                            break  # no match yet
                        msg = box[0]
                        if tag is None or msg[0] == tag:
                            del box[0]
                        else:
                            msg = _take(box, tag)
                            if msg is None:
                                break
                        eager, oh2, _, wire, tail_a, tail_b = msg[3]
                        matched = clock + lock
                        if msg[1] > matched:
                            matched = msg[1]
                        clock = matched + oh2 + wire + tail_a + tail_b
                        if not eager:
                            msg[2] = clock
                    if end is not None:
                        elapsed = clock - start
                        category, phase = end
                        buckets[category] = (buckets.get(category, 0.0)
                                             + elapsed)
                        if phase:
                            phases[phase] = phases.get(phase, 0.0) + elapsed
                        start = clock
                else:
                    pos = nsteps
                if pos > first:
                    progressed = True
                positions[rank] = pos
                clocks[rank] = clock
                starts[rank] = start
                outs[rank] = out
                rends[rank] = rend
        stuck = [r for r in range(n) if positions[r] < len(programs[r])]
        if stuck:
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
