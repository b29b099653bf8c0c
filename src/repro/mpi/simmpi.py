"""The simulated MPI runtime.

An :class:`MpiWorld` binds a machine, a task placement, an
implementation profile, and a locking sub-layer into a set of rank
endpoints with MPI point-to-point semantics (FIFO per (source, tag)
matching, eager and rendezvous protocols, blocking and concurrent
send/recv).  All operations are generators meant to be driven with
``yield from`` inside a rank's simulation process.

The cost of a message is assembled from:

* the locking sub-layer (one acquire/release on the receiver's queue
  lock per enqueue and per dequeue — SysV semaphores make this the
  dominant term for small messages, Figure 13);
* the implementation's per-message software overhead (split between
  sender and receiver) plus the rendezvous handshake where applicable;
* HT wire latency between the endpoints' sockets;
* the shared-buffer copies through the memory system
  (:class:`~repro.mpi.transport.ShmTransport`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..faults.plan import TransportExhaustedError
from ..machine import Machine
from ..osmodel import Placement
from ..sim import Event, Resource
from .implementations import LockLayer, MpiImplementation, OPENMPI
from .transport import ShmTransport

__all__ = ["Message", "MpiStats", "MpiWorld"]


@dataclass
class Message:
    """One in-flight message."""

    src: int
    dst: int
    tag: int
    nbytes: int
    eager: bool
    payload: object = None
    #: rendezvous: succeeds when the receiver has posted its recv
    ready: Optional[Event] = None
    #: rendezvous: succeeds when the bulk transfer has completed
    done: Optional[Event] = None


@dataclass
class MpiStats:
    """Aggregate traffic counters for one world."""

    messages: int = 0
    bytes_sent: int = 0
    by_rank_messages: Dict[int, int] = field(default_factory=dict)
    by_rank_bytes: Dict[int, int] = field(default_factory=dict)

    def record(self, src: int, nbytes: int) -> None:
        self.messages += 1
        self.bytes_sent += nbytes
        self.by_rank_messages[src] = self.by_rank_messages.get(src, 0) + 1
        self.by_rank_bytes[src] = self.by_rank_bytes.get(src, 0) + nbytes


class MpiWorld:
    """All ranks of one MPI job on one machine."""

    #: tag bases for collectives, far from user tag space
    _TAG_BARRIER = 1 << 20
    _TAG_ALLREDUCE = 2 << 20
    _TAG_BCAST = 3 << 20
    _TAG_ALLTOALL = 4 << 20
    _TAG_ALLGATHER = 5 << 20
    _TAG_REDUCE = 6 << 20

    def __init__(self, machine: Machine, placement: Placement,
                 impl: MpiImplementation = OPENMPI,
                 lock: Optional[str] = None,
                 buffer_nodes: Optional[Dict[int, int]] = None,
                 overhead_multiplier: float = 1.0):
        if overhead_multiplier < 1.0:
            raise ValueError("overhead_multiplier must be >= 1")
        self.machine = machine
        self.engine = machine.engine
        self.placement = placement
        self.impl = impl
        self.overhead_multiplier = overhead_multiplier
        self.lock_layer = LockLayer(lock if lock is not None else impl.default_lock)
        self._lock_cost = (self.lock_layer.cost(machine.spec.params)
                           * overhead_multiplier)
        if buffer_nodes is None:
            buffer_nodes = {
                r: placement.socket_of_rank(r) for r in range(placement.ntasks)
            }
        self.transport = ShmTransport(
            machine, impl, buffer_nodes,
            core_of_rank={r: placement.core_of_rank[r]
                          for r in range(placement.ntasks)},
        )
        self.stats = MpiStats()
        self._queues: Dict[int, List[Message]] = {
            r: [] for r in range(placement.ntasks)
        }
        self._pending: Dict[int, List[Tuple[Optional[int], Optional[int], Event]]] = {
            r: [] for r in range(placement.ntasks)
        }
        self._queue_locks = [
            Resource(self.engine, capacity=1, name=f"mpiq:{r}")
            for r in range(placement.ntasks)
        ]

    @property
    def size(self) -> int:
        """Number of ranks."""
        return self.placement.ntasks

    def socket_of(self, rank: int) -> int:
        """Socket hosting ``rank``."""
        return self.placement.socket_of_rank(rank)

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} outside world of size {self.size}")

    # -- queue locking ------------------------------------------------------

    def _locked(self, dst: int):
        """Generator: hold dst's queue lock for one lock-cost interval."""
        request = self._queue_locks[dst].request()
        yield request
        yield self.engine.timeout(self._lock_cost)
        self._queue_locks[dst].release()

    # -- fault injection ---------------------------------------------------

    def _lossy_delivery(self, faults, src_socket: int, src: int, dst: int,
                        nbytes: int, copy: bool):
        """Generator: push one payload (``copy=True``, the eager buffer
        copy) or rendezvous header (``copy=False``) through a transport
        that may drop or duplicate it.

        Dropped attempts retransmit after an exponentially backed-off
        sender timeout, up to the armed spec's ``max_retries``;
        exhaustion raises :class:`TransportExhaustedError` (the send
        fails visibly instead of hanging the receiver).  Duplicates cost
        one wasted buffer copy (or queue-lock interval for a header) —
        the receiver discards them by sequence number, so delivery stays
        exactly-once.
        """
        attempt = 0
        while True:
            if copy:
                yield self.transport.copy_in(src_socket, src, nbytes)
            outcome = faults.message_outcome()
            if outcome is None:
                return  # no MessageFaults armed right now
            kind, spec = outcome
            if kind == "ok":
                return
            if kind == "dup":
                faults.note("mpi_duplicated", rank=src,
                            transport=self.transport)
                if copy:
                    yield self.transport.copy_in(src_socket, src, nbytes)
                else:
                    yield self.engine.timeout(self._lock_cost)
                return
            # dropped: tally, back off, retransmit
            faults.note("mpi_dropped", rank=src, transport=self.transport)
            if attempt >= spec.max_retries:
                raise TransportExhaustedError(
                    f"rank {src} -> {dst}: {nbytes}-byte "
                    f"{'payload' if copy else 'header'} dropped "
                    f"{attempt + 1} times; retries exhausted"
                )
            yield self.engine.timeout(
                spec.retry_timeout * spec.backoff ** attempt
            )
            attempt += 1
            faults.note("mpi_retries", rank=src, transport=self.transport)

    # -- matching ------------------------------------------------------------

    @staticmethod
    def _matches(msg: Message, src: Optional[int], tag: Optional[int]) -> bool:
        return (src is None or msg.src == src) and (tag is None or msg.tag == tag)

    def _deliver(self, msg: Message) -> None:
        """Hand a message header to the receiver: match or enqueue."""
        pending = self._pending[msg.dst]
        for i, (src, tag, event) in enumerate(pending):
            if self._matches(msg, src, tag):
                del pending[i]
                event.succeed(msg)
                return
        self._queues[msg.dst].append(msg)

    def _match_or_wait(self, dst: int, src: Optional[int],
                       tag: Optional[int]) -> Event:
        """Event carrying the next matching message for a posted recv."""
        event = Event(self.engine)
        queue = self._queues[dst]
        for i, msg in enumerate(queue):
            if self._matches(msg, src, tag):
                del queue[i]
                event.succeed(msg)
                return event
        self._pending[dst].append((src, tag, event))
        return event

    # -- point to point ---------------------------------------------------------

    def send(self, src: int, dst: int, nbytes: int, tag: int = 0,
             payload: object = None):
        """Blocking send (generator; drive with ``yield from``)."""
        self._check_rank(src)
        self._check_rank(dst)
        if nbytes < 0:
            raise ValueError("message size must be non-negative")
        self.stats.record(src, nbytes)
        src_socket = self.socket_of(src)
        eager = self.impl.is_eager(nbytes)
        # sender-side software overhead
        yield self.engine.timeout(
            self.impl.protocol_overhead(nbytes) / 2 * self.overhead_multiplier)
        # enqueue under the receiver's queue lock
        yield from self._locked(dst)
        faults = self.machine.faults
        if eager:
            if faults is None:
                yield self.transport.copy_in(src_socket, src, nbytes)
            else:
                yield from self._lossy_delivery(faults, src_socket, src, dst,
                                                nbytes, copy=True)
            self._deliver(Message(src, dst, tag, nbytes, True, payload))
            return
        msg = Message(src, dst, tag, nbytes, False, payload,
                      ready=Event(self.engine), done=Event(self.engine))
        if faults is not None:
            # rendezvous: the lossy transport can drop/duplicate the
            # header announcement; the bulk path below is flow-controlled
            yield from self._lossy_delivery(faults, src_socket, src, dst,
                                            nbytes, copy=False)
        self._deliver(msg)
        yield msg.ready  # wait for the receiver to post
        # bulk payloads move in shared-memory fragments, each paying one
        # queue-lock round trip (fragmentation is what lets the SysV
        # sub-layer hurt bandwidth-bound transfers, Figure 12)
        fragment = self.machine.spec.params.shm_fragment_bytes
        extra_fragments = max(0, -(-nbytes // fragment) - 1)
        if extra_fragments:
            yield self.engine.timeout(extra_fragments * self._lock_cost)
        yield self.transport.bulk(src_socket, src, self.socket_of(dst), nbytes)
        msg.done.succeed()

    def isend(self, src: int, dst: int, nbytes: int, tag: int = 0,
              payload: object = None) -> Event:
        """Non-blocking send: returns the completion event of a send process."""
        return self.engine.process(self.send(src, dst, nbytes, tag, payload))

    def recv(self, dst: int, src: Optional[int] = None,
             tag: Optional[int] = None):
        """Blocking receive (generator); returns the matched :class:`Message`."""
        self._check_rank(dst)
        if src is not None:
            self._check_rank(src)
        # receiver-side software overhead + dequeue locking
        yield from self._locked(dst)
        msg: Message = yield self._match_or_wait(dst, src, tag)
        yield self.engine.timeout(
            self.impl.protocol_overhead(msg.nbytes) / 2
            * self.overhead_multiplier)
        # header/wire latency between the endpoint sockets
        wire = self.transport.wire_latency(self.socket_of(msg.src), self.socket_of(dst))
        if wire > 0:
            yield self.engine.timeout(wire)
        if msg.eager:
            yield self.transport.copy_out(self.socket_of(dst), msg.src, msg.nbytes)
        else:
            msg.ready.succeed()
            yield msg.done
        return msg

    def irecv(self, dst: int, src: Optional[int] = None,
              tag: Optional[int] = None) -> Event:
        """Non-blocking receive: completion event carries the message."""
        return self.engine.process(self.recv(dst, src, tag))

    def sendrecv(self, rank: int, send_to: int, recv_from: int,
                 nbytes: int, tag: int = 0, recv_tag: Optional[int] = None):
        """Concurrent send+recv (deadlock-free ring/exchange building block)."""
        send_done = self.isend(rank, send_to, nbytes, tag)
        msg = yield from self.recv(rank, src=recv_from,
                                   tag=tag if recv_tag is None else recv_tag)
        yield send_done
        return msg

    # -- collectives -----------------------------------------------------------

    def barrier(self, rank: int):
        """Dissemination barrier: ceil(log2 p) zero-byte rounds."""
        p = self.size
        if p == 1:
            return
        step, round_no = 1, 0
        while step < p:
            to = (rank + step) % p
            frm = (rank - step) % p
            yield from self.sendrecv(rank, to, frm, 0,
                                     tag=self._TAG_BARRIER + round_no)
            step *= 2
            round_no += 1

    def allreduce(self, rank: int, nbytes: int):
        """Recursive-doubling allreduce (general p via pre/post folding)."""
        p = self.size
        if p == 1:
            return
        p2 = 1
        while p2 * 2 <= p:
            p2 *= 2
        extra = p - p2
        tag0 = self._TAG_ALLREDUCE
        if rank >= p2:
            # fold into the lower half, wait for the result
            yield from self.send(rank, rank - p2, nbytes, tag0)
            yield from self.recv(rank, src=rank - p2, tag=tag0 + 99)
            return
        if rank < extra:
            yield from self.recv(rank, src=rank + p2, tag=tag0)
        step, round_no = 1, 1
        while step < p2:
            partner = rank ^ step
            yield from self.sendrecv(rank, partner, partner, nbytes,
                                     tag=tag0 + round_no)
            step *= 2
            round_no += 1
        if rank < extra:
            yield from self.send(rank, rank + p2, nbytes, tag0 + 99)

    def bcast(self, rank: int, root: int, nbytes: int):
        """Binomial-tree broadcast (the MPICH formulation)."""
        p = self.size
        if p == 1:
            return
        vrank = (rank - root) % p
        tag = self._TAG_BCAST
        # Receive from the parent: the bit below the lowest set bit of
        # vrank identifies it.  The root (vrank 0) never receives and
        # exits the loop with mask >= p.
        mask = 1
        while mask < p:
            if vrank & mask:
                parent = ((vrank ^ mask) + root) % p
                yield from self.recv(rank, src=parent, tag=tag)
                break
            mask *= 2
        # Forward to children vrank + mask/2, vrank + mask/4, ...
        mask //= 2
        while mask >= 1:
            child = vrank + mask
            if child < p:
                yield from self.send(rank, (child + root) % p, nbytes, tag)
            mask //= 2

    def alltoall(self, rank: int, nbytes_per_pair: int):
        """Pairwise-exchange alltoall: p-1 sendrecv rounds."""
        p = self.size
        for i in range(1, p):
            to = (rank + i) % p
            frm = (rank - i) % p
            yield from self.sendrecv(rank, to, frm, nbytes_per_pair,
                                     tag=self._TAG_ALLTOALL + i)

    def allgather(self, rank: int, nbytes: int):
        """Ring allgather: p-1 rounds passing blocks around the ring."""
        p = self.size
        for i in range(p - 1):
            to = (rank + 1) % p
            frm = (rank - 1) % p
            yield from self.sendrecv(rank, to, frm, nbytes,
                                     tag=self._TAG_ALLGATHER + i)

    def reduce(self, rank: int, root: int, nbytes: int):
        """Binomial-tree reduction toward ``root``."""
        p = self.size
        if p == 1:
            return
        vrank = (rank - root) % p
        tag = self._TAG_REDUCE
        mask = 1
        while mask < p:
            if vrank & mask:
                parent = (vrank & ~mask)
                yield from self.send(rank, (parent + root) % p, nbytes, tag)
                return
            child = vrank | mask
            if child < p:
                yield from self.recv(rank, src=(child + root) % p, tag=tag)
            mask *= 2
