"""Data-carrying collectives: the algorithms, verified on real payloads.

The cost collectives in :class:`~repro.mpi.simmpi.MpiWorld` move byte
*counts*; these variants move actual values through the same simulated
transport (messages carry payloads), so the communication schedules are
validated functionally: a data allreduce must produce the same sum on
every rank as a serial reduction, an allgather the same ordered list,
and so on.  The tests drive them with random arrays against numpy
references.

All functions are generators driven with ``yield from`` inside rank
programs, mirroring the cost API.  Payload sizes are accounted with the
same protocol costs, so these can also be used as drop-in replacements
when a workload wants both timing *and* data movement.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Optional

from .simmpi import MpiWorld

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

__all__ = [
    "allreduce_data",
    "reduce_data",
    "bcast_data",
    "allgather_data",
    "alltoall_data",
]

#: tag bases disjoint from the cost collectives' ranges
_TAG_DALLREDUCE = 7 << 20
_TAG_DBCAST = 8 << 20
_TAG_DALLGATHER = 9 << 20
_TAG_DREDUCE = 10 << 20
_TAG_DALLTOALL = 11 << 20


def _payload_bytes(value: Any) -> int:
    """Wire size of a payload (numpy arrays by nbytes, else a word)."""
    import numpy as np

    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    return 8


def _default_op(op: Optional[Callable[[Any, Any], Any]]):
    if op is not None:
        return op
    import numpy as np

    return np.add


def allreduce_data(world: MpiWorld, rank: int, value: np.ndarray,
                   op: Optional[Callable[[Any, Any], Any]] = None):
    """Recursive-doubling allreduce carrying real data; returns the result.

    ``op`` must be associative and commutative (the schedule combines
    partial results in partner order); ``None`` means ``numpy.add``.
    """
    op = _default_op(op)
    p = world.size
    accumulator = value
    if p == 1:
        return accumulator
    p2 = 1
    while p2 * 2 <= p:
        p2 *= 2
    extra = p - p2
    nbytes = _payload_bytes(value)
    if rank >= p2:
        yield from world.send(rank, rank - p2, nbytes, _TAG_DALLREDUCE,
                              payload=accumulator)
        msg = yield from world.recv(rank, src=rank - p2,
                                    tag=_TAG_DALLREDUCE + 99)
        return msg.payload
    if rank < extra:
        msg = yield from world.recv(rank, src=rank + p2, tag=_TAG_DALLREDUCE)
        accumulator = op(accumulator, msg.payload)
    # the doubling rounds exchange distinct payloads in both directions,
    # so they use explicit isend+recv pairs rather than sendrecv
    return (yield from _doubling_exchange(world, rank, p2, accumulator,
                                          op, nbytes, extra))


def _doubling_exchange(world: MpiWorld, rank: int, p2: int, accumulator,
                       op, nbytes: int, extra: int):
    """The payload-carrying recursive-doubling rounds (ranks < p2)."""
    step, round_no = 1, 100
    while step < p2:
        partner = rank ^ step
        send_done = world.isend(rank, partner, nbytes,
                                _TAG_DALLREDUCE + round_no,
                                payload=accumulator)
        msg = yield from world.recv(rank, src=partner,
                                    tag=_TAG_DALLREDUCE + round_no)
        yield send_done
        accumulator = op(accumulator, msg.payload)
        step *= 2
        round_no += 1
    if rank < extra:
        yield from world.send(rank, rank + p2, nbytes,
                              _TAG_DALLREDUCE + 99, payload=accumulator)
    return accumulator


def reduce_data(world: MpiWorld, rank: int, value, root: int,
                op: Optional[Callable[[Any, Any], Any]] = None):
    """Binomial-tree reduction; returns the result at ``root``, else None.

    ``op`` defaults (``None``) to ``numpy.add``.
    """
    op = _default_op(op)
    p = world.size
    vrank = (rank - root) % p
    accumulator = value
    nbytes = _payload_bytes(value)
    mask = 1
    while mask < p:
        if vrank & mask:
            parent = (vrank & ~mask)
            yield from world.send(rank, (parent + root) % p, nbytes,
                                  _TAG_DREDUCE, payload=accumulator)
            return None
        child = vrank | mask
        if child < p:
            msg = yield from world.recv(rank, src=(child + root) % p,
                                        tag=_TAG_DREDUCE)
            accumulator = op(accumulator, msg.payload)
        mask *= 2
    return accumulator


def bcast_data(world: MpiWorld, rank: int, value, root: int):
    """Binomial broadcast; every rank returns the root's value."""
    p = world.size
    if p == 1:
        return value
    vrank = (rank - root) % p
    payload = value
    mask = 1
    while mask < p:
        if vrank & mask:
            parent = ((vrank ^ mask) + root) % p
            msg = yield from world.recv(rank, src=parent, tag=_TAG_DBCAST)
            payload = msg.payload
            break
        mask *= 2
    mask //= 2
    nbytes = _payload_bytes(payload)
    while mask >= 1:
        child = vrank + mask
        if child < p:
            yield from world.send(rank, (child + root) % p, nbytes,
                                  _TAG_DBCAST, payload=payload)
        mask //= 2
    return payload


def allgather_data(world: MpiWorld, rank: int, value) -> List[Any]:
    """Ring allgather; returns the rank-ordered list of contributions."""
    p = world.size
    blocks: List[Optional[Any]] = [None] * p
    blocks[rank] = value
    nbytes = _payload_bytes(value)
    for i in range(p - 1):
        send_index = (rank - i) % p
        recv_index = (rank - i - 1) % p
        send_done = world.isend(rank, (rank + 1) % p, nbytes,
                                _TAG_DALLGATHER + i,
                                payload=(send_index, blocks[send_index]))
        msg = yield from world.recv(rank, src=(rank - 1) % p,
                                    tag=_TAG_DALLGATHER + i)
        yield send_done
        index, block = msg.payload
        assert index == recv_index
        blocks[recv_index] = block
    return blocks


def alltoall_data(world: MpiWorld, rank: int,
                  values: List[Any]) -> List[Any]:
    """Pairwise-exchange alltoall; element i of the result came from rank i."""
    p = world.size
    if len(values) != p:
        raise ValueError(f"need one value per rank, got {len(values)}")
    received: List[Optional[Any]] = [None] * p
    received[rank] = values[rank]
    for i in range(1, p):
        to = (rank + i) % p
        frm = (rank - i) % p
        send_done = world.isend(rank, to, _payload_bytes(values[to]),
                                _TAG_DALLTOALL + i, payload=values[to])
        msg = yield from world.recv(rank, src=frm, tag=_TAG_DALLTOALL + i)
        yield send_done
        received[frm] = msg.payload
    return received
