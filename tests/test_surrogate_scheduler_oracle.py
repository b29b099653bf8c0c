"""The fast-tier scheduler against a frozen reference implementation.

:class:`~repro.surrogate.SurrogateEvaluator` compiles each rank's
program into bound steps (cost pieces and inboxes attached at build
time, message totals summed from the bound program) for speed alone.
``ReferenceEvaluator`` below keeps the scheduler that defined the fast
tier's numbers: steps carry ``(src, dst, nbytes)``, and the loop costs
each message shape on first post and counts messages as it posts them.
Every feasible fast cell behind ``repro-bench all``, one cell per
registry workload and machine, and drawn programs must give the same
result from both, bit for bit, or the same exception and message.
"""

from __future__ import annotations

import copy
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import ablations, cli, extensions, figures, tables
from repro.core.affinity import AffinityScheme, resolve_scheme
from repro.core.execution import JobResult
from repro.core.ops import (Barrier, Bcast, Compute, MarkerStart, MarkerStop,
                            Op, Recv, Reduce, Send, SendRecv)
from repro.core.workload import Workload
from repro.errors import InfeasibleSchemeError, SurrogateUnsupportedError
from repro.machine import all_systems, dmz, longs, tiger
from repro.mpi.implementations import LAM, MPICH2, OPENMPI
from repro.service.registry import WORKLOADS
from repro.surrogate import SurrogateEvaluator
from repro.surrogate.evaluator import (_COLLECTIVES, _COMPUTE, _NOOP, _RECV,
                                       _SEND, _SENDRECV, _check_message,
                                       _check_rank, _expand_collective,
                                       _op_reason)


class ReferenceEvaluator(SurrogateEvaluator):
    """The scheduler as it was before steps were bound to a run."""

    def _program_steps(self, workload: Workload, rank: int,
                       n: int) -> List[tuple]:
        """One pass over a rank's program: check, cost and flatten it.

        Each distinct op object is checked and turned into steps once.
        ``seen`` maps ``id(op)`` to ``(op, its steps)``; holding ``op``
        keeps the object alive, so its id cannot be reused during the
        pass.  Behind it, ``memo`` shares the steps of equal Compute and
        collective ops that a generator yields as fresh objects.
        """
        steps: List[tuple] = []
        seen: Dict[int, Tuple[Op, List[tuple]]] = {}
        memo: Dict[Op, List[tuple]] = {}
        lookup, extend = seen.get, steps.extend
        for op in workload.program(rank):
            hit = lookup(id(op))
            if hit is None:
                hit = seen[id(op)] = (op, self._op_steps(op, rank, n, memo))
            extend(hit[1])
        return steps

    def _op_steps(self, op: Op, rank: int, n: int,
                  memo: Dict[Op, List[tuple]]) -> List[tuple]:
        """Check one op and build its steps (none for a marker)."""
        if isinstance(op, Compute):
            own = memo.get(op)
            if own is None:
                self._check_thread_team(op, rank)
                own = memo[op] = [(
                    _COMPUTE, self._compute_cost_scalar(op, rank),
                    0, 0, 0, ("compute", op.phase))]
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
                own = memo[op] = [sub + (None,) for sub in subops[:-1]]
                own.append(subops[-1] + (("comm", op.phase),))
            return own
        if isinstance(op, SendRecv):
            # the exact tier posts the receive before the send checks run
            _check_rank(op.recv_from, n)
            _check_message(op.send_to, op.nbytes, n)
            return [(_SENDRECV, op.send_to, op.recv_from, op.nbytes,
                     op.tag, ("comm", op.phase))]
        if isinstance(op, Send):
            _check_message(op.dst, op.nbytes, n)
            return [(_SEND, op.dst, 0, op.nbytes, op.tag,
                     ("comm", op.phase))]
        if isinstance(op, Recv) and op.src is not None:
            _check_rank(op.src, n)
            return [(_RECV, 0, op.src, 0, op.tag, ("comm", op.phase))]
        if isinstance(op, (MarkerStart, MarkerStop)):
            return []  # markers are zero-cost observability brackets
        raise SurrogateUnsupportedError(_op_reason(op))

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
        programs = [self._program_steps(workload, rank, n)
                    for rank in range(n)]

        # Advance per-rank virtual clocks to completion.  A rank runs
        # until it blocks: on an unmatched receive, or on its own
        # rendezvous send (``out``) until the receiver fills in the
        # record's send end.  ``rend`` is a sendrecv's receive end while
        # its rendezvous half is still in flight.
        lock = self.lock_cost
        pieces_of = self._message_pieces
        costs: Dict[Tuple[int, int, int], tuple] = {}
        #: inboxes[dst][src]: FIFO of [tag, avail, send_end, pieces]
        inboxes = [[[] for _ in range(n)] for _ in range(n)]
        positions = [0] * n
        clocks = [0.0] * n
        starts = [0.0] * n  # when each rank's current op began
        outs: List[Optional[list]] = [None] * n
        rends: List[Optional[float]] = [None] * n
        messages = 0
        bytes_sent = 0
        category_times: List[Dict[str, float]] = [dict() for _ in range(n)]
        phase_times: List[Dict[str, float]] = [dict() for _ in range(n)]

        progressed = True
        while progressed:
            progressed = False
            for rank in range(n):
                steps = programs[rank]
                nsteps = len(steps)
                pos = positions[rank]
                if pos >= nsteps:
                    continue
                clock = clocks[rank]
                start = starts[rank]
                out = outs[rank]
                rend = rends[rank]
                inbox = inboxes[rank]
                buckets = category_times[rank]
                phases = phase_times[rank]
                while pos < nsteps:
                    kind, dst, src, nbytes, tag, end = steps[pos]
                    if kind == _COMPUTE:
                        clock += dst  # the dst slot holds the cost
                    elif kind != _NOOP:
                        if kind != _RECV and out is None:
                            # post the outgoing message
                            messages += 1
                            bytes_sent += nbytes
                            key = (rank, dst, nbytes)
                            pieces = costs.get(key)
                            if pieces is None:
                                pieces = costs[key] = pieces_of(rank, dst,
                                                                nbytes)
                            avail = clock + pieces[1] + lock
                            if pieces[0]:
                                avail = avail + pieces[2]
                                out = [tag, avail, avail, pieces]
                            else:
                                out = [tag, avail, None, pieces]
                            inboxes[dst][rank].append(out)
                            progressed = True
                        if kind != _SEND and rend is None:
                            queue = inbox[src]
                            for i, msg in enumerate(queue):
                                if tag is None or msg[0] == tag:
                                    break
                            else:
                                break  # no match yet
                            del queue[i]
                            eager, oh2, _, wire, tail_a, tail_b = msg[3]
                            matched = clock + lock
                            if msg[1] > matched:
                                matched = msg[1]
                            rend = matched + oh2 + wire
                            if eager:
                                rend = rend + tail_a
                            else:
                                rend = rend + tail_a + tail_b
                                msg[2] = rend
                            progressed = True
                        if kind == _RECV:
                            clock = rend
                        else:
                            send_end = out[2]
                            if send_end is None:
                                break  # rendezvous: wait for the receiver
                            if kind == _SEND or send_end > rend:
                                clock = send_end
                            else:
                                clock = rend
                        out = rend = None
                    pos += 1
                    progressed = True
                    if end is not None:
                        elapsed = clock - start
                        category, phase = end
                        buckets[category] = (buckets.get(category, 0.0)
                                             + elapsed)
                        if phase:
                            phases[phase] = phases.get(phase, 0.0) + elapsed
                        start = clock
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


def _outcome(evaluator, spec, workload, affinity, impl=OPENMPI, lock=None):
    """``repr`` of the result's ``to_dict()``, or the exception's type
    and text."""
    try:
        result = evaluator(spec, affinity, impl=impl, lock=lock
                           ).run(workload)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)
    return repr(result.to_dict())


def _assert_same(spec, workload, affinity, impl=OPENMPI, lock=None):
    expected = _outcome(ReferenceEvaluator, spec, workload, affinity,
                        impl, lock)
    assert _outcome(SurrogateEvaluator, spec, workload, affinity,
                    impl, lock) == expected
    return expected


def _affinity(spec, workload, scheme=AffinityScheme.DEFAULT, parked=0):
    try:
        return resolve_scheme(scheme, spec, workload.ntasks, parked=parked)
    except InfeasibleSchemeError:
        return None  # a paper dash: no schedule to compare


def _bench_cells():
    """Every distinct fast cell ``repro-bench all`` reads."""
    names = sorted(cli.TARGETS)
    cells = {}
    for cell in (tables.sweep_requests() + figures.figure_requests(names)
                 + ablations.requests(names) + extensions.requests(names)):
        cell = replace(cell, tier="fast")
        cells.setdefault(cell.key(), cell)
    return list(cells.values())


def test_every_fast_bench_cell_schedules_like_the_reference():
    compared = 0
    for cell in _bench_cells():
        if cell.profile or cell.faults:
            continue
        affinity = cell.affinity or _affinity(cell.spec, cell.workload,
                                              cell.scheme, cell.parked)
        if affinity is None:
            continue
        outcome = _assert_same(cell.spec, cell.workload, affinity,
                               cell.impl or OPENMPI, cell.lock)
        assert isinstance(outcome, str), (cell.label(), outcome)
        compared += 1
    assert compared > 500


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_registry_workload_schedules_like_the_reference(name):
    for spec in all_systems():
        workload = WORKLOADS[name](spec.total_cores)
        affinity = _affinity(spec, workload)
        if affinity is not None:
            _assert_same(spec, workload, affinity)


# -- drawn programs ------------------------------------------------------------

#: around every eager threshold (4, 16 and 64 KiB) and the 64 KiB
#: fragment, plus anything up to a few fragments
SIZES = st.one_of(
    st.sampled_from([0, 1, 4096, 4097, 16384, 16385, 65536, 65537,
                     200_000]),
    st.integers(0, 300_000))
PHASES = st.sampled_from(["", "a", "b"])
TAGS = st.integers(0, 3)


class _Drawn(Workload):
    """Per-rank op lists, repeated ``iters`` times, as shared objects or
    as fresh copies of them."""

    name = "drawn"

    def __init__(self, ops, iters, fresh):
        self.ops = ops
        self.ntasks = len(ops)
        self.iters = iters
        self.fresh = fresh

    def program(self, rank):
        for _ in range(self.iters):
            for op in self.ops[rank]:
                yield copy.copy(op) if self.fresh else op


@st.composite
def _segment(draw, n):
    """One stretch of the program, as an op list per rank."""
    ranks: List[List[Op]] = [[] for _ in range(n)]
    kind = draw(st.sampled_from(["compute", "collective", "pair", "shift",
                                 "marker", "stray"]))
    phase = draw(PHASES)
    if kind == "compute":
        for ops in ranks:
            ops.append(Compute(
                flops=draw(st.floats(0, 1e8)),
                dram_bytes=draw(st.floats(0, 1e8)),
                working_set=draw(st.floats(0, 1e8)),
                reuse=draw(st.floats(0, 1)),
                random_accesses=draw(st.floats(0, 1e5)),
                phase=phase))
    elif kind == "collective":
        cls = draw(st.sampled_from(_COLLECTIVES))
        if cls is Barrier:
            op = Barrier(phase=phase)
        elif cls in (Bcast, Reduce):
            op = cls(root=draw(st.integers(0, n - 1)), nbytes=draw(SIZES),
                     phase=phase)
        else:
            op = cls(nbytes=draw(SIZES), phase=phase)
        for ops in ranks:
            ops.append(op)
    elif kind == "pair":
        # a few tagged sends from one rank to another (maybe itself),
        # received in a drawn order, some by wildcard tag
        src, dst = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        sends = [Send(dst=dst, nbytes=draw(SIZES), tag=draw(TAGS),
                      phase=phase) for _ in range(draw(st.integers(1, 3)))]
        ranks[src].extend(sends)
        for send in draw(st.permutations(sends)):
            tag = None if draw(st.booleans()) else send.tag
            ranks[dst].append(Recv(src=src, tag=tag, phase=phase))
    elif kind == "shift":
        k, nbytes, tag = draw(st.integers(0, n)), draw(SIZES), draw(TAGS)
        for rank, ops in enumerate(ranks):
            ops.append(SendRecv(send_to=(rank + k) % n,
                                recv_from=(rank - k) % n, nbytes=nbytes,
                                tag=tag, phase=phase))
    elif kind == "marker":
        for ops in ranks:
            ops.extend([MarkerStart(name=phase), MarkerStop(name=phase)])
    else:
        # one unmatched or malformed op: deadlocks, peers outside the
        # world, negative sizes and wildcard sources
        peer = st.integers(-1, n)
        nbytes = draw(st.one_of(SIZES, st.just(-1)))
        op = draw(st.sampled_from([
            Send(dst=draw(peer), nbytes=nbytes, tag=draw(TAGS)),
            Recv(src=draw(st.one_of(peer, st.none())), tag=draw(TAGS)),
            SendRecv(send_to=draw(peer), recv_from=draw(peer),
                     nbytes=nbytes, tag=draw(TAGS)),
        ]))
        ranks[draw(st.integers(0, n - 1))].append(op)
    return ranks


@st.composite
def _cells(draw):
    spec = draw(st.sampled_from([tiger(), dmz(), longs()]))
    n = draw(st.integers(1, min(6, spec.total_cores)))
    ops: List[List[Op]] = [[] for _ in range(n)]
    for _ in range(draw(st.integers(1, 6))):
        for mine, more in zip(ops, draw(_segment(n))):
            mine.extend(more)
    workload = _Drawn(ops, draw(st.integers(1, 3)), draw(st.booleans()))
    impl = draw(st.sampled_from([OPENMPI, MPICH2, LAM]))
    lock = draw(st.sampled_from([None, "sysv"]))
    return spec, workload, impl, lock


@settings(max_examples=300, deadline=None)
@given(_cells())
def test_drawn_programs_schedule_like_the_reference(cell):
    spec, workload, impl, lock = cell
    affinity = resolve_scheme(AffinityScheme.DEFAULT, spec, workload.ntasks)
    _assert_same(spec, workload, affinity, impl, lock)
