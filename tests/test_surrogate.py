"""Tests for the fast-tier analytic surrogate and its tier plumbing.

Three properties matter and each gets its own section below:

* **fidelity** — on supported cells the surrogate must agree with the
  event-driven engine (wall time, message and byte accounting);
* **honesty** — on unsupported cells (marker profiling, fault plans)
  an explicit ``tier="fast"`` refuses loudly, and ``tier="auto"``
  falls back to the exact engine with byte-identical cache keys;
* **stability** — the scheduler's output is pinned bit-for-bit by
  golden digests of 36 cells covering every op kind, every
  MPI implementation and both protocols (``tests/data``), so a rewrite
  of the evaluator that changes one float's rounding fails here.
"""

import copy
import hashlib
import json
import os
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.apps.md.amber import AmberSander
from repro.apps.md.lammps import LammpsBench
from repro.apps.pop.model import Pop
from repro.core.affinity import AffinityScheme, resolve_scheme
from repro.core.ops import (Allgather, Allreduce, Alltoall, Barrier, Bcast,
                            Compute, MarkerStart, MarkerStop, Recv, Reduce,
                            Send, SendRecv)
from repro.core.metrics import spearman
from repro.core.parallel import JobRequest
from repro.core.workload import Workload
from repro.errors import SurrogateUnsupportedError
from repro.faults import CoreSlowdown, FaultPlan
from repro.machine import dmz, longs
from repro.mpi.implementations import LAM, MPICH2
from repro.service.session import Session
from repro.surrogate import SurrogateEvaluator, unsupported_reason
from repro.workloads.hpcc import (HpccDgemm, HpccHpl, HpccRandomAccess,
                                  HpccStream, RingExchange)
from repro.workloads.hybrid import HybridNasCG, HybridNasFT, hybrid_affinity
from repro.workloads.imb import (ImbAllreduce, ImbBcast, ImbExchange,
                                 ImbPingPong, ImbSendRecv)
from repro.workloads.nas import NasCG, NasFT, NasMG


def _cell(workload, scheme=AffinityScheme.DEFAULT, spec=None, **kwargs):
    return JobRequest(spec=spec if spec is not None else longs(),
                      workload=workload, scheme=scheme, **kwargs)


# -- fidelity: fast agrees with exact on supported cells ----------------


AGREEMENT_CELLS = [
    (HpccStream(4), AffinityScheme.DEFAULT),
    (HpccStream(4), AffinityScheme.INTERLEAVE),
    (HpccDgemm(2), AffinityScheme.DEFAULT),
    (HpccRandomAccess(4), AffinityScheme.ONE_MPI_LOCAL),
    (NasCG(4), AffinityScheme.DEFAULT),
    (NasFT(4), AffinityScheme.INTERLEAVE),
]


@pytest.mark.parametrize("workload,scheme", AGREEMENT_CELLS,
                         ids=lambda value: str(value))
def test_fast_tier_matches_exact_wall_time(workload, scheme):
    exact = _cell(workload, scheme, tier="exact").execute()
    fast = _cell(workload, scheme, tier="fast").execute()
    assert fast.wall_time == pytest.approx(exact.wall_time, rel=0.02)


def test_fast_tier_matches_exact_message_accounting():
    # Collective expansion (CG is allreduce/bcast heavy) must post the
    # same messages and bytes as the engine's MpiWorld algorithms.
    exact = _cell(NasCG(4), tier="exact").execute()
    fast = _cell(NasCG(4), tier="fast").execute()
    assert fast.messages == exact.messages
    assert fast.bytes_sent == exact.bytes_sent


def test_fast_tier_matches_exact_on_dmz_fractional_placement():
    # DMZ's Default distribution splits pages across nodes; the
    # processor-sharing drain term must reproduce the engine's
    # fair-share bandwidth behavior, not just whole-node placements.
    for scheme in (AffinityScheme.DEFAULT, AffinityScheme.INTERLEAVE):
        exact = _cell(HpccStream(4), scheme, spec=dmz(),
                      tier="exact").execute()
        fast = _cell(HpccStream(4), scheme, spec=dmz(),
                     tier="fast").execute()
        assert fast.wall_time == pytest.approx(exact.wall_time, rel=0.02)


def test_surrogate_preserves_scheme_ranking():
    walls = {}
    for scheme in (AffinityScheme.DEFAULT, AffinityScheme.ONE_MPI_LOCAL,
                   AffinityScheme.INTERLEAVE):
        walls[scheme] = (
            _cell(HpccStream(4), scheme, tier="exact").execute().wall_time,
            _cell(HpccStream(4), scheme, tier="fast").execute().wall_time,
        )
    exact_order = sorted(walls, key=lambda s: walls[s][0])
    fast_order = sorted(walls, key=lambda s: walls[s][1])
    assert exact_order == fast_order


# -- honesty: unsupported cells refuse or fall back ---------------------


def test_unsupported_reason_is_none_for_plain_cells():
    assert unsupported_reason(HpccStream(4)) is None


def test_unsupported_reason_flags_profiling_and_faults():
    assert "profil" in unsupported_reason(HpccStream(4), profile=True)
    plan = FaultPlan(seed=1, faults=(CoreSlowdown(core=0, factor=2.0),))
    assert "fault" in unsupported_reason(HpccStream(4), faults=plan)


def test_explicit_fast_tier_refuses_profiled_cell():
    request = _cell(HpccStream(4), profile=True, tier="fast")
    with pytest.raises(SurrogateUnsupportedError):
        request.execute()


def test_explicit_fast_tier_refuses_faulted_cell():
    plan = FaultPlan(seed=1, faults=(CoreSlowdown(core=0, factor=2.0),))
    request = _cell(HpccStream(4), faults=plan, tier="fast")
    with pytest.raises(SurrogateUnsupportedError):
        request.execute()


def test_auto_tier_falls_back_to_exact_for_profiled_cell():
    auto = _cell(HpccStream(4), profile=True, tier="auto")
    assert auto.effective_tier() == "exact"
    result = auto.execute()
    assert result.perf is not None  # the engine ran, counters attached
    exact = _cell(HpccStream(4), profile=True, tier="exact").execute()
    assert result.wall_time == exact.wall_time


def test_auto_tier_uses_surrogate_for_supported_cell():
    assert _cell(HpccStream(4), tier="auto").effective_tier() == "fast"


class _Pair(Workload):
    """Two ranks running the given per-rank op lists."""

    ntasks = 2

    def __init__(self, name, rank0, rank1):
        self.name = name
        self.ops = (rank0, rank1)

    def program(self, rank):
        yield from self.ops[rank]


def _wildcard():
    return _Pair("wildcard", [Send(dst=1, nbytes=64)], [Recv(src=None)])


def test_explicit_fast_tier_refuses_wildcard_recv_with_label():
    request = _cell(_wildcard(), tier="fast")
    reason = unsupported_reason(_wildcard())
    assert "arrival-order matching" in reason
    with pytest.raises(SurrogateUnsupportedError) as excinfo:
        request.execute()
    assert str(excinfo.value) == f"{request.label()}: {reason}"


def test_auto_tier_runs_wildcard_recv_on_exact():
    auto = _cell(_wildcard(), tier="auto")
    assert auto.effective_tier() == "exact"
    assert auto.key() == _cell(_wildcard(), tier="exact").key()
    assert auto.execute().messages == 1


def test_unmatched_recv_never_completes():
    workload = _Pair("orphan", [Recv(src=1, tag=5)], [])
    with pytest.raises(SurrogateUnsupportedError, match="never complete"):
        _cell(workload, tier="fast").execute()


@pytest.mark.parametrize("rank0,rank1,stuck", [
    ([Recv(src=1)], [], "[0]"),
    ([Recv(src=1, tag=5)], [Send(dst=0, nbytes=64, tag=4)], "[0]"),
    ([Recv(src=1)], [Recv(src=0)], "[0, 1]"),
    ([Barrier()], [], "[0]"),
], ids=["orphan", "tag-mismatch", "both-wait", "half-barrier"])
def test_exact_tier_refuses_deadlocked_program(rank0, rank1, stuck):
    # The schedule drains while the ranks wait: that is a deadlock,
    # not a finished job with the waiting ranks' times left at zero.
    with pytest.raises(ValueError) as excinfo:
        _cell(_Pair("pair", rank0, rank1), tier="exact").execute()
    assert str(excinfo.value) == (
        f"pair: ranks {stuck} never complete: the schedule drained "
        "while they waited (deadlock)")


def test_fast_tier_completes_when_a_late_post_unblocks_a_peer():
    # Rank 1's sendrecv posts its send and then waits; the post alone
    # must count as progress so rank 0's receive is retried.
    workload = _Pair("late-partner",
                     [Recv(src=1, tag=3), Send(dst=1, nbytes=100_000, tag=3)],
                     [SendRecv(send_to=0, recv_from=0, nbytes=100_000,
                               tag=3)])
    fast = _cell(workload, tier="fast").execute()
    exact = _cell(workload, tier="exact").execute()
    assert (fast.messages, fast.bytes_sent) == (2, 200_000)
    assert fast.wall_time == pytest.approx(exact.wall_time, rel=0.02)


def test_fast_tier_rejects_thread_oversubscription():
    # mirrors test_openmp_hybrid's exact-tier check: 2 ranks x 2 threads
    # fit DMZ one rank per socket, but not packed onto one socket
    workload = _Pair("threaded", [Compute(threads=2, flops=1e6)],
                     [Compute(threads=2, flops=1e6)])
    _cell(workload, AffinityScheme.ONE_MPI_LOCAL, spec=dmz(),
          tier="fast").execute()
    with pytest.raises(ValueError, match="oversubscribe"):
        _cell(workload, AffinityScheme.TWO_MPI_LOCAL, spec=dmz(),
              tier="fast").execute()


MALFORMED = [
    ("sendrecv-negative-size",
     [SendRecv(send_to=1, recv_from=1, nbytes=-16)],
     [SendRecv(send_to=0, recv_from=0, nbytes=-16)],
     "message size must be non-negative"),
    ("allreduce-negative-size", [Allreduce(nbytes=-16)],
     [Allreduce(nbytes=-16)], "message size must be non-negative"),
    ("bcast-negative-size", [Bcast(nbytes=-4)], [Bcast(nbytes=-4)],
     "message size must be non-negative"),
    ("send-past-world", [Send(dst=5, nbytes=8)], [],
     "rank 5 outside world of size 2"),
    ("send-negative-rank", [Send(dst=-1, nbytes=8)], [Recv(src=0)],
     "rank -1 outside world of size 2"),
    ("sendrecv-past-world", [SendRecv(send_to=5, recv_from=1, nbytes=8)],
     [Send(dst=0, nbytes=8)], "rank 5 outside world of size 2"),
    ("recv-past-world", [Recv(src=5)], [], "rank 5 outside world of size 2"),
    ("recv-negative-rank", [Recv(src=-1)], [Send(dst=0, nbytes=8)],
     "rank -1 outside world of size 2"),
    ("sendrecv-recv-past-world",
     [SendRecv(send_to=1, recv_from=7, nbytes=-8)], [Recv(src=0)],
     "rank 7 outside world of size 2"),
]


@pytest.mark.parametrize("tier", ["exact", "fast"])
@pytest.mark.parametrize("name,rank0,rank1,message", MALFORMED,
                         ids=[case[0] for case in MALFORMED])
def test_both_tiers_reject_malformed_messages_alike(name, rank0, rank1,
                                                    message, tier):
    with pytest.raises(ValueError) as excinfo:
        _cell(_Pair(name, rank0, rank1), tier=tier).execute()
    assert str(excinfo.value) == message


class _FreshOps(Workload):
    """Yield a fresh copy of every op the wrapped workload yields."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.ntasks = inner.ntasks
        self.time_scale = inner.time_scale

    def validate(self):
        self.inner.validate()

    def program(self, rank):
        for op in self.inner.program(rank):
            yield copy.copy(op)


SHARED_OP_WORKLOADS = [
    Pop(4), AmberSander("jac", 4), LammpsBench("lj", 4),
    NasCG(4), NasFT(4), NasMG(4),
]


@pytest.mark.parametrize("tier", ["exact", "fast"])
@pytest.mark.parametrize("spec", [longs(), dmz()], ids=["longs", "dmz"])
@pytest.mark.parametrize("workload", SHARED_OP_WORKLOADS,
                         ids=[w.name for w in SHARED_OP_WORKLOADS])
def test_shared_and_fresh_op_objects_give_identical_results(workload, spec,
                                                            tier):
    ops = list(workload.program(0))
    assert len({id(op) for op in ops}) < len(ops)  # repeats are shared
    shared = _cell(workload, spec=spec, tier=tier).execute()
    fresh = _cell(_FreshOps(workload), spec=spec, tier=tier).execute()
    assert fresh.to_dict() == shared.to_dict()


# -- cache keys: tiers never collide, fallback is byte-identical --------


def test_fast_and_exact_cache_keys_differ():
    exact_key = _cell(HpccStream(4), tier="exact").key()
    fast_key = _cell(HpccStream(4), tier="fast").key()
    assert exact_key != fast_key


def test_default_tier_none_keys_like_exact():
    # Pre-surrogate ledgers and caches keyed cells with no tier at all;
    # those entries must stay addressable.
    assert _cell(HpccStream(4)).key() == _cell(HpccStream(4),
                                               tier="exact").key()


def test_auto_key_matches_resolved_tier():
    assert (_cell(HpccStream(4), tier="auto").key()
            == _cell(HpccStream(4), tier="fast").key())
    profiled_auto = _cell(HpccStream(4), profile=True, tier="auto")
    profiled_exact = _cell(HpccStream(4), profile=True, tier="exact")
    assert profiled_auto.key() == profiled_exact.key()


def test_session_tier_materializes_and_validates():
    cell = _cell(HpccStream(4))
    assert Session().cell(cell).tier is None
    fast = Session(tier="fast")
    assert fast.cell(cell).tier == "fast"
    assert fast.cell(cell).key() == _cell(HpccStream(4), tier="fast").key()
    # a cell's own tier wins over the session's
    assert fast.cell(_cell(HpccStream(4), tier="exact")).tier == "exact"
    with pytest.raises(ValueError):
        Session(tier="warp")


def test_evaluator_handles_fully_occupied_machine():
    spec = longs()
    workload = HpccStream(spec.total_cores)
    affinity = resolve_scheme(AffinityScheme.DEFAULT, spec, workload.ntasks)
    result = SurrogateEvaluator(spec, affinity).run(workload)
    assert result.wall_time > 0


# -- stability: golden digests pin the scheduler bit-for-bit -----------


class _EveryOp(Workload):
    """Every op kind the fast tier runs, at eager/rendezvous/fragment sizes.

    Neighbours pair up as ``rank ^ 1``; the even rank sends first, so a
    rendezvous send always finds its receiver.  ``Reduce`` has no other
    user in the package.
    """

    def __init__(self, ntasks: int):
        self.ntasks = ntasks
        self.time_scale = 2.0
        self.name = f"every-op[p={ntasks}]"

    def program(self, rank):
        p = self.ntasks
        partner = rank ^ 1
        yield MarkerStart(name="all")
        yield Barrier(phase="sync")
        for nbytes in (0, 1000, 20_000, 100_000, 300_000):
            yield Compute(flops=1e6, dram_bytes=2e5 + nbytes,
                          working_set=4e6, reuse=0.3,
                          random_accesses=1e3, phase="work")
            if partner < p:
                out = Send(dst=partner, nbytes=nbytes, tag=7, phase="p2p")
                back = Recv(src=partner, tag=None, phase="p2p")
                yield from ((out, back) if rank % 2 == 0 else (back, out))
            yield Allreduce(nbytes=nbytes // 10 + 8, phase="coll")
        yield Alltoall(nbytes=2048, phase="coll")
        yield Allgather(nbytes=70_000, phase="coll")
        yield Bcast(root=p - 1, nbytes=300_000)
        yield Reduce(root=p // 2, nbytes=50_000, phase="coll")
        yield MarkerStop(name="all")
        yield Barrier()


def _golden_cells():
    """(id, JobRequest) pairs; ids are the fixture's keys.

    Together they run every op kind and every collective (also at
    p == 1), eager, rendezvous and multi-fragment messages under
    OpenMPI (the default), MPICH2 and LAM, thread teams and phases, on
    both machines.
    """
    L, D = longs(), dmz()
    S = AffinityScheme
    cells = [
        ("pop16-longs", L, Pop(16), S.DEFAULT, {}),
        ("pop4-longs-mpich2", L, Pop(4), S.INTERLEAVE, {"impl": MPICH2}),
        ("pop8-longs-lam", L, Pop(8), S.TWO_MPI_LOCAL, {"impl": LAM}),
        ("amber-dhfr8-longs", L, AmberSander("dhfr", 8), S.DEFAULT, {}),
        ("amber-gbmb8-longs-lam", L, AmberSander("gb_mb", 8),
         S.ONE_MPI_LOCAL, {"impl": LAM}),
        ("cg8-longs", L, NasCG(8), S.DEFAULT, {}),
        ("cg16-longs-mpich2", L, NasCG(16), S.INTERLEAVE, {"impl": MPICH2}),
        ("ft4-longs", L, NasFT(4), S.DEFAULT, {}),
        ("ft8-longs-lam", L, NasFT(8), S.ONE_MPI_MEMBIND, {"impl": LAM}),
        ("hpl4-longs", L, HpccHpl(4, n=2048), S.DEFAULT, {}),
        ("hpl6-longs-mpich2", L, HpccHpl(6, n=2048), S.DEFAULT,
         {"impl": MPICH2}),
        ("ra8-longs-lam-sysv", L, HpccRandomAccess(8), S.DEFAULT,
         {"impl": LAM, "lock": "sysv"}),
        ("ra1-longs", L, HpccRandomAccess(1), S.DEFAULT, {}),
        ("pingpong0-longs", L, ImbPingPong(0), S.DEFAULT, {}),
        ("pingpong1k-longs", L, ImbPingPong(1024), S.ONE_MPI_LOCAL, {}),
        ("pingpong32k-longs", L, ImbPingPong(32_768), S.DEFAULT, {}),
        ("pingpong1m-longs-mpich2", L, ImbPingPong(1 << 20), S.DEFAULT,
         {"impl": MPICH2}),
        ("pingpong64k-longs-lam", L, ImbPingPong(65_536), S.DEFAULT,
         {"impl": LAM}),
        ("ring8-longs", L, RingExchange(8, 4096), S.DEFAULT, {}),
        ("ring5-longs-lam", L, RingExchange(5, 200_000), S.INTERLEAVE,
         {"impl": LAM}),
        ("exchange4-longs-lam", L, ImbExchange(4, 65_536), S.DEFAULT,
         {"impl": LAM}),
        ("sendrecv3-longs-mpich2", L, ImbSendRecv(3, 16_384), S.DEFAULT,
         {"impl": MPICH2}),
        ("allreduce6-longs", L, ImbAllreduce(6, 8), S.DEFAULT, {}),
        ("allreduce1-longs", L, ImbAllreduce(1, 64), S.DEFAULT, {}),
        ("bcast5-longs", L, ImbBcast(5, 100_000, root=3), S.DEFAULT, {}),
        ("everyop1-longs", L, _EveryOp(1), S.DEFAULT, {}),
        ("everyop3-longs-mpich2", L, _EveryOp(3), S.DEFAULT,
         {"impl": MPICH2}),
        ("everyop6-longs-lam", L, _EveryOp(6), S.TWO_MPI_MEMBIND,
         {"impl": LAM}),
        ("everyop8-longs", L, _EveryOp(8), S.INTERLEAVE, {}),
        ("hybrid-ft4x2-longs", L, HybridNasFT(4, 2), None,
         {"affinity": hybrid_affinity(L, 4, 2)}),
        ("pop4-dmz", D, Pop(4), S.DEFAULT, {}),
        ("cg4-dmz-lam", D, NasCG(4), S.INTERLEAVE, {"impl": LAM}),
        ("stream4-dmz", D, HpccStream(4), S.DEFAULT, {}),
        ("amber-jac2-dmz", D, AmberSander("jac", 2), S.ONE_MPI_LOCAL, {}),
        ("everyop4-dmz-mpich2", D, _EveryOp(4), S.DEFAULT, {"impl": MPICH2}),
        ("hybrid-cg2x2-dmz", D, HybridNasCG(2, 2), None,
         {"affinity": hybrid_affinity(D, 2, 2)}),
    ]
    return [(name, JobRequest(spec=spec, workload=workload,
                              scheme=scheme or S.DEFAULT, tier="fast",
                              **kwargs))
            for name, spec, workload, scheme, kwargs in cells]


def _digest(result) -> str:
    text = json.dumps(result.to_dict(), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


_GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                       "surrogate_golden.json")


def test_fast_tier_matches_golden_digests():
    with open(_GOLDEN) as handle:
        golden = json.load(handle)
    digests = {name: _digest(request.execute())
               for name, request in _golden_cells()}
    assert digests == golden


def test_micro_surrogate_comm_runs(capsys):
    from repro.bench.micro import main

    assert main(["--only", "surrogate-comm", "--repeat", "1",
                 "--number", "1"]) == 0
    assert "surrogate-comm" in capsys.readouterr().out


# -- the calibration gate's correlation statistic -----------------------


def test_spearman_perfect_and_reversed():
    assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
    assert spearman([1, 2, 3, 4], [40, 30, 20, 10]) == pytest.approx(-1.0)


def test_spearman_handles_ties():
    rho = spearman([1.0, 2.0, 2.0, 3.0], [1.0, 2.5, 2.5, 4.0])
    assert rho == pytest.approx(1.0)


def test_spearman_degenerate_inputs_return_none():
    assert spearman([], []) is None
    assert spearman([1.0], [2.0]) is None
    assert spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) is None


def test_spearman_length_mismatch_raises():
    with pytest.raises(ValueError):
        spearman([1.0, 2.0], [1.0])


_FINITE = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
#: a handful of values, so long lists are full of ties
_TIED = st.sampled_from([0.25, 1.0, 1.5, 2.0, 7.0])


@st.composite
def _paired(draw, values, unique):
    n = draw(st.integers(min_value=2, max_value=30))
    xs = draw(st.lists(values, min_size=n, max_size=n, unique=unique))
    ys = draw(st.lists(values, min_size=n, max_size=n, unique=unique))
    assume(len(set(xs)) > 1 and len(set(ys)) > 1)
    return xs, ys


@settings(max_examples=60, deadline=None)
@given(st.one_of(_paired(_FINITE, unique=True),
                 _paired(_TIED, unique=False)))
def test_spearman_matches_scipy(pair):
    """The one shared Spearman equals scipy's, with and without ties."""
    stats = pytest.importorskip("scipy.stats")
    xs, ys = pair
    expected = stats.spearmanr(xs, ys).statistic
    assert spearman(xs, ys) == pytest.approx(expected, abs=1e-12)


def test_calibration_fails_on_a_failed_cell_and_skips_dashes(
        tmp_path, monkeypatch):
    """``compare`` scores a table without its infeasible dashes, but a
    failed cell fails the comparison instead of silently reading as a
    dash, and leaves nothing behind for ``take_failures``."""
    from repro.core.cache import ResultCache
    from repro.core.parallel import take_failures
    from repro.errors import JobFailedError
    from repro.machine import tiger
    from repro.surrogate import calibration

    plan = FaultPlan.from_json(os.path.join(
        os.path.dirname(__file__), "..", "benchmarks", "faultplans",
        "msg_exhaust.json"))
    healthy = [_cell(ImbPingPong(1024), scheme, spec=tiger())
               for scheme in (AffinityScheme.DEFAULT,
                              AffinityScheme.ONE_MPI_LOCAL,
                              AffinityScheme.TWO_MPI_LOCAL)]  # a dash
    failing = _cell(ImbPingPong(1024), spec=dmz(), faults=plan)
    cache = ResultCache(directory=tmp_path)
    take_failures()

    tables = [("tiger:pingpong", healthy)]
    monkeypatch.setattr(calibration, "calibration_tables", lambda: tables)
    report = calibration.compare(jobs=1, cache=cache)
    assert report["tables"]["tiger:pingpong"]["cells"] == 2

    tables.append(("dmz:pingpong", [failing]))
    with pytest.raises(JobFailedError, match="calibration cell") as info:
        calibration.compare(jobs=1, cache=cache)
    assert info.value.kind == "fault_exhausted"
    assert info.value.key == replace(failing, tier="exact").key()
    assert take_failures() == []


if __name__ == "__main__":
    # Regenerate the golden fixture (only for an intended model change):
    #   PYTHONPATH=src python tests/test_surrogate.py
    os.makedirs(os.path.dirname(_GOLDEN), exist_ok=True)
    with open(_GOLDEN, "w") as handle:
        json.dump({name: _digest(request.execute())
                   for name, request in _golden_cells()},
                  handle, indent=1, sort_keys=True)
        handle.write("\n")
