"""Tests for the fast-tier analytic surrogate and its tier plumbing.

Three properties matter and each gets its own section below:

* **fidelity** — on supported cells the surrogate must agree with the
  event-driven engine (wall time, message and byte accounting);
* **honesty** — on unsupported cells (marker profiling, fault plans)
  an explicit ``tier="fast"`` refuses loudly, and ``tier="auto"``
  falls back to the exact engine with byte-identical cache keys;
* **availability** — the pure-python fallback path produces the same
  numbers as the numpy path, so a numpy-less install still works.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.affinity import AffinityScheme, resolve_scheme
from repro.core.parallel import (JobRequest, default_tier, set_default_tier)
from repro.errors import SurrogateUnsupportedError
from repro.faults import CoreSlowdown, FaultPlan
from repro.machine import dmz, longs
from repro.surrogate import SurrogateEvaluator, unsupported_reason
from repro.surrogate.calibration import spearman
from repro.workloads.hpcc import HpccDgemm, HpccRandomAccess, HpccStream
from repro.workloads.nas import NasCG, NasFT


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


def test_set_default_tier_materializes_and_validates():
    assert default_tier() is None
    set_default_tier("fast")
    try:
        assert default_tier() == "fast"
    finally:
        set_default_tier(None)
    with pytest.raises(ValueError):
        set_default_tier("warp")


def test_evaluator_handles_fully_occupied_machine():
    spec = longs()
    workload = HpccStream(spec.total_cores)
    affinity = resolve_scheme(AffinityScheme.DEFAULT, spec, workload.ntasks)
    result = SurrogateEvaluator(spec, affinity).run(workload)
    assert result.wall_time > 0


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
