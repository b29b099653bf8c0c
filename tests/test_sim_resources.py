"""Unit and property tests for Resource, Store, and BandwidthResource."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import BandwidthResource, Engine, Resource, Store


# -- Resource ---------------------------------------------------------------

def test_resource_grants_up_to_capacity():
    eng = Engine()
    res = Resource(eng, capacity=2)
    first, second, third = res.request(), res.request(), res.request()
    assert first.triggered and second.triggered
    assert not third.triggered
    assert res.in_use == 2
    assert res.queue_length == 1


def test_resource_release_grants_fifo():
    eng = Engine()
    res = Resource(eng, capacity=1)
    res.request()
    waiter_a = res.request()
    waiter_b = res.request()
    res.release()
    assert waiter_a.triggered and not waiter_b.triggered
    res.release()
    assert waiter_b.triggered


def test_resource_release_idle_raises():
    eng = Engine()
    with pytest.raises(RuntimeError):
        Resource(eng).release()


def test_resource_bad_capacity():
    with pytest.raises(ValueError):
        Resource(Engine(), capacity=0)


def test_resource_mutual_exclusion_in_processes():
    eng = Engine()
    lock = Resource(eng, capacity=1)
    active = {"count": 0, "max": 0}

    def worker(eng):
        req = lock.request()
        yield req
        active["count"] += 1
        active["max"] = max(active["max"], active["count"])
        yield eng.timeout(1.0)
        active["count"] -= 1
        lock.release()

    for _ in range(5):
        eng.process(worker(eng))
    eng.run()
    assert active["max"] == 1
    assert eng.now == pytest.approx(5.0)


# -- Store --------------------------------------------------------------------

def test_store_put_then_get():
    eng = Engine()
    store = Store(eng)
    store.put("x")
    got = store.get()
    assert got.triggered
    assert got.value == "x"


def test_store_get_blocks_until_put():
    eng = Engine()
    store = Store(eng)
    got = store.get()
    assert not got.triggered
    store.put("y")
    assert got.triggered and got.value == "y"


def test_store_fifo_order():
    eng = Engine()
    store = Store(eng)
    for item in (1, 2, 3):
        store.put(item)
    assert [store.get().value for _ in range(3)] == [1, 2, 3]


def test_store_getters_served_fifo():
    eng = Engine()
    store = Store(eng)
    g1, g2 = store.get(), store.get()
    store.put("first")
    store.put("second")
    assert g1.value == "first"
    assert g2.value == "second"


def test_store_len_counts_items():
    eng = Engine()
    store = Store(eng)
    store.put(1)
    store.put(2)
    assert len(store) == 2


# -- BandwidthResource ---------------------------------------------------------

def _finish_time(events, eng):
    eng.run()
    return [ev.value for ev in events]


def test_bandwidth_single_flow_time():
    eng = Engine()
    pipe = BandwidthResource(eng, capacity=100.0)
    ev = pipe.transfer(250.0)
    eng.run()
    assert ev.value == pytest.approx(2.5)


def test_bandwidth_two_flows_share_fairly():
    eng = Engine()
    pipe = BandwidthResource(eng, capacity=100.0)
    a = pipe.transfer(100.0)
    b = pipe.transfer(100.0)
    eng.run()
    # each gets 50 B/s while both active -> both finish at t=2
    assert a.value == pytest.approx(2.0)
    assert b.value == pytest.approx(2.0)


def test_bandwidth_short_flow_releases_share():
    eng = Engine()
    pipe = BandwidthResource(eng, capacity=100.0)
    small = pipe.transfer(50.0)   # shares 50 B/s -> done at t=1
    big = pipe.transfer(150.0)    # 50 B/s until t=1 (50 B), then 100 B/s
    eng.run()
    assert small.value == pytest.approx(1.0)
    assert big.value == pytest.approx(2.0)


def test_bandwidth_late_joiner():
    eng = Engine()
    pipe = BandwidthResource(eng, capacity=100.0)
    results = {}

    def starter(eng):
        results["a"] = yield pipe.transfer(100.0)

    def joiner(eng):
        yield eng.timeout(0.5)
        results["b"] = yield pipe.transfer(100.0)

    eng.process(starter(eng))
    eng.process(joiner(eng))
    eng.run()
    # a: 50 B alone by t=0.5, then 50 B/s -> finishes at 1.5
    assert results["a"] == pytest.approx(1.5)
    # b: 50 B/s from 0.5 to 1.5 (50 B), then 100 B/s for 50 B -> 2.0
    assert results["b"] == pytest.approx(2.0)


def test_bandwidth_weighted_shares():
    eng = Engine()
    pipe = BandwidthResource(eng, capacity=90.0)
    heavy = pipe.transfer(120.0, weight=2.0)  # 60 B/s while both active
    light = pipe.transfer(30.0, weight=1.0)   # 30 B/s
    eng.run()
    assert light.value == pytest.approx(1.0)
    # heavy moved 60 B by t=1, then runs alone at 90 B/s: 1 + 60/90
    assert heavy.value == pytest.approx(1.0 + 60.0 / 90.0)


def test_bandwidth_zero_bytes_completes_now():
    eng = Engine()
    pipe = BandwidthResource(eng, capacity=10.0)
    ev = pipe.transfer(0.0)
    assert ev.triggered and ev.value == 0.0


def test_bandwidth_rejects_bad_capacity_and_weight():
    eng = Engine()
    with pytest.raises(ValueError):
        BandwidthResource(eng, capacity=0.0)
    pipe = BandwidthResource(eng, capacity=1.0)
    with pytest.raises(ValueError):
        pipe.transfer(10.0, weight=0.0)


def test_bandwidth_total_transferred_accounting():
    eng = Engine()
    pipe = BandwidthResource(eng, capacity=10.0)
    pipe.transfer(30.0)
    pipe.transfer(20.0)
    eng.run()
    assert pipe.total_transferred == pytest.approx(50.0)


def test_bandwidth_utilization_full_when_saturated():
    eng = Engine()
    pipe = BandwidthResource(eng, capacity=10.0)
    pipe.transfer(100.0)
    eng.run()
    assert pipe.utilization() == pytest.approx(1.0)


@settings(max_examples=50, deadline=None)
@given(
    sizes=st.lists(st.floats(min_value=1.0, max_value=1e6), min_size=1, max_size=8),
    capacity=st.floats(min_value=1.0, max_value=1e6),
)
def test_bandwidth_conservation_property(sizes, capacity):
    """Total delivered bytes equal total requested; makespan >= sum/capacity."""
    eng = Engine()
    pipe = BandwidthResource(eng, capacity=capacity)
    events = [pipe.transfer(s) for s in sizes]
    eng.run()
    assert all(ev.triggered and ev.ok for ev in events)
    assert pipe.total_transferred == pytest.approx(sum(sizes), rel=1e-6)
    makespan = max(ev.value for ev in events)
    # flows may complete up to their per-flow tolerance early
    assert makespan >= sum(sizes) / capacity * (1 - 1e-5) - 1e-5


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=10),
    size=st.floats(min_value=10.0, max_value=1e5),
)
def test_bandwidth_equal_flows_finish_together(n, size):
    """n identical simultaneous flows all finish at n*size/capacity."""
    capacity = 1000.0
    eng = Engine()
    pipe = BandwidthResource(eng, capacity=capacity)
    events = [pipe.transfer(size) for _ in range(n)]
    eng.run()
    expected = n * size / capacity
    for ev in events:
        assert ev.value == pytest.approx(expected, rel=1e-6)


@settings(max_examples=30, deadline=None)
@given(
    stagger=st.floats(min_value=0.0, max_value=5.0),
    size=st.floats(min_value=10.0, max_value=1e4),
)
def test_bandwidth_more_contention_never_faster(stagger, size):
    """A flow sharing the pipe never finishes earlier than a solo flow."""
    def run(with_competitor):
        eng = Engine()
        pipe = BandwidthResource(eng, capacity=100.0)
        result = {}

        def main(eng):
            result["t"] = yield pipe.transfer(size)

        def competitor(eng):
            yield eng.timeout(stagger)
            yield pipe.transfer(size)

        eng.process(main(eng))
        if with_competitor:
            eng.process(competitor(eng))
        eng.run()
        return result["t"]

    assert run(True) >= run(False) - 1e-9


def test_bandwidth_superseded_wakeup_fires_no_callback():
    """A wake-up pushed before a membership change is popped and
    dropped on the generation check: it neither advances the flows nor
    completes or reschedules anything."""
    eng = Engine()
    pipe = BandwidthResource(eng, capacity=100.0)
    first = pipe.transfer(100.0)        # alone: wake-up near t=1.0
    second = pipe.transfer(300.0)       # supersedes it: next near t=2.0
    pipe.set_capacity(100.0)            # supersedes that one too
    wakeups = [entry for entry in eng._queue
               if entry[1] == Engine.PRIORITY_URGENT]
    assert len(wakeups) == 3
    assert [e[3].generation for e in wakeups] == [1, 2, 3]
    advances = []
    advance = pipe._advance
    pipe._advance = lambda: (advances.append(eng.now), advance())[1]
    completions = []
    first.add_callback(lambda ev: completions.append(eng.now))
    second.add_callback(lambda ev: completions.append(eng.now))
    eng.run()
    # two stale entries popped for nothing; the two live ones (the
    # third, and the one the first completion pushed) each advance once
    assert advances == [pytest.approx(2.0), pytest.approx(4.0)]
    assert completions == [first.value, second.value]
    assert first.value == pytest.approx(2.0)
    assert second.value == pytest.approx(4.0)
    assert pipe.active_flows == 0


def test_bandwidth_set_capacity_mid_flow_keeps_completion_times():
    """Completion times across two mid-flow capacity changes, pinned to
    the float: the cached per-flow rates must advance exactly as the
    shares recomputed afresh did."""
    eng = Engine()
    pipe = BandwidthResource(eng, capacity=10.0)
    done = {}

    def flow(name, delay, nbytes, weight):
        yield eng.timeout(delay)
        done[name] = yield pipe.transfer(nbytes, weight=weight)

    def renegotiate():
        yield eng.timeout(3.0)
        pipe.set_capacity(4.0)
        yield eng.timeout(5.0)
        pipe.set_capacity(25.0)

    for args in (("a", 0.0, 100.0, 1.0), ("b", 1.0, 30.0, 2.0),
                 ("c", 2.5, 7.0, 1.0)):
        eng.process(flow(*args))
    eng.process(renegotiate())
    eng.run()
    assert done == {"a": 11.479999874523289, "b": 8.479999897920402,
                    "c": 8.11999983888013}
    assert pipe.total_transferred == 137.0
    assert eng._seq == 23  # heap pushes, wake-ups included
