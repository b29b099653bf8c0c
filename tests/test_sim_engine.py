"""Unit tests for the discrete-event engine core."""

import pytest

from repro.sim import AllOf, AnyOf, EmptySchedule, Engine, Event, Interrupt, Timeout


def test_engine_starts_at_zero():
    assert Engine().now == 0.0


def test_engine_custom_start_time():
    assert Engine(start_time=5.0).now == 5.0


def test_timeout_advances_clock():
    eng = Engine()
    done = {}

    def program(eng):
        yield eng.timeout(2.5)
        done["t"] = eng.now

    eng.process(program(eng))
    eng.run()
    assert done["t"] == pytest.approx(2.5)


def test_timeout_rejects_negative_delay():
    eng = Engine()
    with pytest.raises(ValueError):
        eng.timeout(-1.0)


def test_process_return_value():
    eng = Engine()

    def program(eng):
        yield eng.timeout(1.0)
        return 42

    proc = eng.process(program(eng))
    eng.run()
    assert proc.ok
    assert proc.value == 42


def test_process_waits_on_process():
    eng = Engine()
    order = []

    def child(eng):
        yield eng.timeout(3.0)
        order.append("child")
        return "payload"

    def parent(eng):
        value = yield eng.process(child(eng))
        order.append("parent")
        return value

    parent_proc = eng.process(parent(eng))
    eng.run()
    assert order == ["child", "parent"]
    assert parent_proc.value == "payload"


def test_events_at_same_time_fire_in_schedule_order():
    eng = Engine()
    order = []

    def make(tag):
        def program(eng):
            yield eng.timeout(1.0)
            order.append(tag)
        return program

    for tag in ("a", "b", "c"):
        eng.process(make(tag)(eng))
    eng.run()
    assert order == ["a", "b", "c"]


def test_run_until_stops_clock():
    eng = Engine()

    def program(eng):
        yield eng.timeout(10.0)

    eng.process(program(eng))
    eng.run(until=4.0)
    assert eng.now == 4.0


def test_run_until_past_raises():
    eng = Engine(start_time=5.0)
    with pytest.raises(ValueError):
        eng.run(until=1.0)


def test_run_until_runs_due_events_and_keeps_later_ones():
    """Events at ``until`` run, later ones stay queued for the next run,
    and a schedule that drains early still leaves the clock at ``until``."""
    eng = Engine()
    log = []
    for delay in (1.0, 2.0, 3.0):
        eng.schedule_callback(delay, lambda ev, d=delay: log.append(d))
    eng.run(until=2.0)
    assert log == [1.0, 2.0] and eng.now == 2.0 and eng.peek() == 3.0
    eng.run(until=5.0)
    assert log == [1.0, 2.0, 3.0] and eng.now == 5.0


def test_step_on_empty_schedule_raises():
    with pytest.raises(EmptySchedule):
        Engine().step()


def test_event_succeed_twice_raises():
    eng = Engine()
    ev = eng.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)


def test_event_fail_requires_exception():
    eng = Engine()
    with pytest.raises(TypeError):
        eng.event().fail("not an exception")


def test_event_value_before_trigger_raises():
    eng = Engine()
    with pytest.raises(RuntimeError):
        _ = eng.event().value


def test_failed_event_raises_inside_process():
    eng = Engine()
    seen = {}

    def program(eng, ev):
        try:
            yield ev
        except ValueError as exc:
            seen["exc"] = exc

    ev = eng.event()
    eng.process(program(eng, ev))
    ev.fail(ValueError("boom"))
    eng.run()
    assert isinstance(seen["exc"], ValueError)


def test_unhandled_failed_event_propagates():
    eng = Engine()
    ev = eng.event()
    ev.fail(RuntimeError("nobody listening"))
    with pytest.raises(RuntimeError, match="nobody listening"):
        eng.run()


def test_process_exception_fails_its_event():
    eng = Engine()

    def program(eng):
        yield eng.timeout(1.0)
        raise KeyError("inside")

    def watcher(eng, proc):
        try:
            yield proc
        except KeyError:
            return "caught"

    proc = eng.process(program(eng))
    watch = eng.process(watcher(eng, proc))
    eng.run()
    assert watch.value == "caught"


def test_all_of_waits_for_all():
    eng = Engine()
    times = {}

    def program(eng):
        yield eng.all_of([eng.timeout(1.0), eng.timeout(5.0), eng.timeout(3.0)])
        times["done"] = eng.now

    eng.process(program(eng))
    eng.run()
    assert times["done"] == pytest.approx(5.0)


def test_any_of_fires_on_first():
    eng = Engine()
    times = {}

    def program(eng):
        yield eng.any_of([eng.timeout(1.0), eng.timeout(5.0)])
        times["done"] = eng.now

    eng.process(program(eng))
    eng.run()
    assert times["done"] == pytest.approx(1.0)


def test_all_of_empty_succeeds_immediately():
    eng = Engine()
    cond = eng.all_of([])
    assert cond.triggered and cond.ok


def test_interrupt_raises_in_process():
    eng = Engine()
    seen = {}

    def victim(eng):
        try:
            yield eng.timeout(100.0)
        except Interrupt as intr:
            seen["cause"] = intr.cause
            seen["time"] = eng.now

    def attacker(eng, proc):
        yield eng.timeout(2.0)
        proc.interrupt("stop it")

    proc = eng.process(victim(eng))
    eng.process(attacker(eng, proc))
    eng.run()
    assert seen["cause"] == "stop it"
    assert seen["time"] == pytest.approx(2.0)


def test_interrupt_finished_process_raises():
    eng = Engine()

    def quick(eng):
        yield eng.timeout(0.1)

    proc = eng.process(quick(eng))
    eng.run()
    with pytest.raises(RuntimeError):
        proc.interrupt()


def test_yielding_non_event_is_an_error():
    eng = Engine()

    def bad(eng):
        yield 42

    proc = eng.process(bad(eng))
    # Nobody waits on the process, so the failure surfaces from run().
    with pytest.raises(TypeError, match="must yield Event"):
        eng.run()
    assert proc.triggered and not proc.ok


def test_watched_bad_yield_fails_process_not_engine():
    eng = Engine()

    def bad(eng):
        yield "nope"

    def watcher(eng, proc):
        try:
            yield proc
        except TypeError:
            return "caught"

    proc = eng.process(bad(eng))
    watch = eng.process(watcher(eng, proc))
    eng.run()
    assert watch.value == "caught"


def test_peek_reports_next_event_time():
    eng = Engine()
    eng.timeout(7.0)
    assert eng.peek() == pytest.approx(7.0)


def test_peek_empty_is_inf():
    assert Engine().peek() == float("inf")


def test_determinism_same_program_same_trace():
    def build():
        eng = Engine()
        log = []

        def worker(eng, tag, delay):
            yield eng.timeout(delay)
            log.append((tag, eng.now))
            yield eng.timeout(delay)
            log.append((tag, eng.now))

        for i, d in enumerate([0.3, 0.1, 0.2]):
            eng.process(worker(eng, i, d))
        eng.run()
        return log

    assert build() == build()


def test_urgent_callback_preempts_normal_at_equal_time():
    # The hot loop orders the schedule by (time, priority, seq): an
    # urgent callback scheduled *after* a normal one for the same
    # instant must still run first.
    eng = Engine()
    order = []
    eng.schedule_callback(1.0, lambda ev: order.append("normal"))
    eng.schedule_callback(1.0, lambda ev: order.append("urgent"), urgent=True)
    eng.run()
    assert order == ["urgent", "normal"]


def test_equal_time_urgent_callbacks_keep_schedule_order():
    # Among equal (time, priority) entries the sequence number breaks
    # the tie, so same-priority callbacks fire in scheduling order.
    eng = Engine()
    order = []
    for tag in ("a", "b", "c"):
        eng.schedule_callback(2.0, lambda ev, t=tag: order.append(t),
                              urgent=True)
    eng.run()
    assert order == ["a", "b", "c"]


def test_urgent_priority_constants_are_ordered():
    assert Engine.PRIORITY_URGENT < Engine.PRIORITY_NORMAL


def test_drained_engine_step_raises_empty_schedule():
    # run() must leave the schedule truly empty -- no dead entries left
    # behind by the urgent path's pre-triggered events.
    eng = Engine()
    eng.schedule_callback(0.5, lambda ev: None, urgent=True)

    def program(eng):
        yield eng.timeout(1.0)

    eng.process(program(eng))
    eng.run()
    with pytest.raises(EmptySchedule):
        eng.step()


def test_process_yielding_processed_event_resumes_at_once():
    """Yielding an event whose callbacks already ran resumes the process
    immediately, with the event's value, at the current instant."""
    eng = Engine()
    done = eng.timeout(1.0, value="early")
    log = []

    def late(eng):
        yield eng.timeout(2.0)
        assert done.processed
        value = yield done              # already processed: no wait
        log.append((value, eng.now))
        value = yield done              # and again
        log.append((value, eng.now))
        yield eng.timeout(0.5)
        return "finished"

    proc = eng.process(late(eng))
    eng.run()
    assert log == [("early", 2.0), ("early", 2.0)]
    assert proc.value == "finished"
    assert eng.now == 2.5


def test_process_yielding_processed_failed_event_sees_exception():
    eng = Engine()
    failed = Event(eng)
    failed.fail(KeyError("gone"))
    failed._defused = True              # handled: the engine must not raise

    def late(eng):
        yield eng.timeout(1.0)
        try:
            yield failed
        except KeyError:
            return "caught"

    proc = eng.process(late(eng))
    eng.run()
    assert proc.value == "caught"


def test_run_dispatches_like_step():
    """run() and repeated step() visit the same events in the same order."""
    def build():
        eng = Engine()
        log = []
        for i, delay in enumerate((0.3, 0.1, 0.1, 0.0)):
            eng.schedule_callback(delay, lambda ev, i=i: log.append(
                (i, eng.now)), urgent=i % 2 == 0)
        return eng, log

    eng, by_run = build()
    eng.run()
    eng, by_step = build()
    while True:
        try:
            eng.step()
        except EmptySchedule:
            break
    assert by_run == by_step == [(3, 0.0), (2, 0.1), (1, 0.1), (0, 0.3)]
