"""Unit tests for the discrete-event kernel (environment + processes)."""

import pytest

from repro.sim import Environment, Interrupt


def test_time_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_initial_time_is_respected():
    env = Environment(initial_time=42.5)
    assert env.now == 42.5


def test_timeout_advances_clock():
    env = Environment()
    log = []

    def proc(env):
        yield env.timeout(3.0)
        log.append(env.now)

    env.process(proc(env))
    env.run()
    assert log == [3.0]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_timeout_carries_value():
    env = Environment()
    got = []

    def proc(env):
        value = yield env.timeout(1.0, value="payload")
        got.append(value)

    env.process(proc(env))
    env.run()
    assert got == ["payload"]


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def ticker(env):
        while True:
            yield env.timeout(1.0)

    env.process(ticker(env))
    env.run(until=10.5)
    assert env.now == 10.5


def test_run_until_past_time_rejected():
    env = Environment()
    env.run(until=5.0)
    with pytest.raises(ValueError):
        env.run(until=1.0)


def test_events_at_horizon_are_not_processed():
    env = Environment()
    log = []

    def proc(env):
        yield env.timeout(10.0)
        log.append("fired")

    env.process(proc(env))
    env.run(until=10.0)
    assert log == []
    env.run(until=10.1)
    assert log == ["fired"]


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(2.0)
        return "done"

    result = env.run(until=env.process(proc(env)))
    assert result == "done"
    assert env.now == 2.0


def test_process_return_value_via_yield():
    env = Environment()
    results = []

    def child(env):
        yield env.timeout(1.0)
        return 123

    def parent(env):
        value = yield env.process(child(env))
        results.append(value)

    env.process(parent(env))
    env.run()
    assert results == [123]


def test_simultaneous_events_fifo_order():
    env = Environment()
    order = []

    def proc(env, tag):
        yield env.timeout(5.0)
        order.append(tag)

    for tag in "abc":
        env.process(proc(env, tag))
    env.run()
    assert order == ["a", "b", "c"]


def test_unhandled_process_exception_surfaces():
    env = Environment()

    def bad(env):
        yield env.timeout(1.0)
        raise RuntimeError("boom")

    env.process(bad(env))
    with pytest.raises(RuntimeError, match="boom"):
        env.run()


def test_handled_child_exception_does_not_crash_run():
    env = Environment()
    caught = []

    def bad(env):
        yield env.timeout(1.0)
        raise ValueError("expected")

    def parent(env):
        try:
            yield env.process(bad(env))
        except ValueError as exc:
            caught.append(str(exc))

    env.process(parent(env))
    env.run()
    assert caught == ["expected"]


def test_interrupt_delivers_cause():
    env = Environment()
    causes = []

    def sleeper(env):
        try:
            yield env.timeout(100.0)
        except Interrupt as exc:
            causes.append((env.now, exc.cause))

    def interrupter(env, victim):
        yield env.timeout(5.0)
        victim.interrupt(cause="wake up")

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert causes == [(5.0, "wake up")]


def test_interrupting_dead_process_is_an_error():
    env = Environment()

    def quick(env):
        yield env.timeout(1.0)

    proc = env.process(quick(env))
    env.run()
    with pytest.raises(RuntimeError):
        proc.interrupt()


def test_event_succeed_wakes_waiters():
    env = Environment()
    log = []

    def waiter(env, event):
        value = yield event
        log.append((env.now, value))

    def firer(env, event):
        yield env.timeout(7.0)
        event.succeed("signal")

    event = env.event()
    env.process(waiter(env, event))
    env.process(firer(env, event))
    env.run()
    assert log == [(7.0, "signal")]


def test_event_cannot_trigger_twice():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(RuntimeError):
        event.succeed(2)


def test_event_fail_raises_in_waiter():
    env = Environment()
    caught = []

    def waiter(env, event):
        try:
            yield event
        except KeyError as exc:
            caught.append(exc)

    event = env.event()
    env.process(waiter(env, event))
    event.fail(KeyError("broken"))
    env.run()
    assert len(caught) == 1


def test_any_of_fires_on_first():
    env = Environment()
    log = []

    def proc(env):
        t1 = env.timeout(3.0, value="fast")
        t2 = env.timeout(9.0, value="slow")
        result = yield env.any_of([t1, t2])
        log.append((env.now, sorted(result.values())))

    env.process(proc(env))
    env.run()
    assert log == [(3.0, ["fast"])]


def test_all_of_waits_for_every_event():
    env = Environment()
    log = []

    def proc(env):
        t1 = env.timeout(3.0, value="fast")
        t2 = env.timeout(9.0, value="slow")
        result = yield env.all_of([t1, t2])
        log.append((env.now, sorted(result.values())))

    env.process(proc(env))
    env.run()
    assert log == [(9.0, ["fast", "slow"])]


def test_yielding_already_fired_event_resumes_immediately():
    env = Environment()
    log = []

    def proc(env):
        t = env.timeout(1.0, value="x")
        yield env.timeout(5.0)  # t fires while we sleep
        value = yield t
        log.append((env.now, value))

    env.process(proc(env))
    env.run()
    assert log == [(5.0, "x")]


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(4.0)
    env.timeout(2.0)
    assert env.peek() == 2.0


def test_peek_empty_queue_is_inf():
    env = Environment()
    assert env.peek() == float("inf")


def test_determinism_two_identical_runs():
    def build():
        env = Environment()
        trace = []

        def proc(env, tag, delay):
            for _ in range(3):
                yield env.timeout(delay)
                trace.append((env.now, tag))

        env.process(proc(env, "a", 1.5))
        env.process(proc(env, "b", 2.0))
        env.run()
        return trace

    assert build() == build()


def test_event_sentinel_stops_mid_batch_and_resumes_in_order():
    """run(until=event) stops right after the event's dispatch; the
    events still due in the same batch wait for the next run()."""
    def build(split):
        env = Environment()
        log = []

        def ticker(name, period):
            while True:
                log.append((name, env.now))
                yield env.timeout(period)

        stop = env.timeout(3.0)
        for name, period in (("a", 0.5), ("b", 0.75), ("c", 1.0)):
            env.process(ticker(name, period))
        if split:
            env.run(until=stop)
            assert env.now == 3.0
            assert ("a", 3.0) not in log
        env.run(until=10.0)
        return log

    assert build(True) == build(False)
