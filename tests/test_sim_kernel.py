"""Unit tests for the discrete-event kernel (environment + processes)."""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Environment, Interrupt, Timeout


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


@pytest.mark.parametrize("delay", [-1.0, math.inf, math.nan])
def test_bad_timeout_delay_rejected(delay):
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(delay)
    with pytest.raises(ValueError):
        Timeout(env, delay)
    assert env.peek() == math.inf


@pytest.mark.parametrize("delay", [-5.0, math.inf, math.nan])
def test_bad_schedule_delay_rejected(delay):
    env = Environment(initial_time=10.0)
    with pytest.raises(ValueError):
        env.schedule(env.event(), delay)
    assert env.peek() == math.inf
    env.run()
    assert env.now == 10.0


@pytest.mark.parametrize("bad", [5.0, math.inf, math.nan])
def test_bad_bulk_time_rejected_atomically(bad):
    env = Environment(initial_time=10.0)
    seen = []
    with pytest.raises(ValueError):
        env.schedule_callback_bulk([11.0, bad, 12.0], seen.append)
    assert env.peek() == math.inf
    env.run()
    assert seen == [] and env.now == 10.0


def test_bulk_event_keeps_its_callback_when_waited_on():
    """A process or a run(until=) sentinel waiting on a bulk-scheduled
    event must not displace the bulk callback."""
    env = Environment()
    seen = []
    first, second = env.schedule_callback_bulk([1.0, 2.0], seen.append)

    def waiter(env):
        yield second
        seen.append("woke")

    env.process(waiter(env))
    assert env.run(until=first) == 1.0
    env.run()
    assert seen == [first, second, "woke"]


def test_run_until_nan_rejected():
    env = Environment()
    env.timeout(1.0)
    with pytest.raises(ValueError):
        env.run(until=math.nan)
    assert env.now == 0.0
    assert env.peek() == 1.0


def test_run_until_inf_drains_then_parks_the_clock_at_inf():
    env = Environment()
    log = []

    def proc(env):
        yield env.timeout(2.0)
        log.append(env.now)

    env.process(proc(env))
    env.run(until=math.inf)
    assert log == [2.0]
    assert env.now == math.inf


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


def test_environment_interrupt_and_reschedule_order():
    """Kernel-level: interrupts and re-armed timers replay identically.

    A process cancels its pending wait via Process.interrupt (the
    kernel's cancel/reschedule idiom) while peers tick at the same
    instants; the observable schedule is fixed by (time, priority,
    insertion order) and must survive the queue swap.
    """
    from repro.sim import Interrupt

    log = []

    env = Environment()

    def sleeper(env):
        try:
            yield env.timeout(100.0)
            log.append(("slept", env.now))
        except Interrupt as i:
            log.append(("interrupted", env.now, i.cause))
            yield env.timeout(1.5)
            log.append(("rescheduled", env.now))

    def ticker(env, name, period):
        for _ in range(4):
            yield env.timeout(period)
            log.append((name, env.now))

    target = env.process(sleeper(env))

    def poker(env):
        yield env.timeout(2.0)
        target.interrupt("poke")

    env.process(poker(env))
    env.process(ticker(env, "a", 1.0))
    env.process(ticker(env, "b", 2.0))
    env.run()
    # Expected sequence captured from the pre-calendar heapq kernel:
    # ties at t=2.0 and t=4.0 resolve by (priority, insertion id) —
    # the priority-0 interrupt first, then b's older timeout, then a's.
    assert log == [
        ("a", 1.0),
        ("interrupted", 2.0, "poke"),
        ("b", 2.0),
        ("a", 2.0),
        ("a", 3.0),
        ("rescheduled", 3.5),
        ("b", 4.0),
        ("a", 4.0),
        ("b", 6.0),
        ("b", 8.0),
    ]


def test_environment_bulk_schedule_matches_sequential():
    """schedule_callback_bulk == a loop of timeout()+callback."""
    times = [0.5, 0.5, 1.25, 3.0, 3.0, 3.0, 7.5] + \
        [10.0 + 0.1 * i for i in range(100)]

    def run_bulk():
        env = Environment()
        seen = []
        env.schedule_callback_bulk(times, lambda ev: seen.append(
            (ev.value, env.now)))
        env.run()
        return seen

    def run_seq():
        env = Environment()
        seen = []
        for t in times:
            ev = env.timeout(t)
            ev.callbacks = [lambda ev, t=t: seen.append((t, env.now))]
        env.run()
        return seen

    assert run_bulk() == run_seq()
    assert run_bulk() == [(t, t) for t in sorted(times)]


# ----------------------------------------------------------------------
# Dispatch order, pinned at the kernel: random programs of processes,
# timers, priority-0 interrupts and pauses, checked against a model
# that knows nothing of how the queue is built.
# ----------------------------------------------------------------------
_GRID = (0.0, 0.5, 1.0, 1.5)
_TIMES = tuple(0.5 * k for k in range(9))


@st.composite
def _programs(draw):
    n = draw(st.integers(1, 4))
    steps = [draw(st.lists(
        st.tuples(st.sampled_from(_GRID),
                  st.none() | st.integers(0, n - 1)),
        min_size=1, max_size=5)) for _ in range(n)]
    timers = draw(st.lists(st.sampled_from(_TIMES), max_size=5))
    ext = st.lists(st.one_of(
        st.tuples(st.just("push"), st.sampled_from((0, 1)),
                  st.sampled_from((0.0, 0.5))),
        st.tuples(st.just("interrupt"), st.integers(0, n - 1))),
        max_size=3)
    pause = st.tuples(st.just("time"), st.sampled_from(_TIMES), ext)
    if timers:
        pause |= st.tuples(st.just("event"),
                           st.integers(0, len(timers) - 1), ext)
    return {"steps": steps, "timers": timers,
            "bulk": draw(st.booleans()),
            "pauses": draw(st.lists(pause, max_size=4))}


def _drive(program, mode, ext):
    """Run ``program`` and return its trace of pushes and dispatches.

    ``mode`` is ``"run"`` (one ``run()``, pauses ignored), ``"split"``
    (``run(until=...)`` at every pause) or ``"step"`` (``step()`` up to
    every pause).  With ``ext``, each pause pushes more events at the
    pause time.  Trace entries are ``("push", label, time, priority,
    cancels)`` and ``("fire", label, now)`` in the order they happened.
    """
    env = Environment()
    trace = []
    n = len(program["steps"])
    procs = []
    waiting = [None] * n        # label of the timeout each one awaits
    interrupted = [False] * n   # an interrupt is on its way
    counter = itertools.count()

    def push(label, time, prio, cancels=None):
        trace.append(("push", label, time, prio, cancels))

    def fire(label):
        trace.append(("fire", label, env.now))

    def interrupt(j):
        if waiting[j] is None or interrupted[j]:
            return
        label = ("intr", j, next(counter))
        push(label, env.now, 0, cancels=waiting[j])
        interrupted[j] = True
        procs[j].interrupt(label)

    def body(i):
        fire(("start", i))
        for k, (delay, poke) in enumerate(program["steps"][i]):
            label = ("wake", i, k)
            push(label, env.now + delay, 1)
            timeout = env.timeout(delay)
            waiting[i] = label
            try:
                yield timeout
                fire(label)
            except Interrupt as exc:
                interrupted[i] = False
                fire(exc.cause)
            waiting[i] = None
            if poke is not None:
                interrupt(poke)

    for i in range(n):
        push(("start", i), 0.0, 1)
        procs.append(env.process(body(i)))
    labels = [("timer", k) for k in range(len(program["timers"]))]
    for label, t in zip(labels, program["timers"]):
        push(label, t, 1)
    if program["bulk"]:
        timers = env.schedule_callback_bulk(
            program["timers"], lambda ev: fire(ev.value), values=labels)
    else:
        timers = []
        for label, t in zip(labels, program["timers"]):
            timer = env.timeout(t)
            timer.callbacks = [lambda ev, label=label: fire(label)]
            timers.append(timer)

    mark = 0.0
    pauses = program["pauses"] if mode != "run" else []
    for kind, arg, pushes in pauses:
        start = len(trace)
        if kind == "time":
            if arg < mark:
                continue
            if mode == "split":
                env.run(until=arg)
                assert env.now == arg
                # Events at exactly the horizon wait for the next run.
                assert all(e[2] < arg for e in trace[start:]
                           if e[0] == "fire")
            else:
                while env.peek() < arg:
                    env.step()
            mark = arg
        else:
            timer = timers[arg]
            if timer.processed:
                continue
            if mode == "split":
                env.run(until=timer)
            else:
                while not timer.processed:
                    env.step()
            mark = program["timers"][arg]
            assert env.now == mark
        if not ext:
            continue
        for item in pushes:
            if item[0] == "interrupt":
                # Interrupts fire at `now`, which a step-driven pause
                # only reaches at an event stop.
                if kind == "event":
                    interrupt(item[1])
                continue
            _, prio, delay = item
            label = ("ext", next(counter))
            event = env.event()
            event.callbacks.append(lambda ev, label=label: fire(label))
            push(label, mark + delay, prio)
            env.schedule(event, mark + delay - env.now, priority=prio)
    if mode == "step":
        while env.peek() < math.inf:
            env.step()
    else:
        env.run()
    return trace


def _check_order(trace):
    """Every dispatch is the least pending push by (time, priority,
    insertion), at that time; an interrupt drops the wait it cancels."""
    pending = {}
    cancels = {}
    for seq, entry in enumerate(trace):
        if entry[0] == "push":
            _, label, time, prio, cancelled = entry
            pending[label] = (time, prio, seq)
            if cancelled is not None:
                cancels[label] = cancelled
        else:
            _, label, now = entry
            assert label == min(pending, key=pending.__getitem__), entry
            assert now == pending.pop(label)[0], entry
            if label in cancels:
                del pending[cancels[label]]
    assert not pending


def _fires(trace):
    return [e for e in trace if e[0] == "fire"]


@settings(max_examples=150, deadline=None)
@given(_programs())
def test_dispatch_order_is_time_priority_insertion(program):
    plain = _drive(program, "run", ext=False)
    _check_order(plain)
    for mode in ("split", "step"):
        assert _fires(_drive(program, mode, ext=False)) == _fires(plain)
    paused = _drive(program, "split", ext=True)
    _check_order(paused)
    assert _drive(program, "step", ext=True) == paused
