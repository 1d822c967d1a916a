"""The discrete-event simulation environment.

:class:`Environment` owns simulated time and the event queue.  It is
deliberately minimal and deterministic: ties in time are broken by
priority and then by insertion order, so a simulation with a fixed seed
replays identically — a property the test suite relies on.

Queue entries are 3-tuples ``(time, key, event)`` where ``key`` packs
``((priority - 1) << 52) + eid`` into one int: comparing a single int
is measurably cheaper than comparing two, the offset makes the default
priority 1 pack to the bare insertion id (no arithmetic on the hottest
push site), and 2**52 insertions outlast any simulation this code base
will ever run.  Only priorities 0 (interrupt) and 1 (everything else)
are used today; any non-negative priority packs correctly.

The queue itself is a :class:`~repro.sim.calendar.CalendarQueue` — a
bucketed calendar ring whose total order over ``(time, key)`` is
identical to the ``heapq`` it replaced, but whose pop is an amortised
``list.pop()`` from a pre-sorted bucket instead of a heap sift.  The
hot sites (:meth:`timeout` and ``Timeout.__init__``) inline the
ring-insert to skip even the method-call frame.
"""

from __future__ import annotations

import heapq
import sys
import typing

from repro.sim.calendar import CalendarQueue
from repro.sim.events import (
    AllOf,
    AnyOf,
    Event,
    Timeout,
    _subscribe_callback,
)
from repro.sim.process import Process

__all__ = ["Environment"]

_INF = float("inf")


class Environment:
    """A discrete-event simulation environment.

    Time is a float in **seconds** by convention across this code base
    (workload generators, coolers, and controllers all agree on it).
    """

    __slots__ = ("_now", "_queue", "_eidn", "_active_process", "_free",
                 "tracer")

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue = CalendarQueue(self._now)
        self._eidn = 0
        self._active_process: Process | None = None
        #: Optional :class:`~repro.obs.Tracer` (the flight recorder).
        #: :meth:`run` has one loop for both cases; an attached tracer
        #: only wraps it in a span and a wall timer and receives the
        #: event-mix counts the loop keeps anyway.
        self.tracer = None
        #: Recycled Timeout objects (see run()).  A consumed
        #: timeout that provably has no outside references goes here
        #: instead of the garbage collector, and :meth:`timeout` reuses
        #: it — object allocation is a measurable share of a fleet
        #: run's kernel time.
        self._free: list[Timeout] = []

    # ------------------------------------------------------------------
    # Time & scheduling
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Process | None:
        """The process currently executing, if any."""
        return self._active_process

    def schedule(self, event: Event, delay: float = 0.0,
                 priority: int = 1) -> None:
        """Queue ``event`` to be processed after ``delay`` seconds.

        Lower ``priority`` fires first among simultaneous events
        (interrupts use 0 so they beat ordinary wakeups).
        """
        eid = self._eidn = self._eidn + 1
        self._queue.push(
            (self._now + delay, ((priority - 1) << 52) + eid, event))

    def schedule_callback_bulk(self, times, callback,
                               values=None) -> list[Timeout]:
        """Schedule ``callback(event)`` at each absolute time in ``times``.

        The bulk companion to ``timeout() + callbacks.append``: builds
        one :class:`Timeout` per entry up front and inserts them into
        the calendar ring in a single numpy-binned pass — the backbone
        of pre-sampled workload arrival trains.  ``times`` must be
        absolute simulated times ``>= now`` (any order; ties dispatch
        in array order, matching sequential ``timeout()`` calls).  Each
        event's value is the entry of ``values`` at the same position,
        or the scheduled time itself when ``values`` is None.
        """
        now = self._now
        eidn = self._eidn
        shared = (callback,)
        entries = []
        events = []
        for i, t in enumerate(times):
            t = float(t)
            if t < now:
                raise ValueError(f"time {t} lies in the past (now={now})")
            event = Timeout.__new__(Timeout)
            event.env = self
            event.callbacks = shared
            event._value = t if values is None else values[i]
            event.delay = t - now
            event._waiter = None
            eidn += 1
            entries.append((t, eidn, event))
            events.append(event)
        self._eidn = eidn
        self._queue.push_bulk(entries)
        return events

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value=None) -> Timeout:
        """An event that fires ``delay`` seconds from now.

        Builds the :class:`Timeout` inline (no ``__init__`` frame):
        this factory runs once per tick of every periodic process, and
        the saved call frame is worth a few percent of total runtime.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        free = self._free
        if free:
            # Reuse a consumed timeout (refcount-proven unreferenced
            # when it was parked — see run()); every field is reset.
            event = free.pop()
        else:
            event = Timeout.__new__(Timeout)
            event.env = self
        event.callbacks = ()
        event._value = value
        event.delay = delay
        event._waiter = None
        eid = self._eidn = self._eidn + 1
        # Inlined CalendarQueue.push — this is the hottest push site.
        q = self._queue
        t = self._now + delay
        tw = t * q.inv_width
        idx = int(tw)
        if idx > tw:
            idx -= 1
        if idx < q.far_start_idx:
            cur = q.cur
            if idx > cur:
                q.buckets[idx & q.mask].append((t, eid, event))
                q.size += 1
            else:
                # Current-or-behind bucket: clamp + interrupt flag
                # (see CalendarQueue.push).
                b = q.buckets[cur & q.mask]
                b.append((t, eid, event))
                q.size += 1
                q.intr = True
                if t < q.intr_t:
                    q.intr_t = t
                if len(b) > 1:
                    q.dirty = True
        else:
            heapq.heappush(q.far, (t, eid, event))
        return event

    def process(self, generator: typing.Generator,
                name: str | None = None) -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator, name=name)

    def any_of(self, events: typing.Sequence[Event]) -> AnyOf:
        """Condition event firing when any of ``events`` fires."""
        return AnyOf(self, events)

    def all_of(self, events: typing.Sequence[Event]) -> AllOf:
        """Condition event firing when all of ``events`` have fired."""
        return AllOf(self, events)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _dispatch(self, event: Event) -> None:
        """Fire ``event``'s waiters.  Shared by :meth:`step` and the
        inlined loops in :meth:`run` (which bypass it on the hot path).
        """
        callbacks, event.callbacks = event.callbacks, None
        if type(event) is Timeout:
            waiter = event._waiter
            if waiter is not None:
                # Invariant: a set waiter means callbacks was never
                # materialized — the waiter is the only subscriber.
                waiter._resume(event)
                return
            for callback in callbacks:
                callback(event)
            return
        for callback in callbacks:
            callback(event)
        # Cheapest test first: almost every event has at least one
        # waiter, so the isinstance check is rarely reached.
        if not callbacks and not event._ok and isinstance(event, Process):
            # Nobody was waiting on a crashed process: surface the error
            # instead of letting it pass silently.
            raise event._value

    def step(self) -> None:
        """Process the single next event.

        Raises :class:`IndexError` when the queue is empty.
        """
        time, _key, event = self._queue.pop()
        self._now = time
        self._dispatch(event)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue.peek_time()

    def run(self, until: float | Event | None = None):
        """Run the simulation.

        * ``until`` is ``None``: run until the event queue drains.
        * ``until`` is a number: run to that absolute time (events at
          exactly that time are *not* processed, matching SimPy).
        * ``until`` is an :class:`Event`: run until it is processed and
          return its value.

        All three forms share one loop.  It inlines both :meth:`step`
        and the resumption of a process waiting on a pure
        :class:`Timeout` (the overwhelmingly common wakeup): one
        generator ``send`` per event with no intermediate Python
        frames.  At fleet scale the kernel spends its life here.

        With a tracer attached, the same loop runs inside a
        ``kernel.run`` span and the ``kernel`` wall timer and hands the
        tracer the event-mix counts it keeps anyway; an invalid
        ``until`` raises before the span opens.
        """
        horizon = _INF
        sentinel = None
        if isinstance(until, Event):
            sentinel = until
            if sentinel.processed:
                if not sentinel.ok:
                    raise sentinel.value
                return sentinel.value
        elif until is not None:
            horizon = float(until)
            if horizon < self._now:
                raise ValueError(
                    f"until={horizon} lies in the past (now={self._now})")
        tracer = self.tracer
        if tracer is not None:
            timer = tracer.timer("kernel")
            timer.__enter__()
            handle = tracer.span("kernel.run", "kernel")
        # The sentinel's callbacks are materialized, so it fires in a
        # generic dispatch; the loop stops right after that one.
        fired: list[Event] = []
        if sentinel is not None:
            _subscribe_callback(sentinel, fired.append)
        q = self._queue
        take_before = q.take_before
        free = self._free
        getrefcount = sys.getrefcount
        n_fast = n_dispatch = n_completed = n_failed = 0
        batch = None
        try:
            while True:
                batch = take_before(horizon)
                if batch is None:
                    break
                # The batch is descending; batch.pop() consumes it in
                # dispatch order.  A push landing inside the batch's time
                # window sets q.intr; the remainder goes back for a
                # re-sort only when the push can actually precede a batch
                # entry (strictly smaller time than the batch maximum —
                # fresh eids always order after pending ones at equal
                # times).  See CalendarQueue.take_before.
                while batch:
                    if q.intr:
                        q.intr = False
                        if q.intr_t < batch[0][0]:
                            q.intr_t = _INF
                            q.requeue(batch)
                            batch = None
                            break
                        q.intr_t = _INF
                    entry = batch.pop()
                    time, _key, event = entry
                    # Drop the queue tuple so the refcount-based
                    # recycling check below sees only the `event`
                    # local + the getrefcount argument.
                    entry = None
                    self._now = time
                    if type(event) is Timeout:
                        proc = event._waiter
                        if proc is not None:
                            # Hot path: one process waiting on a plain
                            # timeout (a set waiter implies no other
                            # subscribers).  Resume its generator right
                            # here — no _dispatch or _resume frame — and
                            # re-subscribe it if it yields another fresh
                            # timeout (it almost always does).
                            n_fast += 1
                            event.callbacks = None
                            self._active_process = proc
                            try:
                                result = proc._send(event._value)
                            except StopIteration as stop:
                                self._active_process = None
                                proc._target = None
                                proc.succeed(stop.value)
                                n_completed += 1
                                continue
                            except BaseException as exc:
                                self._active_process = None
                                proc._target = None
                                proc.fail(exc)
                                self._on_process_failure(proc, exc)
                                n_failed += 1
                                continue
                            self._active_process = None
                            if type(result) is Timeout:
                                callbacks = result.callbacks
                                if callbacks is not None:
                                    proc._target = result
                                    if type(callbacks) is tuple:
                                        waiter = result._waiter
                                        if waiter is None:
                                            result._waiter = proc
                                        else:
                                            result._waiter = None
                                            result.callbacks = [
                                                waiter._resume_cb,
                                                proc._resume_cb,
                                            ]
                                    else:
                                        callbacks.append(proc._resume_cb)
                                    # Recycle the consumed timeout when
                                    # provably unreferenced (the local +
                                    # the getrefcount argument are the
                                    # only refs left): timeout() reuses
                                    # the object instead of allocating.
                                    if getrefcount(event) == 2:
                                        free.append(event)
                                    continue
                            proc._target = None
                            proc._subscribe(result)
                            continue
                    self._dispatch(event)
                    n_dispatch += 1
                    if fired:
                        break
                if fired:
                    if batch:
                        q.requeue(batch)
                    break
        except BaseException:
            if batch:
                q.requeue(batch)
            raise
        finally:
            if tracer is not None:
                handle.__exit__(None, None, None)
                timer.__exit__(None, None, None)
                tracer.count("kernel.timeout_fast", n_fast)
                tracer.count("kernel.dispatched", n_dispatch)
                tracer.count("kernel.processes_completed", n_completed)
                tracer.count("kernel.processes_failed", n_failed)
        if sentinel is not None:
            if not fired:
                raise RuntimeError(
                    "simulation ended before the awaited event fired")
            if not sentinel.ok:
                raise sentinel.value
            return sentinel.value
        if until is not None:
            self._now = horizon
        return None

    def _on_process_failure(self, process: Process,
                            exc: BaseException) -> None:
        """Hook invoked when a process dies with an exception.

        The default implementation does nothing here; the failure is
        re-raised by :meth:`step` when the dead process event is
        processed with no waiters.
        """
