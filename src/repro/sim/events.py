"""Events for the discrete-event kernel.

An :class:`Event` is a one-shot synchronization point.  Processes wait on
events by ``yield``-ing them; the kernel resumes every waiter when the
event is *triggered*.  Events carry a value (delivered as the result of
the ``yield``) or an exception (raised inside the waiting process).

A :class:`Timeout` pushes itself straight onto the environment's
``heapq`` event queue (see :mod:`repro.sim.kernel`) and rejects a
negative, NaN or infinite delay.
"""

from __future__ import annotations

import typing
from heapq import heappush

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Environment

__all__ = ["Event", "Timeout", "AnyOf", "AllOf", "Interrupt"]

_PENDING = object()
_INF = float("inf")

#: Shared initial ``callbacks`` for :class:`Timeout`.  A pending event's
#: callbacks may be this immutable empty tuple instead of a list — the
#: common timeout never gains a callback (its sole waiter rides the
#: ``_waiter`` slot), so skipping the per-timeout list allocation is a
#: measurable kernel win.  Subscribers that append must materialize a
#: real list first (see ``Process._subscribe`` and ``_Condition``).
_NO_CALLBACKS: tuple = ()


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The interrupt ``cause`` is available as ``exc.cause``.
    """

    @property
    def cause(self):
        return self.args[0] if self.args else None


class Event:
    """A one-shot event that processes can wait on.

    Events move through three states: *pending* (just created),
    *triggered* (scheduled to fire, value decided) and *processed*
    (callbacks have run).  Triggering twice is an error — events are
    one-shot by design, which keeps causality in the kernel auditable.

    Events are allocated once per kernel wakeup, so the class is slotted
    — a day-long fleet simulation creates millions of them.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: list | None = []
        self._value = _PENDING
        self._ok: bool | None = None

    @property
    def triggered(self) -> bool:
        """Whether the event has a decided value."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """Whether the event's callbacks have already run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """Whether the event succeeded.  Only valid once triggered."""
        if self._value is _PENDING:
            raise RuntimeError("event is not yet triggered")
        return bool(self._ok)

    @property
    def value(self):
        """The event's value (or exception instance on failure)."""
        if self._value is _PENDING:
            raise RuntimeError("event is not yet triggered")
        return self._value

    def succeed(self, value=None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Every waiting process will see ``exception`` raised at its
        ``yield`` statement.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def __repr__(self) -> str:
        state = (
            "processed" if self.processed
            else "triggered" if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay.

    The constructor is the kernel's hottest allocation site (every
    periodic process yields one per tick), so it assigns the slots
    directly instead of chaining through :meth:`Event.__init__`.

    ``_waiter`` is a dispatch fast lane: when exactly one process waits
    on the timeout (the overwhelmingly common case) it is stored here
    instead of in ``callbacks``, letting the kernel's run loop resume
    the generator without allocating a bound method or walking a list.
    Invariant: ``_waiter`` is only ever set while ``callbacks`` is the
    pristine empty tuple; materializing the callbacks list moves the
    waiter into it (first position — firing order still matches
    subscription order).
    """

    __slots__ = ("delay", "_waiter")

    # Timeouts are pre-triggered successes: ``_ok`` can never change
    # (succeed/fail reject already-triggered events), so a class
    # attribute shadows the inherited slot and saves a store per tick.
    _ok = True

    def __init__(self, env: "Environment", delay: float, value=None):
        if not 0.0 <= delay < _INF:
            raise ValueError(f"invalid delay {delay}")
        self.env = env
        self.callbacks = _NO_CALLBACKS
        self._value = value
        self.delay = delay
        self._waiter = None
        # Inlined env.schedule(self, delay=delay) — the call overhead is
        # measurable at millions of timeouts per run.  Priority 1 packs
        # to the bare insertion id (see Environment.schedule).
        eid = env._eidn = env._eidn + 1
        heappush(env._queue, (env._now + delay, eid, self))

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay} at {hex(id(self))}>"


def _subscribe_callback(event: Event, callback) -> None:
    """Append ``callback`` to a pending event's waiter list.

    Materializes the shared empty-tuple callbacks of a fresh
    :class:`Timeout`, moving any ``_waiter`` fast-lane process into the
    list first so the kernel's one-field hot-path check stays sound and
    firing order matches subscription order.
    """
    callbacks = event.callbacks
    if type(callbacks) is tuple:
        waiter = event._waiter  # only Timeouts carry tuple callbacks
        if waiter is not None:
            event._waiter = None
            event.callbacks = [waiter._resume_cb, callback]
        else:
            event.callbacks = [callback]
    else:
        callbacks.append(callback)


class _Condition(Event):
    """Common machinery for :class:`AnyOf` / :class:`AllOf`."""

    __slots__ = ("events", "_remaining")

    def __init__(self, env: "Environment", events: typing.Sequence[Event]):
        super().__init__(env)
        self.events = tuple(events)
        for event in self.events:
            if event.env is not env:
                raise ValueError("all events must share one environment")
        self._remaining = len(self.events)
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            if event.processed:
                self._observe(event)
            else:
                _subscribe_callback(event, self._observe)

    def _collect(self) -> dict:
        # `processed` rather than `triggered`: a Timeout decides its value
        # at construction but has not *fired* until its callbacks run.
        return {e: e.value for e in self.events if e.processed}

    def _observe(self, event: Event) -> None:
        raise NotImplementedError


class AnyOf(_Condition):
    """Fires as soon as any constituent event fires.

    The value is a dict mapping the already-triggered events to their
    values.  A failed constituent fails the condition.
    """

    __slots__ = ()

    def _observe(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.value)
        else:
            self.succeed(self._collect())


class AllOf(_Condition):
    """Fires once every constituent event has fired.

    The value maps each event to its value.  The first failure fails
    the whole condition immediately.
    """

    __slots__ = ()

    def _observe(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(self._collect())
