"""Causal tracing: monotonic sim-time spans and events in a ring.

The flight recorder's lowest layer.  A :class:`Tracer` owns three
stores:

* a **span** ring — nested intervals of simulated time (a macro
  decision cycle, a kernel run, a reconciliation pass) with
  parent/child causality carried by a span stack;
* an **event** ring — instantaneous records (a wake command, a cap
  tighten, a telemetry observation) attached to the innermost open
  span, which is how an actuation is later traced back to the
  decision cycle that issued it;
* **profiling counters and wall-clock timers** — plain dicts fed by
  the instrumentation points (kernel event mix, per-subsystem wall
  seconds).

Everything is off by default: instrumentation sites guard on
``env.tracer is not None`` (one attribute load and a pointer
comparison), the tracer draws no randomness, schedules no simulation
events, and never touches simulated time — so attaching one, enabled
or not, leaves every simulation result bit-identical.  Storage is
bounded by the ring capacity, so a week-long fleet run cannot grow
the recorder without bound.
"""

from __future__ import annotations

import collections
import itertools
import time
import typing

__all__ = ["Tracer", "SpanRecord", "EventRecord"]


class SpanRecord:
    """One closed or open interval of simulated time."""

    __slots__ = ("sid", "parent_sid", "name", "category", "start_s",
                 "end_s", "attrs")

    def __init__(self, sid: int, parent_sid: int | None, name: str,
                 category: str, start_s: float,
                 attrs: dict | None):
        self.sid = sid
        self.parent_sid = parent_sid
        self.name = name
        self.category = category
        self.start_s = start_s
        self.end_s: float | None = None
        self.attrs = attrs

    @property
    def duration_s(self) -> float | None:
        if self.end_s is None:
            return None
        return self.end_s - self.start_s

    def to_dict(self) -> dict:
        return {"sid": self.sid, "parent_sid": self.parent_sid,
                "name": self.name, "category": self.category,
                "start_s": self.start_s, "end_s": self.end_s,
                "attrs": self.attrs or {}}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"SpanRecord({self.name!r}, sid={self.sid}, "
                f"[{self.start_s}, {self.end_s}])")


class EventRecord:
    """One instantaneous record, attached to the innermost open span."""

    __slots__ = ("eid", "span_sid", "name", "category", "time_s",
                 "attrs")

    def __init__(self, eid: int, span_sid: int | None, name: str,
                 category: str, time_s: float, attrs: dict | None):
        self.eid = eid
        self.span_sid = span_sid
        self.name = name
        self.category = category
        self.time_s = time_s
        self.attrs = attrs

    def to_dict(self) -> dict:
        return {"eid": self.eid, "span_sid": self.span_sid,
                "name": self.name, "category": self.category,
                "time_s": self.time_s, "attrs": self.attrs or {}}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"EventRecord({self.name!r}, t={self.time_s}, "
                f"span={self.span_sid})")


class _SpanHandle:
    """Context manager closing one span (kept tiny; no Span methods)."""

    __slots__ = ("_tracer", "record")

    def __init__(self, tracer: "Tracer", record: SpanRecord):
        self._tracer = tracer
        self.record = record

    def __enter__(self) -> SpanRecord:
        return self.record

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._close_span(self.record)


class _WallTimer:
    """Context manager accumulating wall seconds into a tracer bucket."""

    __slots__ = ("_tracer", "_name", "_t0")

    def __init__(self, tracer: "Tracer", name: str):
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> "_WallTimer":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        dt = time.perf_counter() - self._t0
        timers = self._tracer.wall_s
        timers[self._name] = timers.get(self._name, 0.0) + dt


class Tracer:
    """Bounded-memory span/event recorder bound to one simulation.

    Parameters
    ----------
    capacity:
        Ring size for closed spans and for events, independently.
        Old records are evicted oldest-first.

    The tracer must be bound to an environment (``bind(env)`` — done
    by whoever attaches it, e.g. :class:`~repro.datacenter.cosim
    .CoSimulation`) before spans or events are recorded, so that all
    timestamps are monotonic simulated seconds from that clock.
    """

    def __init__(self, capacity: int = 65_536):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self.spans: collections.deque[SpanRecord] = collections.deque(
            maxlen=self.capacity)
        self.events: collections.deque[EventRecord] = collections.deque(
            maxlen=self.capacity)
        #: Monotonic profiling counters (kernel event mix, ...).
        #: Plain ints; see :meth:`count`.
        self.counters: dict[str, int] = {}
        #: Accumulated wall-clock seconds per subsystem bucket.
        self.wall_s: dict[str, float] = {}
        #: Sinks receive every :class:`EventRecord` as it is recorded
        #: (the audit trail registers one).
        self.sinks: list[typing.Callable[[EventRecord], None]] = []
        #: Decision-cycle correlation id, maintained by the audit
        #: trail so deep layers (the actuation bus) can stamp records
        #: without holding a reference to the trail itself.
        self.decision_id: int | None = None
        self._clock: typing.Callable[[], float] = lambda: 0.0
        self._sid = itertools.count(1)
        self._eid = itertools.count(1)
        self._stack: list[SpanRecord] = []
        self.spans_dropped = 0
        self.events_dropped = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def bind(self, env) -> "Tracer":
        """Attach to ``env``: clock follows sim time, kernel hooks on.

        Returns ``self`` so ``Tracer().bind(env)`` reads naturally.
        """
        self._clock = lambda: env.now
        env.tracer = self
        return self

    @property
    def now(self) -> float:
        """Current simulated time per the bound clock."""
        return self._clock()

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def span(self, name: str, category: str = "",
             **attrs) -> _SpanHandle:
        """Open a child span of the innermost open span.

        Use as a context manager; the span closes (and lands in the
        ring) on exit.
        """
        record = SpanRecord(next(self._sid),
                            self._stack[-1].sid if self._stack else None,
                            name, category, self._clock(),
                            attrs or None)
        self._stack.append(record)
        return _SpanHandle(self, record)

    def _close_span(self, record: SpanRecord) -> None:
        record.end_s = self._clock()
        # Close any dangling children too (a crashed process can skip
        # inner __exit__ frames); normally this pops exactly one.
        while self._stack:
            top = self._stack.pop()
            if top is record:
                break
            top.end_s = record.end_s  # pragma: no cover - crash path
        if len(self.spans) == self.capacity:
            self.spans_dropped += 1
        self.spans.append(record)

    @property
    def current_span(self) -> SpanRecord | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    # ------------------------------------------------------------------
    # Events, counters, timers
    # ------------------------------------------------------------------
    def event(self, name: str, category: str = "",
              **attrs) -> EventRecord:
        """Record one instantaneous event under the open span."""
        record = EventRecord(next(self._eid),
                             self._stack[-1].sid if self._stack else None,
                             name, category, self._clock(),
                             attrs or None)
        if len(self.events) == self.capacity:
            self.events_dropped += 1
        self.events.append(record)
        for sink in self.sinks:
            sink(record)
        return record

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the profiling counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + n

    def timer(self, name: str) -> _WallTimer:
        """Context manager accumulating wall time into ``wall_s``."""
        return _WallTimer(self, name)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def events_in_span(self, sid: int) -> list[EventRecord]:
        """Events recorded directly under span ``sid`` (ring-bounded)."""
        return [e for e in self.events if e.span_sid == sid]

    def span_children(self, sid: int | None) -> list[SpanRecord]:
        """Closed spans whose parent is ``sid`` (ring-bounded)."""
        return [s for s in self.spans if s.parent_sid == sid]

    def find_spans(self, name: str) -> list[SpanRecord]:
        """Closed spans named ``name``, oldest first."""
        return [s for s in self.spans if s.name == name]

    def summary(self) -> dict:
        """Machine-readable recorder totals for the run report."""
        return {
            "spans_recorded": len(self.spans),
            "spans_dropped": self.spans_dropped,
            "events_recorded": len(self.events),
            "events_dropped": self.events_dropped,
            "counters": dict(sorted(self.counters.items())),
            "wall_s": {k: round(v, 6)
                       for k, v in sorted(self.wall_s.items())},
        }
