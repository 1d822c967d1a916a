"""Time-series monitors for simulation state.

A :class:`Monitor` records ``(time, value)`` samples of a piecewise-
constant signal (server power, zone temperature, queue depth, ...) and
answers the statistics the experiments need: time-weighted mean,
integral (e.g. joules from watts), maxima, and resampling onto a
regular grid for plotting and benchmark comparison.

Storage is a pair of amortized-doubling numpy buffers plus a lazily
maintained *cumulative integral* (prefix-sum) array, so a window query
``integral(t0, t1)`` costs two ``searchsorted`` lookups instead of a
Python loop over every sample in the window — the difference between
O(n) and O(log n) for the SLA window evaluator and the PUE meter on a
multi-day fleet run.

Invariants of the prefix array ``_cum``:

* ``_cum[i]`` is the exact integral of the step signal from
  ``times[0]`` to ``times[i]`` (so ``_cum[0] == 0``).
* Entries ``[0, _cum_valid)`` are up to date; later entries are
  extended lazily (and in one vectorized ``cumsum``) on first query.
  An extension continues the same left fold from the last valid
  entry, so the array holds the same bits however often, and at
  whichever points, the monitor was queried: a reader cannot change
  a later result.
* A same-instant re-record only rewrites ``values[-1]``, which only
  affects the still-open last segment — never any completed ``_cum``
  entry — so overwrites need no invalidation.
"""

from __future__ import annotations

import math
import typing

import numpy as np

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Environment

__all__ = ["Monitor", "CounterMonitor"]

_INITIAL_CAPACITY = 64


class Monitor:
    """Record a piecewise-constant signal over simulated time.

    The signal holds its last recorded value until the next sample;
    integrals and means are computed under that step interpretation,
    which matches how the physical models emit state (power levels
    change at events, not continuously).
    """

    __slots__ = ("env", "name", "_times", "_values", "_n",
                 "_cum", "_cum_valid")

    def __init__(self, env: "Environment", name: str = ""):
        self.env = env
        self.name = name
        self._times = np.empty(_INITIAL_CAPACITY)
        self._values = np.empty(_INITIAL_CAPACITY)
        self._n = 0
        self._cum = np.empty(_INITIAL_CAPACITY)
        self._cum_valid = 0

    def __len__(self) -> int:
        return self._n

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, value: float, time: float | None = None) -> None:
        """Append a sample (defaults to the current simulation time)."""
        t = self.env.now if time is None else float(time)
        n = self._n
        if n:
            last_t = self._times[n - 1]
            if t < last_t:
                raise ValueError(
                    f"sample at t={t} precedes last sample t={last_t}")
            if t == last_t:
                # Same-instant update wins; keeps the series a function
                # of t.  Only the open last segment changes, so the
                # prefix array stays valid (see module docstring).
                self._values[n - 1] = value
                return
        if n == len(self._times):
            self._grow()
        self._times[n] = t
        self._values[n] = value
        self._n = n + 1

    def _grow(self) -> None:
        capacity = 2 * len(self._times)
        for attr in ("_times", "_values", "_cum"):
            new = np.empty(capacity)
            old = getattr(self, attr)
            new[:len(old)] = old
            setattr(self, attr, new)

    # ------------------------------------------------------------------
    # Raw access (read-only views of the live buffers)
    # ------------------------------------------------------------------
    @property
    def times(self) -> np.ndarray:
        """Sample times as a read-only array view."""
        view = self._times[:self._n]
        view.flags.writeable = False
        return view

    @property
    def values(self) -> np.ndarray:
        """Sample values as a read-only array view."""
        view = self._values[:self._n]
        view.flags.writeable = False
        return view

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Raw samples as (owned) numpy arrays."""
        return self._times[:self._n].copy(), self._values[:self._n].copy()

    @property
    def last(self) -> float:
        """Most recent value (NaN if empty)."""
        n = self._n
        return float(self._values[n - 1]) if n else math.nan

    def value_at(self, time: float) -> float:
        """Signal value at ``time`` (NaN before the first sample)."""
        idx = int(np.searchsorted(self._times[:self._n], time,
                                  side="right")) - 1
        return float(self._values[idx]) if idx >= 0 else math.nan

    # ------------------------------------------------------------------
    # Windowed statistics
    # ------------------------------------------------------------------
    def _extend_cum(self) -> None:
        """Bring the prefix-integral array up to the newest sample."""
        n, m = self._n, self._cum_valid
        if m >= n:
            return
        t, v, c = self._times, self._values, self._cum
        if m == 0:
            c[0] = 0.0
            m = 1
        if m < n:
            # np.cumsum folds strictly left to right, so seeding it with
            # c[m-1] gives the bits of one bulk fold over all segments.
            segments = v[m - 1:n - 1] * (t[m:n] - t[m - 1:n - 1])
            segments[0] += c[m - 1]
            np.cumsum(segments, out=c[m:n])
        self._cum_valid = n

    def _cum_at(self, x: float) -> float:
        """Integral of the signal from ``times[0]`` to ``x`` (clamped:
        zero for ``x`` at or before the first sample)."""
        times = self._times[:self._n]
        idx = int(np.searchsorted(times, x, side="right")) - 1
        if idx < 0:
            return 0.0
        return float(self._cum[idx]
                     + self._values[idx] * (x - times[idx]))

    def integral(self, start: float | None = None,
                 end: float | None = None) -> float:
        """∫ value dt over [start, end] under the step interpretation.

        With watt samples this yields joules.  ``end`` defaults to the
        current simulation time so a still-running signal integrates up
        to "now"; ``start`` defaults to the first sample.  Time before
        the first sample contributes nothing (the signal is undefined
        there).
        """
        n = self._n
        if n == 0:
            return 0.0
        t0 = self._times[0] if start is None else float(start)
        t1 = self.env.now if end is None else float(end)
        if t1 <= t0:
            return 0.0
        self._extend_cum()
        return self._cum_at(t1) - self._cum_at(t0)

    def time_weighted_mean(self, start: float | None = None,
                           end: float | None = None) -> float:
        """Mean value weighted by how long each value was held."""
        if self._n == 0:
            return math.nan
        t0 = self._times[0] if start is None else float(start)
        t1 = self.env.now if end is None else float(end)
        duration = t1 - t0
        if duration <= 0:
            return self.value_at(t0)
        return self.integral(t0, t1) / duration

    def maximum(self) -> float:
        """Largest recorded value (NaN if empty)."""
        n = self._n
        return float(self._values[:n].max()) if n else math.nan

    def minimum(self) -> float:
        """Smallest recorded value (NaN if empty)."""
        n = self._n
        return float(self._values[:n].min()) if n else math.nan

    def resample(self, step: float, start: float | None = None,
                 end: float | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Sample the step signal onto a regular grid.

        Returns ``(times, values)`` arrays; convenient for comparing
        series across runs and for the benchmark tables.
        """
        if step <= 0:
            raise ValueError(f"step must be positive, got {step}")
        n = self._n
        if n == 0:
            return np.array([]), np.array([])
        t0 = self._times[0] if start is None else float(start)
        t1 = self.env.now if end is None else float(end)
        grid = np.arange(t0, t1 + step / 2, step)
        idx = np.searchsorted(self._times[:n], grid, side="right") - 1
        out = np.where(idx >= 0, self._values[np.clip(idx, 0, None)], np.nan)
        return grid, out


class CounterMonitor(Monitor):
    """Monitor for an integer count (queue depth, active servers, ...).

    Adds :meth:`increment`/:meth:`decrement` conveniences on top of the
    plain monitor.
    """

    __slots__ = ()

    def __init__(self, env: "Environment", name: str = "", initial: int = 0):
        super().__init__(env, name)
        self.record(initial)

    def increment(self, by: int = 1) -> None:
        """Raise the count by ``by`` at the current time."""
        self.record(self.last + by)

    def decrement(self, by: int = 1) -> None:
        """Lower the count by ``by`` at the current time."""
        self.record(self.last - by)
