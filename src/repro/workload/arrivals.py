"""Request arrival processes.

Three generators cover the paper's demand regimes:

* :class:`PoissonArrivals` — stationary traffic (queueing analyses);
* :class:`NonHomogeneousPoisson` — diurnal traffic, via thinning
  against an arbitrary rate function such as a
  :class:`~repro.workload.diurnal.DiurnalProfile`;
* :class:`MMPPArrivals` — bursty traffic (Markov-modulated Poisson),
  the standard parsimonious model of flash-crowd-ish burstiness.

Each offers ``times(horizon)`` for trace generation and ``drive`` for
pushing arrival events into a simulation Store one by one.
``drive_bulk`` is the batched alternative: it pre-samples the whole
arrival train with ``times(horizon)`` and schedules every event in
one ``schedule_callback_bulk`` call instead of a generator frame per
arrival.  The two drivers consume the RNG
in different orders (all gaps up front vs interleaved with the
simulation), so a given seed produces different — equally valid —
sample paths; pick one driver per experiment and stay with it.
"""

from __future__ import annotations

import typing

import numpy as np

from repro.sim import Environment, Store

__all__ = ["PoissonArrivals", "NonHomogeneousPoisson", "MMPPArrivals"]


def _drive_bulk(process, env: Environment, store: Store,
                horizon_s: float,
                make_item: typing.Callable[[float], object]) -> int:
    """Pre-sample ``process.times(horizon_s)`` and bulk-schedule puts.

    Returns the number of arrivals scheduled.  Items land in ``store``
    at their arrival instants via the kernel's bulk schedule.
    """
    times = np.asarray(process.times(horizon_s), dtype=np.float64)
    if times.size == 0:
        return 0
    now = env.now
    if now:
        times = times + now

    def put(event):
        store.put(make_item(event.value))

    env.schedule_callback_bulk(times, put)
    return int(times.size)


class PoissonArrivals:
    """Homogeneous Poisson process of rate ``rate_per_s``."""

    def __init__(self, rate_per_s: float, rng: np.random.Generator):
        if rate_per_s <= 0:
            raise ValueError(f"rate must be positive, got {rate_per_s}")
        self.rate_per_s = float(rate_per_s)
        self.rng = rng

    def times(self, horizon_s: float) -> np.ndarray:
        """All arrival instants in [0, horizon)."""
        if horizon_s <= 0:
            return np.array([])
        # Draw a safely-padded batch of exponentials, then trim.
        expected = self.rate_per_s * horizon_s
        n = int(expected + 6 * np.sqrt(expected + 1) + 16)
        gaps = self.rng.exponential(1.0 / self.rate_per_s, size=n)
        times = np.cumsum(gaps)
        while times[-1] < horizon_s:  # pragma: no cover - rare top-up
            extra = self.rng.exponential(1.0 / self.rate_per_s, size=n)
            times = np.concatenate([times, times[-1] + np.cumsum(extra)])
        return times[times < horizon_s]

    def drive(self, env: Environment, store: Store,
              make_item: typing.Callable[[float], object] = lambda t: t):
        """Process generator: push ``make_item(now)`` at each arrival."""
        while True:
            gap = self.rng.exponential(1.0 / self.rate_per_s)
            yield env.timeout(gap)
            yield store.put(make_item(env.now))

    def drive_bulk(self, env: Environment, store: Store,
                   horizon_s: float,
                   make_item: typing.Callable[[float], object]
                   = lambda t: t) -> int:
        """Pre-sample the train to ``now + horizon_s``; bulk-schedule.

        Returns the arrival count.  See the module docstring for how
        this differs from :meth:`drive` in RNG consumption.
        """
        return _drive_bulk(self, env, store, horizon_s, make_item)


class NonHomogeneousPoisson:
    """Poisson process with time-varying rate, via Lewis-Shedler thinning.

    ``rate_fn(t)`` gives instantaneous arrivals/second; ``rate_max``
    must dominate it over the horizon of interest (checked lazily —
    a violation raises rather than silently under-sampling).
    """

    def __init__(self, rate_fn: typing.Callable[[float], float],
                 rate_max: float, rng: np.random.Generator):
        if rate_max <= 0:
            raise ValueError(f"rate_max must be positive, got {rate_max}")
        self.rate_fn = rate_fn
        self.rate_max = float(rate_max)
        self.rng = rng

    def _check(self, rate: float, t: float) -> float:
        if rate > self.rate_max * (1 + 1e-9):
            raise ValueError(
                f"rate_fn({t:.1f}) = {rate:.3f} exceeds rate_max "
                f"{self.rate_max}; thinning bound violated")
        return rate

    def times(self, horizon_s: float) -> np.ndarray:
        """All arrival instants in [0, horizon)."""
        out = []
        t = 0.0
        while True:
            t += self.rng.exponential(1.0 / self.rate_max)
            if t >= horizon_s:
                break
            rate = self._check(self.rate_fn(t), t)
            if self.rng.random() < rate / self.rate_max:
                out.append(t)
        return np.array(out)

    def drive(self, env: Environment, store: Store,
              make_item: typing.Callable[[float], object] = lambda t: t):
        """Process generator: thinned arrivals into ``store``."""
        while True:
            yield env.timeout(self.rng.exponential(1.0 / self.rate_max))
            rate = self._check(self.rate_fn(env.now), env.now)
            if self.rng.random() < rate / self.rate_max:
                yield store.put(make_item(env.now))

    def drive_bulk(self, env: Environment, store: Store,
                   horizon_s: float,
                   make_item: typing.Callable[[float], object]
                   = lambda t: t) -> int:
        """Pre-thin the train to ``now + horizon_s``; bulk-schedule.

        Note: the rate function is evaluated at offsets from the call
        time (``times`` samples on [0, horizon)), so drive_bulk at
        t > 0 shifts the profile — call it at t = 0 or pass a rate
        function aware of the offset.
        """
        return _drive_bulk(self, env, store, horizon_s, make_item)


class MMPPArrivals:
    """Markov-modulated Poisson process.

    The modulating chain holds in state ``i`` for Exp(hold_s[i]) and
    then jumps according to ``transition[i]``; while in state ``i``
    arrivals are Poisson with ``rates_per_s[i]``.  Two states with a
    10:1 rate ratio make a serviceable burst model.
    """

    def __init__(self, rates_per_s: typing.Sequence[float],
                 hold_s: typing.Sequence[float],
                 transition: typing.Sequence[typing.Sequence[float]],
                 rng: np.random.Generator):
        rates = [float(r) for r in rates_per_s]
        holds = [float(h) for h in hold_s]
        matrix = np.asarray(transition, dtype=float)
        if len(rates) != len(holds) or matrix.shape != (len(rates), len(rates)):
            raise ValueError("inconsistent MMPP dimensions")
        if any(r < 0 for r in rates) or any(h <= 0 for h in holds):
            raise ValueError("rates must be >= 0 and holds > 0")
        if not np.allclose(matrix.sum(axis=1), 1.0):
            raise ValueError("transition rows must sum to 1")
        self.rates = rates
        self.holds = holds
        self.transition = matrix
        self.rng = rng

    def times(self, horizon_s: float) -> np.ndarray:
        """All arrival instants in [0, horizon)."""
        out: list[float] = []
        state = 0
        t = 0.0
        while t < horizon_s:
            dwell = self.rng.exponential(self.holds[state])
            end = min(t + dwell, horizon_s)
            rate = self.rates[state]
            if rate > 0:
                tau = t
                while True:
                    tau += self.rng.exponential(1.0 / rate)
                    if tau >= end:
                        break
                    out.append(tau)
            t = end
            state = int(self.rng.choice(len(self.rates),
                                        p=self.transition[state]))
        return np.array(out)

    def drive_bulk(self, env: Environment, store: Store,
                   horizon_s: float,
                   make_item: typing.Callable[[float], object]
                   = lambda t: t) -> int:
        """Pre-sample the modulated train; bulk-schedule the puts."""
        return _drive_bulk(self, env, store, horizon_s, make_item)

    def burstiness_index(self, horizon_s: float,
                         window_s: float = 60.0) -> float:
        """Index of dispersion of counts: Var/Mean per window.

        1.0 for Poisson; > 1 indicates burstiness.  Used by tests to
        confirm the model actually produces bursty traffic.
        """
        arrivals = self.times(horizon_s)
        edges = np.arange(0.0, horizon_s + window_s, window_s)
        counts, _ = np.histogram(arrivals, bins=edges)
        mean = counts.mean()
        if mean == 0:
            return 0.0
        return float(counts.var() / mean)
