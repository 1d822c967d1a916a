"""Diurnal demand shapes (paper Figure 3).

§3: "the number of users in the early afternoon is almost twice as
much as those after midnight, and the total demand in weekdays are
higher than that in weekends.  We can also see the flash crowd
effects, where a large number of users login in a short period of
time."

The Messenger production trace does not exist outside Microsoft; this
module re-synthesizes it from the *shapes* the paper reports (see
DESIGN.md, Substitutions).  Everything is deterministic given a seed.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.sim import RandomStreams

__all__ = ["DiurnalProfile", "MessengerTraceGenerator", "WorkloadTrace",
           "declared_demand"]

_HOUR_S = 3600.0
_DAY_S = 86_400.0
_WEEK_S = 7 * _DAY_S


class DiurnalProfile:
    """Deterministic demand shape over a week, normalized to peak 1.0.

    Parameters
    ----------
    day_night_ratio:
        Early-afternoon demand over after-midnight demand (paper: ≈ 2).
    weekend_factor:
        Weekend demand relative to weekday demand (paper: < 1).
    peak_hour / trough_hour:
        Local times of the diurnal extremes.
    """

    def __init__(self, day_night_ratio: float = 2.0,
                 weekend_factor: float = 0.8,
                 peak_hour: float = 14.0,
                 trough_hour: float = 4.0):
        if day_night_ratio <= 1.0:
            raise ValueError("day/night ratio must exceed 1")
        if not 0.0 < weekend_factor <= 1.0:
            raise ValueError("weekend factor must be in (0, 1]")
        self.day_night_ratio = float(day_night_ratio)
        self.weekend_factor = float(weekend_factor)
        self.peak_hour = float(peak_hour)
        self.trough_hour = float(trough_hour)
        # Sinusoid 1 + a·cos(...) has ratio (1+a)/(1-a) = R  =>  a.
        self._amplitude = (day_night_ratio - 1.0) / (day_night_ratio + 1.0)

    def hour_of_day_factor(self, t_s: float) -> float:
        """Diurnal multiplier at simulation time ``t_s`` (t=0 is
        midnight Monday)."""
        hour = (t_s % _DAY_S) / _HOUR_S
        phase = 2 * math.pi * (hour - self.peak_hour) / 24.0
        return 1.0 + self._amplitude * math.cos(phase)

    def day_of_week_factor(self, t_s: float) -> float:
        """Weekday/weekend multiplier (day 0 = Monday)."""
        day = int(t_s // _DAY_S) % 7
        return self.weekend_factor if day >= 5 else 1.0

    def __call__(self, t_s: float) -> float:
        """Demand shape at ``t_s``, normalized so the weekly peak is 1."""
        raw = self.hour_of_day_factor(t_s) * self.day_of_week_factor(t_s)
        return raw / (1.0 + self._amplitude)


def declared_demand(cfg: dict, capacity: float):
    """Build a demand callable from a picklable declaration.

    ``cfg`` is ``{"kind": "constant"|"diurnal", "fraction": f}`` with
    the fraction relative to ``capacity`` (default: constant at 0.5).
    ``diurnal`` modulates by :class:`DiurnalProfile`, which is already
    normalized to a weekly peak of 1, so ``fraction`` is the peak
    demand as a capacity fraction.  The same declaration drives a
    sweep point, a sharded run, or a plain co-simulation, because it
    crosses process boundaries where a callable cannot.
    """
    fraction = float(cfg.get("fraction", 0.5))
    kind = cfg.get("kind", "constant")
    if kind == "constant":
        level = fraction * capacity

        def fn(t: float) -> float:
            return level
    elif kind == "diurnal":
        profile = DiurnalProfile()
        scale = fraction * capacity

        def fn(t: float) -> float:
            return scale * profile(t)
    else:
        raise ValueError(f"unknown demand kind {kind!r}")
    return fn


@dataclasses.dataclass
class WorkloadTrace:
    """A sampled demand trace (Figure 3 data product).

    Attributes
    ----------
    times_s:
        Sample times.
    login_rate:
        New-user login rate at each sample (users/second).
    connections:
        Concurrent connection count at each sample.
    """

    times_s: np.ndarray
    login_rate: np.ndarray
    connections: np.ndarray

    def __post_init__(self):
        n = len(self.times_s)
        if len(self.login_rate) != n or len(self.connections) != n:
            raise ValueError("trace arrays must have equal length")

    @property
    def step_s(self) -> float:
        """Sampling interval (assumes a regular grid)."""
        if len(self.times_s) < 2:
            return 0.0
        return float(self.times_s[1] - self.times_s[0])

    def normalized(self, peak_connections: float = 1_000_000.0,
                   peak_login_rate: float = 1_400.0) -> "WorkloadTrace":
        """Rescale to the paper's normalization (1 M users, 1400/s)."""
        conn_scale = peak_connections / self.connections.max()
        rate_scale = peak_login_rate / self.login_rate.max()
        return WorkloadTrace(self.times_s,
                             self.login_rate * rate_scale,
                             self.connections * conn_scale)

    def window(self, start_s: float, end_s: float) -> "WorkloadTrace":
        """Slice the trace to [start_s, end_s)."""
        mask = (self.times_s >= start_s) & (self.times_s < end_s)
        return WorkloadTrace(self.times_s[mask], self.login_rate[mask],
                             self.connections[mask])

    def mean_over_hours(self, start_hour: float, end_hour: float,
                        field: str = "connections",
                        weekdays_only: bool = False) -> float:
        """Average a field over a daily local-time window.

        Used by tests and benchmarks to check the Figure 3 shapes
        (e.g. early-afternoon vs after-midnight connection counts).
        """
        values = getattr(self, field)
        hours = (self.times_s % _DAY_S) / _HOUR_S
        mask = (hours >= start_hour) & (hours < end_hour)
        if weekdays_only:
            day = (self.times_s // _DAY_S).astype(int) % 7
            mask &= day < 5
        if not mask.any():
            raise ValueError("window selects no samples")
        return float(values[mask].mean())


class MessengerTraceGenerator:
    """Synthesize a Messenger-like weekly trace (login rate + users).

    The generator is a fluid model: logins arrive at a modulated rate
    and sessions end at rate ``connections / mean_session_s``, so

        dN/dt = λ(t) − N(t) / T_session.

    On top of the deterministic diurnal/weekly shape we add smooth
    multiplicative noise (AR(1) in log space) and optional flash
    crowds — short multiplicative spikes of the *login rate*, matching
    the sharp spikes in the paper's Figure 3 lower trace.
    """

    def __init__(self, profile: DiurnalProfile | None = None,
                 base_login_rate: float = 1_000.0,
                 mean_session_s: float = 7_200.0,
                 noise_sigma: float = 0.05,
                 noise_correlation: float = 0.97,
                 flash_crowds_per_week: float = 2.0,
                 flash_magnitude: tuple[float, float] = (3.0, 8.0),
                 flash_duration_s: tuple[float, float] = (600.0, 1_800.0),
                 seed: int = 0):
        if base_login_rate <= 0:
            raise ValueError("base login rate must be positive")
        if mean_session_s <= 0:
            raise ValueError("mean session must be positive")
        if not 0.0 <= noise_correlation < 1.0:
            raise ValueError("noise correlation must be in [0, 1)")
        # The session filter (time constant = mean session) damps the
        # diurnal amplitude of *connections* relative to the login
        # rate, so the default login profile swings harder than 2:1 to
        # land the paper's ≈2:1 connection-count swing after damping.
        self.profile = profile or DiurnalProfile(day_night_ratio=2.4)
        self.base_login_rate = float(base_login_rate)
        self.mean_session_s = float(mean_session_s)
        self.noise_sigma = float(noise_sigma)
        self.noise_correlation = float(noise_correlation)
        self.flash_crowds_per_week = float(flash_crowds_per_week)
        self.flash_magnitude = flash_magnitude
        self.flash_duration_s = flash_duration_s
        self.streams = RandomStreams(seed)

    def _flash_envelope(self, times: np.ndarray,
                        duration_s: float) -> np.ndarray:
        """Multiplier envelope of flash-crowd spikes over the horizon."""
        rng = self.streams.get("flash")
        envelope = np.ones_like(times)
        expected = self.flash_crowds_per_week * duration_s / _WEEK_S
        count = rng.poisson(expected)
        for _ in range(count):
            start = rng.uniform(0.0, duration_s)
            length = rng.uniform(*self.flash_duration_s)
            magnitude = rng.uniform(*self.flash_magnitude)
            ramp = length * 0.2
            # Fast ramp up, plateau, fast ramp down.
            rel = (times - start)
            up = np.clip(rel / ramp, 0.0, 1.0)
            down = np.clip((length - rel) / ramp, 0.0, 1.0)
            bump = np.clip(np.minimum(up, down), 0.0, 1.0)
            envelope = np.maximum(envelope, 1.0 + (magnitude - 1.0) * bump)
        return envelope

    def _noise(self, n: int) -> np.ndarray:
        """Smooth multiplicative noise (lognormal AR(1))."""
        if self.noise_sigma == 0.0:
            return np.ones(n)
        rng = self.streams.get("noise")
        rho = self.noise_correlation
        innovations = rng.normal(0.0, self.noise_sigma * math.sqrt(1 - rho**2),
                                 size=n)
        log_noise = np.empty(n)
        log_noise[0] = rng.normal(0.0, self.noise_sigma)
        for i in range(1, n):
            log_noise[i] = rho * log_noise[i - 1] + innovations[i]
        return np.exp(log_noise)

    def generate(self, duration_s: float = _WEEK_S,
                 step_s: float = 60.0) -> WorkloadTrace:
        """Produce a trace of ``duration_s`` at ``step_s`` resolution."""
        if duration_s <= 0 or step_s <= 0:
            raise ValueError("duration and step must be positive")
        times = np.arange(0.0, duration_s, step_s)
        shape = np.array([self.profile(t) for t in times])
        rate = self.base_login_rate * shape * self._noise(len(times))
        rate *= self._flash_envelope(times, duration_s)

        # Fluid integration of the session balance.
        connections = np.empty_like(rate)
        decay = math.exp(-step_s / self.mean_session_s)
        # Start at the steady state for the initial rate.
        n = rate[0] * self.mean_session_s
        for i, lam in enumerate(rate):
            target = lam * self.mean_session_s
            n = target + (n - target) * decay
            connections[i] = n
        return WorkloadTrace(times, rate, connections)
