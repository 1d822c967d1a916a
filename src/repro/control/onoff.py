"""Sleep / On-Off provisioning controllers (paper §4.3).

Two flavors:

* :class:`DelayBasedOnOff` — the *DVS-oblivious* controller of the
  §5.1 case study [29]: it watches measured response time only.  High
  delay ⇒ add a machine; low delay ⇒ remove one.  It cannot tell
  "CPUs slowed by DVFS" from "not enough machines", which is exactly
  what makes its composition with a DVFS policy pathological.
* :class:`ForecastOnOff` — energy-aware provisioning in the spirit of
  Chen et al. [18]: size the fleet from forecast demand and target
  utilization, with a spare margin covering the wake-up latency and
  hysteresis so machines are not churned (the §4.3 caveat that waking
  "may consume more energy and offset the benefit of sleeping").

Both prefer waking SLEEPING machines over booting OFF ones and drain
via the load balancer implicitly (the farm re-dispatches next tick).
Every actuation takes one of two paths: an attached (impaired) control
plane's per-command path, or the vector fleet's transition kernels
(``start_many``/``park_many``), one call per decision, traced as
``via="controlplane"`` and ``via="fleet"`` respectively.
"""

from __future__ import annotations

import math

from repro.control.farm import ServerFarm
from repro.sim import Monitor

__all__ = ["DelayBasedOnOff", "ForecastOnOff"]


def _trace_activate(farm: ServerFarm, name: str | None,
                    via: str) -> None:
    """Flight-recorder hook: one wake/boot landed (no-op untraced)."""
    tracer = farm.env.tracer
    if tracer is not None:
        tracer.event("onoff.activate", "actuation", server=name, via=via)


def _trace_deactivate(farm: ServerFarm, name: str | None,
                      to_sleep: bool, via: str) -> None:
    """Flight-recorder hook: one sleep/shutdown landed."""
    tracer = farm.env.tracer
    if tracer is not None:
        tracer.event("onoff.deactivate", "actuation", server=name,
                     to_sleep=to_sleep, via=via)


def _activate_many(farm: ServerFarm, count: int) -> int:
    """Wake (preferred) or boot up to ``count`` machines; returns how
    many were started.

    Skips servers in quarantined zones — a zone whose cooling is down
    must not receive fresh capacity, or the controller re-creates the
    thermal hazard the macro layer just drained.

    One scan of the state column picks the lowest SLEEPING rows, then
    the lowest OFF rows — the same choice as ``count`` repeated single
    picks, since starting a server only removes *it* from the
    candidates, and one that keeps the active rows a contiguous run —
    and the fleet's transition kernel starts them all.  With an
    impaired :class:`~repro.controlplane.ControlPlane` attached, the
    plane makes the same one-scan choice on *believed* state and each
    command has to survive the actuation network.  (A perfect plane is
    attached to nothing, so it takes the kernel path.)
    """
    if count <= 0:
        return 0
    quarantined = farm.quarantined_zones
    cp = farm.control_plane
    if cp is not None:
        started = cp.activate_many(quarantined, count)
        for server in started:
            _trace_activate(farm, server.name, "controlplane")
        return len(started)
    rows = farm.fleet.start_startable(quarantined, count)
    if farm.env.tracer is not None:
        for i in rows.tolist():
            _trace_activate(farm, farm.servers[i].name, "fleet")
    return rows.size


def _deactivate_many(farm: ServerFarm, to_sleep: bool, count: int) -> int:
    """Drain and sleep/shut up to ``count`` machines from the tail.

    The victims are the highest ACTIVE rows, back to front — what
    ``count`` repeated single-victim picks of the last active server
    take — stopped in one transition-kernel call; through an impaired
    control plane, the believed-ACTIVE tail, one command per victim.
    Never scales below one active server.
    """
    if count <= 0:
        return 0
    cp = farm.control_plane
    if cp is not None:
        stopped = cp.deactivate_many(to_sleep, count)
        for server in stopped:
            _trace_deactivate(farm, server.name, to_sleep, "controlplane")
        return len(stopped)
    rows = farm.fleet.stop_tail(count, to_sleep)
    if farm.env.tracer is not None:
        for i in rows.tolist():
            _trace_deactivate(farm, farm.servers[i].name, to_sleep,
                              "fleet")
    return rows.size


class DelayBasedOnOff:
    """Threshold controller on measured response time (DVS-oblivious)."""

    def __init__(self, farm: ServerFarm, period_s: float = 120.0,
                 high_delay_s: float = 0.08, low_delay_s: float = 0.03,
                 to_sleep: bool = True):
        if period_s <= 0:
            raise ValueError("period must be positive")
        if low_delay_s >= high_delay_s:
            raise ValueError("low threshold must be below high threshold")
        self.farm = farm
        self.period_s = float(period_s)
        self.high_delay_s = float(high_delay_s)
        self.low_delay_s = float(low_delay_s)
        self.to_sleep = to_sleep
        self.action_monitor = Monitor(farm.env, "onoff.action")

    def decide(self) -> int:
        """One decision: +1 added a machine, −1 removed, 0 held."""
        delay = self.farm.mean_response_time_s()
        if delay > self.high_delay_s:
            action = 1 if _activate_many(self.farm, 1) else 0
        elif delay < self.low_delay_s:
            action = -1 if _deactivate_many(self.farm, self.to_sleep,
                                            1) else 0
        else:
            action = 0
        self.action_monitor.record(action)
        return action

    def run(self):
        """Process generator: decide every period."""
        while True:
            self.decide()
            yield self.farm.env.timeout(self.period_s)


class ForecastOnOff:
    """Provision the fleet from forecast demand (Chen et al. style).

    needed = ceil(forecast / (per-server capacity × target util))
    plus ``spare`` machines of margin.  Scale-up is immediate;
    scale-down waits ``scale_down_after_s`` of sustained surplus
    (hysteresis), which is what keeps wake-up energy from eating the
    savings under a bouncy load.
    """

    def __init__(self, farm: ServerFarm,
                 forecast_fn=None,
                 period_s: float = 300.0,
                 target_utilization: float = 0.75,
                 spare: int = 1,
                 scale_down_after_s: float = 900.0,
                 to_sleep: bool = True):
        if period_s <= 0:
            raise ValueError("period must be positive")
        if not 0.0 < target_utilization <= 1.0:
            raise ValueError("target utilization must be in (0, 1]")
        if spare < 0:
            raise ValueError("spare cannot be negative")
        self.farm = farm
        self.forecast_fn = forecast_fn or (
            lambda t: farm.demand_fn(t + period_s))
        self.period_s = float(period_s)
        self.target_utilization = float(target_utilization)
        self.spare = int(spare)
        self.scale_down_after_s = float(scale_down_after_s)
        self.to_sleep = to_sleep
        self._surplus_since: float | None = None
        self.target_monitor = Monitor(farm.env, "forecast_onoff.target")

    def needed_servers(self, demand: float) -> int:
        """Fleet size for ``demand`` work units/s."""
        per_server = self.farm.servers[0].capacity * self.target_utilization
        return max(1, math.ceil(demand / per_server) + self.spare)

    def decide(self) -> int:
        """One decision; returns the target fleet size.

        Provisions against ``max(current, forecast)``: the forecast
        pulls scale-*up* ahead of ramps, but scale-*down* waits for the
        demand to actually fall — otherwise a long horizon that sees a
        future dip descales while current load is still high and sheds
        it (the premature-descale trap the ABL-HORIZON ablation
        documents).
        """
        now = self.farm.env.now
        demand = max(self.farm.demand_fn(now), self.forecast_fn(now))
        target = min(self.needed_servers(demand), len(self.farm.servers))
        self.target_monitor.record(target)
        # Machines already on their way up count toward the target.
        committed = self.farm.fleet.committed_count()
        if committed < target:
            self._surplus_since = None
            _activate_many(self.farm, target - committed)
        elif committed > target:
            if self._surplus_since is None:
                self._surplus_since = now
            if now - self._surplus_since >= self.scale_down_after_s:
                _deactivate_many(self.farm, self.to_sleep,
                                 committed - target)
        else:
            self._surplus_since = None
        return target

    def run(self):
        """Process generator: decide every period."""
        while True:
            self.decide()
            yield self.farm.env.timeout(self.period_s)
