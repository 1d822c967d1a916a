"""Site-side runtime of the federation: one full plant per region.

A federation site is a whole :class:`~repro.datacenter.CoSimulation`
(optionally cut into in-process zone shards — the site worker is a
daemon process and cannot spawn grandchildren) that accepts a routed
demand level each macro period and reports back one compact
:class:`SiteSummary`.  :class:`SiteRuntime` has the
``ready()`` / ``advance(until, x)`` / ``finish()`` shape the worker
supervisor (:mod:`repro.datacenter.workers`) serves: in-process runs
call it directly, worker runs build it from the picklable
:class:`SiteConfig` inside the worker.  Only the config goes in and
one eleven-field summary per period comes out; the plant itself never
leaves the worker.

The summary's capacity field is the *healthy* capacity (installed
minus failed servers), the same column the zone-sharded plant
exchanges: what the site could serve once its manager wakes the
fleet, not what happens to be awake.  A site that lost half its fleet
to a blackout therefore reports the loss at the next sync point even
though its manager has also put the survivors to sleep.

Recovery is deterministic sim-time behaviour: with ``auto_repair``
(default), a site whose fault schedule has gone quiet repairs its
blackout-failed servers at the first subsequent sync boundary —
modelling the ops crew walking the aisles once the utility feed is
back — so the router's recovery hysteresis has something real to
re-admit.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import typing

from repro.cluster.server import ServerState
from repro.core.faults import FaultSchedule
from repro.core.forecast import ReactiveForecaster
from repro.datacenter.cosim import CoSimResult, CoSimulation
from repro.datacenter.sharded import (
    merge_results,
    partition_faults,
    partition_spec,
)
from repro.datacenter.spec import DataCenterSpec

__all__ = ["SiteConfig", "SiteSummary", "SiteRuntime"]


@dataclasses.dataclass(frozen=True)
class SiteConfig:
    """Everything a worker needs to build one site (picklable).

    ``fault_engine_kwargs`` passes through to the
    :class:`~repro.core.faults.FaultDomainEngine` — the outage
    scenarios force ``generator_start_probability=0.0`` so a utility
    outage deterministically rides the battery into blackout instead
    of drawing a generator start.

    ``manager_kwargs`` passes through to the site's
    :class:`~repro.core.manager.MacroResourceManager`.  Unless it
    names a ``forecaster``, federation sites get a
    :class:`~repro.core.forecast.ReactiveForecaster`: the demand a
    site sees is the router's assignment, held constant between sync
    points, so the default daily-seasonal Holt-Winters is the wrong
    model — its cold seasonal slots make the forecast collapse for
    ten minutes out of every thirty after a failover step, and the
    manager saws the fleet along with it.  Persistence is exact for a
    step held one period.
    """

    name: str
    spec: DataCenterSpec
    shards: int = 1
    managed: bool = True
    fault_schedule: FaultSchedule | None = None
    fault_engine_kwargs: typing.Mapping | None = None
    auto_repair: bool = True
    manager_kwargs: typing.Mapping | None = None

    def __post_init__(self):
        if self.shards < 1:
            raise ValueError("a site needs at least one shard")


class SiteSummary(typing.NamedTuple):
    """Per-period telemetry a site sends the global router."""

    site: str
    time_s: float
    #: Installed IT capacity (work units/s), the static denominator.
    installed_capacity: float
    #: Installed minus failed servers — what the site *could* serve.
    healthy_capacity: float
    #: Effective capacity of the currently awake fleet.
    awake_capacity: float
    on_battery: bool
    active_incidents: int
    failed_servers: int
    #: Energy-weighted PUE over the last macro period (NaN while the
    #: window has no IT energy, e.g. the very first period).
    window_pue: float
    #: Offered / shed work (unit-seconds) over the last macro period.
    window_offered: float
    window_shed: float


class _Plant:
    """One co-simulation (a whole site, or one zone shard of it)."""

    def __init__(self, spec: DataCenterSpec, managed: bool,
                 fault_schedule: FaultSchedule | None,
                 fault_engine_kwargs: typing.Mapping | None,
                 manager_kwargs: typing.Mapping | None = None):
        self.level = 0.0  # routed demand, work units/s, set per period
        # Deep-copied so every plant owns its forecaster/risk-model
        # state — the in-process reference path must match the worker
        # path, where pickling copies them anyway.
        mk = copy.deepcopy(dict(manager_kwargs)) if manager_kwargs else {}
        mk.setdefault("forecaster", ReactiveForecaster())
        self.sim = CoSimulation(
            spec, lambda t: self.level, managed=managed,
            manager_kwargs=(mk if managed else None),
            fault_schedule=fault_schedule,
            fault_engine_kwargs=(dict(fault_engine_kwargs)
                                 if fault_engine_kwargs else None))
        self.start = self.sim.env.now

    def healthy_capacity(self) -> float:
        dc = self.sim.dc
        failed = dc.cluster.count_in(ServerState.FAILED)
        return (dc.spec.total_servers - failed) * dc.spec.server_capacity

    def auto_repair(self) -> None:
        """Repair failed servers once no incident is active.

        The fault engine's ``_clear`` restores the grid but leaves
        blackout victims FAILED; this is the deterministic ops-crew
        sweep that brings them back at the next sync boundary.
        """
        engine = self.sim.fault_engine
        if engine is None or engine.active_incidents():
            return
        for server in self.sim.dc.servers:
            if server.state is ServerState.FAILED:
                server.repair()

    def finish(self) -> tuple[CoSimResult, float, float]:
        end = self.sim.env.now
        result = self.sim.summarize(self.start, end)
        offered = self.sim.farm.offered_monitor.integral(self.start, end)
        shed = self.sim.farm.shed_monitor.integral(self.start, end)
        return result, offered, shed


class SiteRuntime:
    """Drives one site's plant(s) between federation sync points.

    With ``shards > 1`` the site runs as in-process zone shards (cut
    by the same :func:`~repro.datacenter.sharded.partition_spec` /
    :func:`~repro.datacenter.sharded.partition_faults` machinery) and
    the routed level is redistributed across them by healthy capacity
    at every sync point, exactly like the sharded plant's driver.
    """

    def __init__(self, cfg: SiteConfig):
        self.cfg = cfg
        if cfg.shards == 1:
            specs = [cfg.spec]
            faults: list[FaultSchedule | None] = [cfg.fault_schedule]
        else:
            specs = partition_spec(cfg.spec, cfg.shards)
            if cfg.fault_schedule is None:
                faults = [None] * len(specs)
            else:
                faults = list(partition_faults(cfg.spec, specs,
                                               cfg.fault_schedule))
        self.plants = [_Plant(spec, cfg.managed, sched,
                              cfg.fault_engine_kwargs,
                              cfg.manager_kwargs)
                       for spec, sched in zip(specs, faults)]
        starts = {p.start for p in self.plants}
        if len(starts) != 1:  # pragma: no cover - spec invariant
            raise RuntimeError(f"shards disagree on start: {starts}")
        self.now = starts.pop()
        self.installed = (cfg.spec.total_servers
                          * cfg.spec.server_capacity)

    def _summary(self, window_start: float) -> SiteSummary:
        healthy = 0.0
        awake = 0.0
        on_battery = False
        incidents = 0
        failed = 0
        it = 0.0
        facility = 0.0
        offered = 0.0
        shed = 0.0
        for plant in self.plants:
            healthy += plant.healthy_capacity()
            awake += plant.sim.dc.cluster.total_effective_capacity()
            engine = plant.sim.fault_engine
            if engine is not None:
                status = engine.status()
                on_battery = on_battery or status.on_battery
                incidents += len(status.active_incidents)
                failed += status.failed_servers
            else:
                failed += plant.sim.dc.cluster.count_in(
                    ServerState.FAILED)
            if window_start < self.now:
                pue = plant.sim.dc.pue
                it += pue.it_monitor.integral(window_start, self.now)
                facility += pue.total_facility_energy_j(
                    window_start, self.now)
                farm = plant.sim.farm
                offered += farm.offered_monitor.integral(
                    window_start, self.now)
                shed += farm.shed_monitor.integral(
                    window_start, self.now)
        return SiteSummary(
            site=self.cfg.name, time_s=self.now,
            installed_capacity=self.installed,
            healthy_capacity=healthy, awake_capacity=awake,
            on_battery=on_battery, active_incidents=incidents,
            failed_servers=failed,
            window_pue=(facility / it if it > 0.0 else math.nan),
            window_offered=offered, window_shed=shed)

    def ready(self) -> SiteSummary:
        """The pre-first-period summary (boot-time state)."""
        return self._summary(self.now)

    def advance(self, until: float, assigned_units: float) -> SiteSummary:
        """Serve ``assigned_units`` until ``until``; report back."""
        if until <= self.now:
            raise ValueError("advance target must move time forward")
        caps = [p.healthy_capacity() for p in self.plants]
        total = sum(caps)
        if total <= 0.0:
            caps = [p.sim.dc.spec.total_servers
                    * p.sim.dc.spec.server_capacity
                    for p in self.plants]
            total = sum(caps)
        window_start = self.now
        for plant, cap in zip(self.plants, caps):
            plant.level = assigned_units * cap / total
            plant.sim.env.run(until=until)
        if self.cfg.auto_repair:
            for plant in self.plants:
                plant.auto_repair()
        self.now = until
        return self._summary(window_start)

    def finish(self) -> tuple[CoSimResult, float, float]:
        """Merged site result plus its offered/shed integrals."""
        finished = [p.finish() for p in self.plants]
        if len(finished) == 1:
            return finished[0]
        duration = self.now - self.plants[0].start
        merged = merge_results(finished, duration)
        offered = sum(f[1] for f in finished)
        shed = sum(f[2] for f in finished)
        return merged, offered, shed
