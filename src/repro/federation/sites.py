"""Site-side runtime of the federation: one full plant per region.

A federation site is one whole :class:`~repro.datacenter.CoSimulation`
that accepts a routed demand level each macro period and reports back
one compact :class:`SiteSummary`.  Zone sharding is a separate concern
(:mod:`repro.datacenter.sharded`); a site is never cut.
:class:`SiteRuntime` has the ``ready()`` / ``advance(until, x)`` /
``finish()`` shape the worker supervisor
(:mod:`repro.datacenter.workers`) serves: in-process runs call it
directly, worker runs build it from the picklable :class:`SiteConfig`
inside the worker.  Only the config goes in and one eleven-field
summary per period comes out; the plant itself never leaves the
worker.

The summary's capacity field is the *healthy* capacity
(:meth:`~repro.datacenter.DataCenter.healthy_capacity`, installed
minus failed servers), the same column the zone-sharded plant
exchanges: what the site could serve once its manager wakes the
fleet, not what happens to be awake.  A site that lost half its fleet
to a blackout therefore reports the loss at the next sync point even
though its manager has also put the survivors to sleep.

Recovery is deterministic sim-time behaviour: a site whose fault
schedule has gone quiet repairs its blackout-failed servers at the
first subsequent sync boundary — modelling the ops crew walking the
aisles once the utility feed is back — so the router's recovery
hysteresis has something real to re-admit.
"""

from __future__ import annotations

import dataclasses
import math
import typing

from repro.cluster.server import ServerState
from repro.core.faults import FaultSchedule
from repro.core.forecast import ReactiveForecaster
from repro.datacenter.cosim import CoSimResult, CoSimulation
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
    """

    name: str
    spec: DataCenterSpec
    fault_schedule: FaultSchedule | None = None
    fault_engine_kwargs: typing.Mapping | None = None


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


class SiteRuntime:
    """Drives one site's managed plant between federation sync points.

    The site's :class:`~repro.core.manager.MacroResourceManager` gets
    a fresh :class:`~repro.core.forecast.ReactiveForecaster`: the
    demand a site sees is the router's assignment, held constant
    between sync points, so the default daily-seasonal Holt-Winters is
    the wrong model — its cold seasonal slots make the forecast
    collapse for ten minutes out of every thirty after a failover
    step, and the manager saws the fleet along with it.  Persistence
    is exact for a step held one period.
    """

    def __init__(self, cfg: SiteConfig):
        self.cfg = cfg
        self.level = 0.0  # routed demand, work units/s, set per period
        self.sim = CoSimulation(
            cfg.spec, lambda t: self.level,
            manager_kwargs={"forecaster": ReactiveForecaster()},
            fault_schedule=cfg.fault_schedule,
            fault_engine_kwargs=(dict(cfg.fault_engine_kwargs)
                                 if cfg.fault_engine_kwargs else None))
        self.start = self.now = self.sim.env.now
        self.installed = (cfg.spec.total_servers
                          * cfg.spec.server_capacity)

    def _summary(self, window_start: float) -> SiteSummary:
        dc = self.sim.dc
        engine = self.sim.fault_engine
        if engine is not None:
            status = engine.status()
            on_battery = status.on_battery
            incidents = len(status.active_incidents)
            failed = status.failed_servers
        else:
            on_battery = False
            incidents = 0
            failed = dc.cluster.count_in(ServerState.FAILED)
        it = facility = offered = shed = 0.0
        if window_start < self.now:
            it = dc.pue.it_monitor.integral(window_start, self.now)
            facility = dc.pue.total_facility_energy_j(window_start,
                                                      self.now)
            farm = self.sim.farm
            offered = farm.offered_monitor.integral(window_start,
                                                    self.now)
            shed = farm.shed_monitor.integral(window_start, self.now)
        return SiteSummary(
            site=self.cfg.name, time_s=self.now,
            installed_capacity=self.installed,
            healthy_capacity=dc.healthy_capacity(),
            awake_capacity=dc.cluster.total_effective_capacity(),
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
        window_start = self.now
        # The level is the assignment times the plant's capacity share
        # c / c == 1, not the bare assignment: x * c / c differs from x
        # in the last bit for some doubles, and the committed golden
        # results carry those bits.
        cap = self.sim.dc.healthy_capacity()
        if cap <= 0.0:
            cap = self.installed
        self.level = assigned_units * cap / cap
        self.sim.env.run(until=until)
        self._repair()
        self.now = until
        return self._summary(window_start)

    def _repair(self) -> None:
        """Repair failed servers once no incident is active.

        The fault engine's ``_clear`` restores the grid but leaves
        blackout victims FAILED; this is the deterministic ops-crew
        sweep that brings them back at the next sync boundary.
        """
        engine = self.sim.fault_engine
        if engine is None or engine.active_incidents():
            return
        plant = self.sim.dc.cluster.plant
        rows = plant.rows_in((ServerState.FAILED,))
        if rows.size:
            plant.park_many(rows, ServerState.OFF)

    def finish(self) -> tuple[CoSimResult, float, float]:
        """The site result plus its offered/shed integrals."""
        return self.sim.summarize_work(self.start)
