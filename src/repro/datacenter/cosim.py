"""End-to-end cyber-physical co-simulation (the Figure 4 testbench).

:class:`CoSimulation` closes every loop the paper describes in one
harness: workload drives the farm, the farm's servers heat zones and
load the power tree, CRACs chase the heat on their slow schedule, the
PUE meter watches everything, and — optionally — a
:class:`~repro.core.manager.MacroResourceManager` coordinates.

Running the same workload with the manager on and off is the FIG-4
experiment: macro-coordination versus a statically provisioned,
locally-controlled facility.  Passing a
:class:`~repro.core.faults.FaultSchedule` turns the same pair into the
resilience experiment: the coordinated facility detects capacity loss,
degrades gracefully, and recovers, while the static one rides into
thermal protective shutdowns — and the :class:`CoSimResult` carries a
:class:`~repro.core.faults.ResilienceReport` quantifying both.
"""

from __future__ import annotations

import dataclasses
import math
import typing

from repro.control.farm import ServerFarm
from repro.controlplane import (
    ControlPlane,
    ControlPlaneProfile,
    ControlPlaneReport,
)
from repro.core.faults import (
    FaultDomainEngine,
    FaultSchedule,
    ResilienceReport,
)
from repro.core.manager import MacroResourceManager
from repro.core.sla import SLA, SLAReport
from repro.datacenter.spec import DataCenter, DataCenterSpec
from repro.sim import Environment, RandomStreams

__all__ = ["CoSimulation", "CoSimResult"]


@dataclasses.dataclass
class CoSimResult:
    """Summary of one co-simulation run."""

    duration_s: float
    it_energy_j: float
    facility_energy_j: float
    energy_weighted_pue: float
    mean_active_servers: float
    sla: SLAReport
    thermal_alarms: int
    peak_grid_w: float
    #: Incident summary; ``None`` when no fault schedule was injected.
    resilience: ResilienceReport | None = None
    #: Bus/watchdog accounting; ``None`` without a control plane.
    controlplane: ControlPlaneReport | None = None

    @property
    def facility_kwh(self) -> float:
        return self.facility_energy_j / 3.6e6


def _merge_windows(
        windows: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Union of possibly-overlapping intervals."""
    merged: list[tuple[float, float]] = []
    for start, end in sorted(windows):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


class CoSimulation:
    """Wire a DataCenter + workload (+ optional macro manager)."""

    def __init__(self, spec: DataCenterSpec,
                 demand_fn: typing.Callable[[float], float],
                 managed: bool = True,
                 initial_active: int | None = None,
                 sla: SLA | None = None,
                 physical_step_s: float = 60.0,
                 manager_kwargs: dict | None = None,
                 fault_schedule: FaultSchedule | None = None,
                 streams: RandomStreams | None = None,
                 control_plane: ControlPlaneProfile | None = None,
                 power_budget_w: float | None = None,
                 tracer=None,
                 fault_engine_kwargs: dict | None = None):
        if physical_step_s <= 0:
            raise ValueError("physical step must be positive")
        self.env = Environment()
        #: Optional flight recorder (:class:`repro.obs.Tracer`).  Bound
        #: before any plant is built so every subsystem sees it; a
        #: ``None`` tracer leaves all hot paths on their untraced
        #: branches and the run bit-identical to an uninstrumented one.
        self.tracer = tracer.bind(self.env) if tracer is not None else None
        self.dc: DataCenter = spec.build(self.env)
        self.demand_fn = demand_fn
        self.physical_step_s = float(physical_step_s)
        self.sla = sla or SLA("cosim")

        # Bring up the initial fleet synchronously through the fleet's
        # transition kernel (one timer, column updates, bit-identical
        # to per-server power_on).
        n_start = (spec.total_servers if initial_active is None
                   else initial_active)
        booting = self.dc.servers[:n_start]
        if booting:
            booting[0]._fleet.start_many([s._idx for s in booting])
        self.env.run(until=spec.boot_s + 1.0)

        self.farm = ServerFarm(self.env, self.dc.servers,
                               demand_fn=demand_fn,
                               dispatch_period_s=30.0)

        # Control plane between the plant and the managers.  A perfect
        # plane draws no RNG, schedules no events and records no
        # command, so it is built for its report only and wired
        # nowhere: the managers take the fleet kernels, as with no
        # plane.  An impaired profile makes the managers operate on
        # believed state over lossy telemetry and fallible actuation.
        self.control_plane: ControlPlane | None = None
        wired: ControlPlane | None = None
        if control_plane is not None:
            self.control_plane = ControlPlane(
                self.env, self.dc.servers, profile=control_plane,
                streams=streams)
            if not self.control_plane.perfect:
                wired = self.control_plane
                wired.attach(farm=self.farm, room=self.dc.room)
                for proc in wired.processes():
                    self.env.process(proc)

        self.env.process(self.farm.run())
        self.env.process(self.dc.room.run())
        self.env.process(self._physical_loop())

        self.fault_engine: FaultDomainEngine | None = None
        if fault_schedule is not None:
            # ``fault_engine_kwargs`` tunes the engine (e.g. the
            # federation outage scenario forces
            # ``generator_start_probability=0.0`` so a utility outage
            # deterministically rides the battery into blackout).
            self.fault_engine = FaultDomainEngine(
                self.env, self.dc, fault_schedule, streams=streams,
                **(fault_engine_kwargs or {}))
            self.env.process(self.fault_engine.run())
            if not managed:
                # No manager to pre-drain hot zones: servers rely on
                # their own protective thermal sensors (§2.2).
                self.fault_engine.install_protective_trips()

        self.manager: MacroResourceManager | None = None
        if managed:
            self.manager = MacroResourceManager(
                self.farm, sla=self.sla,
                power_budget_w=(power_budget_w if power_budget_w
                                is not None
                                else self.dc.ups.steady_rating_w),
                room=self.dc.room,
                heat_by_zone_fn=self.dc.cluster.heat_by_zone,
                fault_engine=self.fault_engine,
                control_plane=wired,
                **(manager_kwargs or {}))
            self.env.process(self.manager.run())
        self._grid_peak_w = 0.0

    def _physical_loop(self):
        """Sync compute → power/heat → PUE on a fixed cadence."""
        cp = self.farm.control_plane
        while True:
            snapshot = self.dc.sync_physical()
            if snapshot["grid_w"] > self._grid_peak_w:
                self._grid_peak_w = snapshot["grid_w"]
            if cp is not None:
                # Zone temps + facility gauges cross the telemetry
                # network on the physical cadence.
                status = (self.fault_engine.status()
                          if self.fault_engine is not None else None)
                cp.publish_physical(status)
            yield self.env.timeout(self.physical_step_s)

    def _resilience_report(self, start: float,
                           end: float) -> ResilienceReport | None:
        engine = self.fault_engine
        if engine is None:
            return None
        records = tuple(r for r in engine.records if r.start_s < end)
        windows = _merge_windows(
            [(r.start_s, r.end_s if r.end_s is not None else end)
             for r in records])
        sla_during = None
        incident_energy = 0.0
        if windows:
            sla_during = self.sla.evaluate_windows(
                self.farm.delay_monitor, self.farm.offered_monitor,
                self.farm.shed_monitor, windows)
            incident_energy = sum(
                self.dc.pue.total_facility_energy_j(a, b)
                for a, b in windows)
        trips = sum(n for _, _, n in engine.protective_trips)
        degraded_s = 0.0
        transitions = 0
        if self.manager is not None:
            trips += sum(n for _, _, n in self.manager.thermal_shutdowns)
            degraded_s = self.manager.degraded_s(start, end)
            transitions = len(self.manager.mode_transitions)
        mttr = engine.mttr_s()
        return ResilienceReport(
            incident_count=len(records),
            incidents=records,
            mttr_s=mttr if not math.isnan(mttr) else 0.0,
            degraded_mode_s=degraded_s,
            mode_transitions=transitions,
            protective_shutdowns=trips,
            blackouts=len(engine.blackouts),
            sla_during_incidents=sla_during,
            incident_energy_j=incident_energy,
        )

    def run(self, duration_s: float) -> CoSimResult:
        """Advance the co-simulation and summarize the interval."""
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        start = self.env.now
        self.env.run(until=start + duration_s)
        return self.summarize(start, self.env.now, duration_s=duration_s)

    def summarize(self, start: float, end: float,
                  duration_s: float | None = None) -> CoSimResult:
        """Summarize an already-simulated ``[start, end]`` interval.

        :meth:`run` advances and summarizes in one call; drivers that
        step the environment themselves (the zone-sharded plant
        advances in macro-period lockstep) call this afterwards to get
        the same :class:`CoSimResult` for the interval they covered.
        ``duration_s`` overrides the reported duration (``run`` passes
        the requested value through exactly; ``end - start`` can pick
        up float rounding).
        """
        report = self.sla.evaluate(self.farm.delay_monitor,
                                   self.farm.offered_monitor,
                                   self.farm.shed_monitor, start, end)
        return CoSimResult(
            duration_s=duration_s if duration_s is not None
            else end - start,
            it_energy_j=self.dc.pue.it_monitor.integral(start, end),
            facility_energy_j=self.dc.pue.total_facility_energy_j(start, end),
            energy_weighted_pue=self.dc.pue.energy_weighted_pue(start, end),
            mean_active_servers=self.farm.active_monitor
            .time_weighted_mean(start, end),
            sla=report,
            thermal_alarms=len(self.dc.room.alarms),
            peak_grid_w=self._grid_peak_w,
            resilience=self._resilience_report(start, end),
            controlplane=(self.control_plane.report()
                          if self.control_plane is not None else None),
        )

    def summarize_work(self, start: float
                       ) -> tuple[CoSimResult, float, float]:
        """:meth:`summarize` ``[start, now]`` plus its work integrals.

        Returns ``(result, offered, shed)`` with offered and shed work
        in unit-seconds — the triple a zone shard hands
        :func:`~repro.datacenter.sharded.merge_results` and a
        federation site hands the work ledger.
        """
        end = self.env.now
        farm = self.farm
        return (self.summarize(start, end),
                farm.offered_monitor.integral(start, end),
                farm.shed_monitor.integral(start, end))
