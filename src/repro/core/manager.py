"""The macro-resource management layer (paper Figure 4).

    "A macro-resource management layer ... takes information such as
    service-level agreement (SLA), application structures, and
    environmental conditions, and physical facility constraints ...
    monitors the operation status from application, system, and
    physical data ... and makes decisions that affect power
    provisioning, cooling control, server allocation, service
    placement, load balancing, and job priorities."

:class:`MacroResourceManager` is that layer for one facility: it owns
a demand forecaster, a coordinated fleet/P-state controller, the
facility power capper, and (when a machine room is attached) thermal
protection + cooling-aware vetting.  Each decision cycle produces an
auditable :class:`MacroDecision`.

When a :class:`~repro.core.faults.FaultDomainEngine` is attached, the
manager also runs the paper's "diagnose possible failures" loop: on a
detected capacity loss it enters **degraded operations** — browning
out admission, tightening the power cap, forcing deeper P-states under
power incidents, and gracefully draining zones that are drifting
toward thermal alarm — then recovers with hysteresis once the facility
is healthy again.  Every mode transition lands in an incident log.
"""

from __future__ import annotations

import dataclasses
import typing

import numpy as np

from repro.cluster.server import ServerState
from repro.control.coordinator import CoordinatedController
from repro.control.farm import ServerFarm
from repro.cooling.room import MachineRoom, ThermalAlarm
from repro.core.cooling_aware import CoolingAwarePlacer
from repro.core.forecast import HoltWintersForecaster
from repro.core.sla import SLA, SLAReport
from repro.obs import AuditTrail
from repro.power.capping import PowerCapper
from repro.sim import Monitor

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.core.faults import FacilityStatus, FaultDomainEngine

__all__ = ["MacroResourceManager", "MacroDecision", "DegradedOpsPolicy"]


@dataclasses.dataclass(frozen=True)
class DegradedOpsPolicy:
    """Knobs for degraded operations (brownout / cap / drain / recover).

    Parameters
    ----------
    admission_fraction:
        Demand fraction admitted while degraded (brownout; refused
        work counts against the SLA).
    cap_margin:
        The capper budget is set to ``available power × cap_margin``
        while degraded, so the shrunken facility keeps a guard band.
    battery_cap_fraction:
        Extra budget tightening while riding the UPS battery, to
        stretch ride-through until the generator starts.
    pstate_floor:
        Minimum P-state depth forced while a *power* incident is
        active (deeper state = slower + cooler + cheaper).
    drain_margin_c:
        Zones within this many degrees of their alarm temperature are
        gracefully drained before the protective sensors trip.
    recovery_hold_s:
        Hysteresis: the facility must look healthy this long before
        degraded mode is exited.
    watchdog_quorum:
        Number of simultaneously watchdog-suspected servers that
        counts as a facility threat (only meaningful when a control
        plane with a watchdog is attached).
    """

    admission_fraction: float = 0.85
    cap_margin: float = 0.95
    battery_cap_fraction: float = 0.7
    pstate_floor: int = 1
    drain_margin_c: float = 3.0
    recovery_hold_s: float = 600.0
    watchdog_quorum: int = 1

    def __post_init__(self):
        if not 0.0 < self.admission_fraction <= 1.0:
            raise ValueError("admission fraction must be in (0, 1]")
        for frac in (self.cap_margin, self.battery_cap_fraction):
            if not 0.0 < frac <= 1.0:
                raise ValueError("cap fractions must be in (0, 1]")
        if self.pstate_floor < 0:
            raise ValueError("P-state floor cannot be negative")
        if self.drain_margin_c < 0 or self.recovery_hold_s < 0:
            raise ValueError("margins cannot be negative")
        if self.watchdog_quorum < 1:
            raise ValueError("watchdog quorum must be at least 1")


@dataclasses.dataclass(frozen=True)
class MacroDecision:
    """One decision cycle's outputs, for the audit trail."""

    time_s: float
    observed_demand: float
    forecast_demand: float
    target_fleet: int
    pstate: int
    capped: bool
    thermal_safe: bool
    sla_risk: float | None = None
    #: Operating mode this cycle ran in ("normal" / "degraded").
    mode: str = "normal"
    #: Facility incidents open at decision time (0 without an engine).
    active_incidents: int = 0
    #: Admission (brownout) fraction in force this cycle.
    admission_fraction: float = 1.0
    #: Servers gracefully drained from endangered zones this cycle.
    drained_servers: int = 0


class MacroResourceManager:
    """Coordinated cyber-physical control of one data center.

    Parameters
    ----------
    farm:
        The compute plant (servers + load balancer + demand).
    power_budget_w:
        Facility (UPS) budget the capper enforces; ``None`` disables
        capping.
    room:
        Thermal plant; enables protective shutdown on alarms and the
        cooling-aware safety check.
    heat_by_zone_fn:
        Callable returning the current {zone: watts} map (supplied by
        the co-simulation harness, which knows the rack layout).
    fault_engine:
        Optional :class:`~repro.core.faults.FaultDomainEngine` whose
        :meth:`status` the manager polls each cycle to diagnose
        facility-scale failures and drive degraded operations.
    degraded_policy:
        Degraded-operations knobs; defaults to
        :class:`DegradedOpsPolicy`'s defaults.
    control_plane:
        Optional impaired :class:`~repro.controlplane.ControlPlane`
        mediating every sensor reading and actuation command: it puts
        the manager on believed state and feeds watchdog suspicions
        into the degraded-ops threat calculus.  ``None`` (the default)
        reads ground truth and commands the fleet kernels directly.
        A perfect plane is never passed here —
        :class:`~repro.datacenter.cosim.CoSimulation` wires it nowhere,
        so its managers take the same kernels as with no plane.
    """

    def __init__(self, farm: ServerFarm,
                 sla: SLA | None = None,
                 power_budget_w: float | None = None,
                 room: MachineRoom | None = None,
                 heat_by_zone_fn: typing.Callable[[], dict] | None = None,
                 period_s: float = 300.0,
                 forecast_horizon_s: float = 600.0,
                 forecaster=None,
                 target_utilization: float = 0.8,
                 headroom: float = 1.1,
                 risk_model=None,
                 fault_engine: "FaultDomainEngine | None" = None,
                 degraded_policy: DegradedOpsPolicy | None = None,
                 control_plane=None):
        if period_s <= 0:
            raise ValueError("period must be positive")
        if forecast_horizon_s < 0:
            raise ValueError("forecast horizon cannot be negative")
        self.farm = farm
        self.env = farm.env
        self.control_plane = control_plane
        self.sla = sla or SLA("default")
        self.period_s = float(period_s)
        self.forecast_horizon_s = float(forecast_horizon_s)
        self.forecaster = forecaster or HoltWintersForecaster()
        self._forecast_ready = False

        self.coordinator = CoordinatedController(
            farm, period_s=period_s,
            target_utilization=target_utilization,
            headroom=headroom,
            demand_source=self._provision_signal)

        self.capper: PowerCapper | None = None
        if power_budget_w is not None:
            actuator = (control_plane.cap_actuator
                        if control_plane is not None else None)
            self.capper = PowerCapper(self.env, power_budget_w,
                                      farm.servers, actuator=actuator)

        self.room = room
        self.heat_by_zone_fn = heat_by_zone_fn
        self.placer = CoolingAwarePlacer(room) if room is not None else None
        if room is not None:
            room.on_alarm(self._handle_thermal_alarm)

        #: Optional :class:`~repro.core.risk.RiskModel`; when present
        #: each decision carries its predicted SLA-violation
        #: probability (the Figure 4 "predict performance impacts and
        #: risks" duty).
        self.risk_model = risk_model
        self.decisions: list[MacroDecision] = []
        self.forecast_monitor = Monitor(self.env, "macro.forecast")
        self.thermal_shutdowns: list[tuple[float, str, int]] = []

        # Degraded-operations state (the detect → degrade → recover loop).
        self.fault_engine = fault_engine
        self.degraded_policy = degraded_policy or DegradedOpsPolicy()
        self.mode = "normal"
        self._nominal_budget_w = power_budget_w
        self._clear_since: float | None = None
        #: Incident log: (time, from_mode, to_mode, reason).
        self.mode_transitions: list[tuple[float, str, str, str]] = []
        #: Drain log: (time, zone, servers drained).
        self.drains: list[tuple[float, str, int]] = []
        self.degraded_monitor = Monitor(self.env, "macro.degraded")
        self.degraded_monitor.record(0.0)

        #: Flight recorder wiring: when a tracer is bound to the
        #: environment before this manager is built, every decision
        #: cycle lands in a :class:`~repro.obs.AuditTrail` linking its
        #: actuations back to the observations that triggered them.
        #: ``None`` — the default — costs one attribute test per cycle.
        self.tracer = getattr(self.env, "tracer", None)
        self.audit: AuditTrail | None = (
            AuditTrail(self.tracer) if self.tracer is not None else None)

    # ------------------------------------------------------------------
    # Signals
    # ------------------------------------------------------------------
    def _provision_signal(self, t_s: float) -> float:
        """Demand signal the coordinator provisions against.

        Uses the forecast once it has warmed up; falls back to the
        instantaneous demand before that.
        """
        if self._forecast_ready:
            return self.forecaster.forecast(self.forecast_horizon_s)
        return self.farm.demand_fn(t_s)

    def _handle_thermal_alarm(self, alarm: ThermalAlarm) -> None:
        """§2.2 protective behaviour: servers in a hot zone trip off."""
        plant = self.farm.fleet.plant
        victims = plant.rows_in((ServerState.ACTIVE,), alarm.zone)
        if victims.size:
            plant.park_many(victims, ServerState.FAILED)
        self.thermal_shutdowns.append(
            (alarm.time_s, alarm.zone, int(victims.size)))

    # ------------------------------------------------------------------
    # Degraded operations (detect → degrade → recover, with hysteresis)
    # ------------------------------------------------------------------
    def _endangered_zones(self) -> list[str]:
        """Zones within the drain margin of their alarm temperature.

        Temperatures come through the control plane when one is
        attached — the manager drains on *believed* temperatures, so a
        stale sensor tier delays the pre-emptive drain exactly as it
        would in a real facility.
        """
        if self.room is None:
            return []
        cp = self.control_plane
        margin = self.degraded_policy.drain_margin_c
        if cp is not None:
            return [z.name for z in self.room.zones
                    if cp.zone_temp(z) >= z.alarm_temp_c - margin]
        room = self.room
        hot = room.temp_c >= room.alarm_temp_c - margin
        return [room.zones[i].name for i in np.flatnonzero(hot).tolist()]

    def _drain_zone(self, zone: str) -> int:
        """Gracefully shut down a zone's ACTIVE servers before they trip.

        Unlike the protective :meth:`_handle_thermal_alarm` path this
        is an orderly shutdown — load is released for re-dispatch and
        the machines land in OFF, ready to boot after recovery, rather
        than FAILED.
        """
        cp = self.control_plane
        if cp is None:
            plant = self.farm.fleet.plant
            rows = plant.rows_in((ServerState.ACTIVE,), zone)
            if rows.size:
                plant.park_many(rows, ServerState.OFF)
            drained = int(rows.size)
        else:
            drained = self._drain_zone_via_plane(cp, zone)
        if drained:
            self.drains.append((self.env.now, zone, drained))
            if self.tracer is not None:
                self.tracer.event("macro.drain_zone", "actuation",
                                  zone=zone, servers=drained)
        return drained

    def _drain_zone_via_plane(self, cp, zone: str) -> int:
        """The control plane's per-command zone drain: one SHUT_DOWN
        per server believed ACTIVE, in pool order."""
        victims = [s for s in self.farm.servers
                   if s.zone == zone
                   and cp.believed_state(s) is ServerState.ACTIVE]
        for server in victims:
            cp.shut_down(server)
        return len(victims)

    def _transition(self, to_mode: str, reason: str) -> None:
        self.mode_transitions.append(
            (self.env.now, self.mode, to_mode, reason))
        if self.tracer is not None:
            self.tracer.event("macro.mode_transition", "control",
                              from_mode=self.mode, to_mode=to_mode,
                              reason=reason)
        self.mode = to_mode
        self.degraded_monitor.record(1.0 if to_mode == "degraded" else 0.0)

    def _power_constrained(self, status: "FacilityStatus | None") -> bool:
        if status is None:
            return False
        if status.on_battery:
            return True
        return (self._nominal_budget_w is not None
                and status.power_capacity_w < self._nominal_budget_w)

    def _exit_degraded(self, reason: str) -> None:
        self.farm.admission_fraction = 1.0
        self.farm.quarantined_zones = set()
        if self.capper is not None and self._nominal_budget_w is not None:
            self.capper.budget_w = self._nominal_budget_w
        self._clear_since = None
        self._transition("normal", reason)

    def _apply_degradation(self,
                           status: "FacilityStatus | None") -> tuple[int, int]:
        """Run the mode machine; returns (active incidents, drained)."""
        now = self.env.now
        endangered = self._endangered_zones()
        # Watchdog suspicions (servers believed up but silent) are a
        # facility threat once they reach the configured quorum — the
        # "diagnose possible failures" input from the control plane.
        suspects = (self.control_plane.suspect_count()
                    if self.control_plane is not None else 0)
        suspected = suspects >= self.degraded_policy.watchdog_quorum
        threat = bool(endangered) or suspected or (
            status is not None
            and (status.active_incidents or status.on_battery))
        n_incidents = len(status.active_incidents) if status else 0

        if self.mode == "normal":
            if threat:
                reasons = [r.kind.value for r in status.active_incidents] \
                    if status else []
                reasons += [f"thermal:{z}" for z in endangered]
                if suspected:
                    reasons.append(f"watchdog:{suspects}")
                self._transition("degraded", ",".join(reasons) or "detected")
            else:
                return n_incidents, 0

        policy = self.degraded_policy
        self.farm.admission_fraction = policy.admission_fraction
        impaired = set(status.impaired_zones) if status else set()
        self.farm.quarantined_zones = impaired | set(endangered)
        drained = sum(self._drain_zone(z) for z in endangered)
        if self.capper is not None and self._nominal_budget_w is not None:
            available = (status.power_capacity_w if status is not None
                         else self._nominal_budget_w)
            if status is not None and status.on_battery:
                available *= policy.battery_cap_fraction
            self.capper.budget_w = min(self._nominal_budget_w,
                                       available * policy.cap_margin)

        if threat:
            self._clear_since = None
        elif self._clear_since is None:
            self._clear_since = now
        elif now - self._clear_since >= policy.recovery_hold_s:
            self._exit_degraded("facility healthy")
        return n_incidents, drained

    def _set_pstate_via_plane(self, cp, index: int) -> int:
        """The control plane's per-command P-state move: one SET_PSTATE
        per server believed ACTIVE; returns how many were commanded."""
        active = cp.believed_active(self.farm)
        for server in active:
            cp.set_pstate(server, index)
        return len(active)

    def degraded_s(self, start: float | None = None,
                   end: float | None = None) -> float:
        """Total time spent in degraded mode over an interval."""
        return self.degraded_monitor.integral(start, end)

    # ------------------------------------------------------------------
    # Decision cycle
    # ------------------------------------------------------------------
    def decide(self) -> MacroDecision:
        """One full macro cycle: observe → forecast → actuate → audit.

        With a tracer attached the cycle runs inside a ``macro.decide``
        span under a ``macro`` wall timer, and the audit trail records
        the cycle's observations and every actuation event emitted
        anywhere in the stack before it commits.
        """
        tracer = self.tracer
        if tracer is None:
            return self._decide()
        with tracer.timer("macro"), \
                tracer.span("macro.decide", "control"):
            return self._decide()

    def _observe_demand(self, now: float) -> float:
        """Demand as believed, logged into the open audit record."""
        cp = self.control_plane
        observed = (cp.observe_demand(now) if cp is not None
                    else self.farm.demand_fn(now))
        audit = self.audit
        if audit is not None:
            if cp is not None:
                # Re-read the estimator (pure) to capture the sample's
                # measurement time and staleness for the audit trail.
                reading = cp.telemetry.read("farm.demand")
                if not reading.missing:
                    audit.observe("farm.demand", observed,
                                  reading.time_s, reading.age_s,
                                  "telemetry")
                    return observed
            audit.observe("farm.demand", observed, now, 0.0, "direct")
        return observed

    def _audit_status(self, now: float,
                      status: "FacilityStatus | None") -> None:
        """Log facility gauges + threat context for this cycle."""
        audit = self.audit
        if audit is None:
            return
        cp = self.control_plane
        source = "telemetry" if cp is not None else "direct"
        domains: list[str] = []
        if status is not None:
            audit.observe("facility.capacity_w",
                          float(status.power_capacity_w), now, 0.0,
                          source)
            if status.on_battery:
                audit.observe("facility.on_battery", True, now, 0.0,
                              source)
            domains = [r.kind.value for r in status.active_incidents]
        suspects = (cp.suspect_count() if cp is not None else 0)
        audit.context(mode=self.mode,
                      active_incidents=len(domains),
                      fault_domains=domains,
                      watchdog_suspects=suspects)

    def _decide(self) -> MacroDecision:
        now = self.env.now
        cp = self.control_plane
        audit = self.audit
        if audit is not None:
            audit.begin(now)
        # The demand signal crosses the telemetry network when a
        # control plane is attached: dropout, noise, and staleness
        # shape what the forecaster learns from.
        observed = self._observe_demand(now)
        self.forecaster.observe(now, observed)
        self._forecast_ready = True
        forecast = self.forecaster.forecast(self.forecast_horizon_s)
        self.forecast_monitor.record(forecast)

        # Diagnose possible failures before actuating: quarantines and
        # the brownout must be in force when the coordinator sizes the
        # fleet and the capper evaluates.
        status = (self.fault_engine.status()
                  if self.fault_engine is not None else None)
        if cp is not None:
            status = cp.observe_status(status)
        self._audit_status(now, status)
        n_incidents, drained = self._apply_degradation(status)

        target_fleet, pstate = self.coordinator.decide()

        capped = False
        if self.capper is not None:
            capped = self.capper.evaluate().capped

        # Under a power incident, force the fleet at least
        # ``pstate_floor`` deep: slower and cooler stretches battery
        # ride-through and keeps the derated UPS inside its rating.
        if self.mode == "degraded" and self._power_constrained(status):
            pool = self.farm.fleet
            floor = min(self.degraded_policy.pstate_floor,
                        pool.plant.n_pstates - 1)
            if pstate < floor:
                if cp is None:
                    servers = pool.active_count
                    if servers:
                        pool.batch_set_pstate(floor)
                else:
                    servers = self._set_pstate_via_plane(cp, floor)
                if servers:
                    pstate = floor
                    if self.tracer is not None:
                        self.tracer.event("dvfs.floor", "actuation",
                                          index=floor, servers=servers)

        thermal_safe = True
        if self.placer is not None and self.heat_by_zone_fn is not None:
            thermal_safe = self.placer.assess(self.heat_by_zone_fn()).safe

        sla_risk = None
        if self.risk_model is not None and target_fleet > 0:
            sla_risk = self.risk_model.assess(
                target_fleet, forecast).sla_violation_probability

        decision = MacroDecision(now, observed, forecast, target_fleet,
                                 pstate, capped, thermal_safe, sla_risk,
                                 mode=self.mode,
                                 active_incidents=n_incidents,
                                 admission_fraction=self.farm
                                 .admission_fraction,
                                 drained_servers=drained)
        self.decisions.append(decision)
        if audit is not None:
            audit.commit(forecast=forecast, target_fleet=target_fleet,
                         pstate=pstate, capped=capped, mode=self.mode,
                         admission_fraction=self.farm.admission_fraction,
                         drained_servers=drained)
        return decision

    def run(self):
        """Process generator: decide every period."""
        while True:
            self.decide()
            yield self.env.timeout(self.period_s)

    # ------------------------------------------------------------------
    # Live retargeting (the ``repro.serve`` mutation surface)
    # ------------------------------------------------------------------
    def swap_forecaster(self, forecaster) -> None:
        """Hot-swap the demand forecaster mid-run.

        The replacement starts cold: ``_forecast_ready`` drops, so the
        next cycle provisions on instantaneous demand until the new
        model has observed its first sample — the same warm-up contract
        a freshly built manager has.
        """
        self.forecaster = forecaster
        self._forecast_ready = False
        if self.tracer is not None:
            self.tracer.event("macro.swap_forecaster", "actuation",
                              forecaster=type(forecaster).__name__)

    def retarget_budget(self, budget_w: float) -> bool:
        """Retarget the facility power cap mid-run.

        The new watts become the *nominal* budget (degraded-ops
        tightening still applies on top next cycle); in normal mode the
        capper budget moves immediately and re-evaluates, so any
        APPLY_CAP/REMOVE_CAP commands issue synchronously — under the
        caller's open audit record when one is open.  Returns ``False``
        when capping is disabled on this facility.
        """
        if budget_w <= 0:
            raise ValueError("power budget must be positive")
        if self.capper is None:
            return False
        self._nominal_budget_w = float(budget_w)
        if self.mode == "normal":
            self.capper.budget_w = float(budget_w)
        if self.tracer is not None:
            self.tracer.event("macro.retarget_budget", "actuation",
                              budget_w=float(budget_w))
        self.capper.evaluate()
        return True

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def sla_report(self, start: float | None = None,
                   end: float | None = None) -> SLAReport:
        """Evaluate the SLA against the farm's measured signals."""
        return self.sla.evaluate(self.farm.delay_monitor,
                                 self.farm.offered_monitor,
                                 self.farm.shed_monitor, start, end)

    def capping_fraction(self) -> float:
        """Fraction of capper evaluations that engaged (0 if disabled)."""
        if self.capper is None:
            return 0.0
        return self.capper.capped_fraction()
