"""Facility-scale fault domains and incident scheduling (paper §2).

§2 enumerates the failure modes an Internet data center must ride
through: UPS/PDU capacity loss, utility outages bridged by batteries
until the generators start, and CRAC failures whose ~15-minute thermal
dynamics end in protective server shutdowns.  The existing
:class:`~repro.core.chaos.FailureInjector` kills *uncorrelated* single
servers; this module models the *correlated* events — a whole rack
behind one tripped PDU branch, a whole thermal zone behind one dead
CRAC, the whole facility behind the utility feed — and drives them
from a scripted or stochastic :class:`FaultSchedule`.

The :class:`FaultDomainEngine` is deliberately dumb about policy: it
breaks things and publishes a :class:`FacilityStatus` that the
macro-resource management layer polls to "diagnose possible failures"
(Figure 4) and enter degraded operations.  The engine also owns the
physics-side protective behaviour for unmanaged facilities: servers in
an alarmed zone trip their own thermal sensors (§2.2) whether or not a
manager exists to do anything smarter first.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import typing

from repro.cluster.server import POWERED_STATES, ServerState
from repro.cooling.room import ThermalAlarm
from repro.core.sla import SLAReport
from repro.sim import RandomStreams

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.datacenter.spec import DataCenter

#: What a tripped rack branch fails: every row not already FAILED.
_UNFAILED = (ServerState.OFF,) + POWERED_STATES

__all__ = [
    "FaultKind",
    "Incident",
    "IncidentRecord",
    "FaultSchedule",
    "FacilityStatus",
    "FaultDomainEngine",
    "ResilienceReport",
]


class FaultKind(enum.Enum):
    """The correlated facility failure modes of paper §2."""

    #: A PDU rack branch trips: every server on the rack loses power.
    RACK_BRANCH = "rack-branch"
    #: A UPS module drops out of the parallel bank: capacity shrinks.
    UPS_DERATE = "ups-derate"
    #: Utility feed lost: battery bridges until a generator starts.
    UTILITY_OUTAGE = "utility-outage"
    #: A CRAC unit stops: its zones lose their cooling path.
    CRAC_FAILURE = "crac-failure"


@dataclasses.dataclass(frozen=True)
class Incident:
    """One scheduled fault: what breaks, when, and for how long.

    ``target`` selects the fault domain: a rack name for
    :attr:`FaultKind.RACK_BRANCH`, a CRAC index for
    :attr:`FaultKind.CRAC_FAILURE`; unused for facility-wide kinds.
    ``severity`` is the fraction of UPS rating lost for
    :attr:`FaultKind.UPS_DERATE`.
    """

    kind: FaultKind
    at_s: float
    duration_s: float
    target: str | int | None = None
    severity: float = 1.0

    def __post_init__(self):
        if self.at_s < 0:
            raise ValueError("incident start cannot be negative")
        if self.duration_s <= 0:
            raise ValueError("incident duration must be positive")
        if self.kind is FaultKind.RACK_BRANCH and not isinstance(
                self.target, str):
            raise ValueError("rack-branch incident needs a rack name target")
        if self.kind is FaultKind.CRAC_FAILURE and not isinstance(
                self.target, int):
            raise ValueError("crac-failure incident needs a CRAC index target")
        if self.kind is FaultKind.UPS_DERATE and not 0.0 < self.severity < 1.0:
            raise ValueError("UPS derate severity must be in (0, 1)")


@dataclasses.dataclass
class IncidentRecord:
    """Audit entry for one incident: open while the fault is active."""

    kind: FaultKind
    target: str | int | None
    start_s: float
    end_s: float | None = None
    detail: str = ""

    @property
    def active(self) -> bool:
        return self.end_s is None

    @property
    def duration_s(self) -> float:
        """Time to repair (NaN while still open)."""
        if self.end_s is None:
            return math.nan
        return self.end_s - self.start_s


class FaultSchedule:
    """An ordered set of :class:`Incident` objects to inject.

    Build it by hand for scripted what-if experiments, or with
    :meth:`random` for stochastic campaigns driven by the per-seed
    :class:`~repro.sim.RandomStreams` registry.
    """

    def __init__(self, incidents: typing.Iterable[Incident] = ()):
        self.incidents: list[Incident] = list(incidents)

    def add(self, incident: Incident) -> "FaultSchedule":
        """Append one incident (chainable)."""
        self.incidents.append(incident)
        return self

    def ordered(self) -> list[Incident]:
        """Incidents sorted by start time."""
        return sorted(self.incidents, key=lambda i: i.at_s)

    def __len__(self) -> int:
        return len(self.incidents)

    def __iter__(self) -> typing.Iterator[Incident]:
        return iter(self.ordered())

    @classmethod
    def random(cls, horizon_s: float,
               streams: RandomStreams,
               rack_names: typing.Sequence[str] = (),
               cracs: int = 0,
               rack_mtbf_s: float | None = None,
               crac_mtbf_s: float | None = None,
               outage_mtbf_s: float | None = None,
               repair_s: float = 3_600.0,
               outage_s: float = 1_800.0) -> "FaultSchedule":
        """Poisson-process incidents over ``horizon_s``.

        Each fault class draws from its own named substream, so adding
        a class never perturbs the others and campaigns are exactly
        reproducible per master seed.
        """
        if horizon_s <= 0:
            raise ValueError("horizon must be positive")
        schedule = cls()

        def arrivals(stream_name: str, mtbf_s: float | None):
            if mtbf_s is None:
                return
            rng = streams.get(stream_name)
            t = rng.exponential(mtbf_s)
            while t < horizon_s:
                yield t, rng
                t += rng.exponential(mtbf_s)

        for t, rng in arrivals("faults.rack", rack_mtbf_s):
            name = rack_names[rng.integers(len(rack_names))]
            schedule.add(Incident(FaultKind.RACK_BRANCH, t, repair_s,
                                  target=name))
        for t, rng in arrivals("faults.crac", crac_mtbf_s):
            schedule.add(Incident(FaultKind.CRAC_FAILURE, t, repair_s,
                                  target=int(rng.integers(cracs))))
        for t, _rng in arrivals("faults.outage", outage_mtbf_s):
            schedule.add(Incident(FaultKind.UTILITY_OUTAGE, t, outage_s))
        return schedule


class FacilityStatus(typing.NamedTuple):
    """What the macro layer can observe about facility health."""

    time_s: float
    active_incidents: tuple[IncidentRecord, ...]
    power_capacity_w: float
    on_battery: bool
    impaired_zones: frozenset[str]
    failed_servers: int

    @property
    def healthy(self) -> bool:
        return not self.active_incidents and self.failed_servers == 0


@dataclasses.dataclass(frozen=True)
class ResilienceReport:
    """Incident-centric summary of one run (MTTR, degraded time, SLA).

    ``sla_during_incidents`` evaluates the service contract over just
    the union of incident windows — the paper's availability story is
    about what happens *during* the bad quarter hour, not the quiet
    day around it.  ``incident_energy_j`` is the facility energy spent
    inside those windows: the energy cost of resilience.
    """

    incident_count: int
    incidents: tuple[IncidentRecord, ...]
    mttr_s: float
    degraded_mode_s: float
    mode_transitions: int
    protective_shutdowns: int
    blackouts: int
    sla_during_incidents: SLAReport | None
    incident_energy_j: float

    @property
    def survived(self) -> bool:
        """No blackout and no thermally tripped server."""
        return self.blackouts == 0 and self.protective_shutdowns == 0


class FaultDomainEngine:
    """Inject correlated facility faults into a wired DataCenter.

    Parameters
    ----------
    dc:
        The facility (from :meth:`DataCenterSpec.build`) whose power,
        cooling, and compute substrates the engine breaks.
    schedule:
        The incidents to run.
    streams:
        RNG registry; the generator start draws come from the
        ``"faults.generator"`` substream.
    generator_start_probability:
        Chance each start attempt succeeds.  Defaults to the
        calibrated tier survival probability of the facility's tier
        (``repro.datacenter.availability``).
    """

    def __init__(self, env, dc: "DataCenter", schedule: FaultSchedule,
                 streams: RandomStreams | None = None,
                 generator_start_s: float = 30.0,
                 generator_retry_s: float = 60.0,
                 generator_start_probability: float | None = None,
                 battery_check_s: float = 10.0):
        if generator_start_s < 0 or generator_retry_s <= 0:
            raise ValueError("generator timings must be non-negative")
        self.env = env
        self.dc = dc
        self.schedule = schedule
        self.streams = streams or RandomStreams(0)
        self.rng = self.streams.get("faults.generator")
        if generator_start_probability is None:
            # Imported lazily: repro.datacenter imports this module.
            from repro.datacenter.availability import (
                TIER_AVAILABILITY_PARAMETERS,
            )
            params = TIER_AVAILABILITY_PARAMETERS.get(dc.spec.tier)
            generator_start_probability = (
                params.outage_survival_probability if params else 0.9)
        if not 0.0 <= generator_start_probability <= 1.0:
            raise ValueError("generator start probability in [0, 1]")
        self.generator_start_s = float(generator_start_s)
        self.generator_retry_s = float(generator_retry_s)
        self.generator_start_probability = float(generator_start_probability)
        self.battery_check_s = float(battery_check_s)

        self.records: list[IncidentRecord] = []
        #: Incidents injected live (outside the construction schedule).
        self.injected: list[Incident] = []
        self.protective_trips: list[tuple[float, str, int]] = []
        self.blackouts: list[float] = []
        self.generator_failures = 0
        self._outage_active = False
        self._on_generator = False
        #: Rack name -> row of the facility's rack columns.
        self._rack_rows = {rack.name: row
                           for row, rack in enumerate(dc.cluster.racks)}

    # ------------------------------------------------------------------
    # Observation interface (what the macro layer "monitors")
    # ------------------------------------------------------------------
    def active_incidents(self) -> tuple[IncidentRecord, ...]:
        return tuple(r for r in self.records if r.active)

    def status(self) -> FacilityStatus:
        """Snapshot of facility health for the diagnosis loop."""
        failed = self.dc.cluster.count_in(ServerState.FAILED)
        return FacilityStatus(
            time_s=self.env.now,
            active_incidents=self.active_incidents(),
            power_capacity_w=self.dc.ups.steady_rating_w,
            on_battery=self._outage_active and not self._on_generator,
            impaired_zones=frozenset(self.dc.room.impaired_zones()),
            failed_servers=failed,
        )

    def mttr_s(self) -> float:
        """Mean time to repair over closed incidents (NaN if none)."""
        closed = [r.duration_s for r in self.records if not r.active]
        if not closed:
            return math.nan
        return sum(closed) / len(closed)

    # ------------------------------------------------------------------
    # Protective thermal shutdown (§2.2 — physics, not policy)
    # ------------------------------------------------------------------
    def install_protective_trips(self) -> None:
        """Make alarmed zones trip their servers' thermal sensors.

        The macro manager implements the same protection (plus graceful
        pre-draining); install this only on unmanaged facilities so the
        two handlers do not double-count victims.
        """
        self.dc.room.on_alarm(self._protective_trip)

    def _protective_trip(self, alarm: ThermalAlarm) -> None:
        victims = self._park(POWERED_STATES, ServerState.FAILED,
                             zone=alarm.zone)
        self.protective_trips.append((alarm.time_s, alarm.zone, victims))

    def _park(self, states, target: ServerState, zone: str | None = None,
              rack=None) -> int:
        """Move every server in ``states`` — in ``zone`` or on
        ``rack``, when given — to ``target`` in one fleet call;
        returns how many moved."""
        plant = self.dc.cluster.plant
        lo, hi = ((rack.aggregate._lo, rack.aggregate._hi)
                  if rack is not None else (0, None))
        rows = plant.rows_in(states, zone, lo, hi)
        if rows.size:
            plant.park_many(rows, target)
        return int(rows.size)

    # ------------------------------------------------------------------
    # Injection
    # ------------------------------------------------------------------
    def run(self):
        """Process generator: walk the schedule, applying each fault."""
        for incident in self.schedule.ordered():
            delay = incident.at_s - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            record = self._apply(incident)
            self.env.process(self._clear_later(incident, record))

    def inject(self, incident: Incident) -> IncidentRecord | None:
        """Inject one incident into the *running* facility.

        The construction-time :class:`FaultSchedule` is fixed once
        :meth:`run` starts walking it; this is the live path
        (``repro.serve`` mutations, interactive experiments).  An
        incident whose ``at_s`` is not in the future is applied
        immediately and its open :class:`IncidentRecord` returned;
        a future one is scheduled and ``None`` returned.
        """
        self.injected.append(incident)
        delay = incident.at_s - self.env.now
        if delay > 0:
            self.env.process(self._inject_later(incident, delay))
            return None
        record = self._apply(incident)
        self.env.process(self._clear_later(incident, record))
        return record

    def _inject_later(self, incident: Incident, delay: float):
        yield self.env.timeout(delay)
        record = self._apply(incident)
        self.env.process(self._clear_later(incident, record))

    def _clear_later(self, incident: Incident, record: IncidentRecord):
        yield self.env.timeout(incident.duration_s)
        self._clear(incident, record)
        record.end_s = self.env.now

    def _apply(self, incident: Incident) -> IncidentRecord:
        record = IncidentRecord(incident.kind, incident.target, self.env.now)
        self.records.append(record)
        if incident.kind is FaultKind.RACK_BRANCH:
            self._apply_rack_branch(incident, record)
        elif incident.kind is FaultKind.UPS_DERATE:
            self.dc.ups.derate(incident.severity)
            record.detail = (f"rating derated {incident.severity:.0%} to "
                             f"{self.dc.ups.steady_rating_w:.0f} W")
        elif incident.kind is FaultKind.UTILITY_OUTAGE:
            self._apply_outage(record)
        elif incident.kind is FaultKind.CRAC_FAILURE:
            self.dc.room.fail_crac(int(incident.target))
            record.detail = f"CRAC {incident.target} offline"
        return record

    def _clear(self, incident: Incident, record: IncidentRecord) -> None:
        if incident.kind is FaultKind.RACK_BRANCH:
            row = self._rack_rows[incident.target]
            self.dc.rack_tripped[row] = False
            self._park((ServerState.FAILED,), ServerState.OFF,
                       rack=self.dc.cluster.racks[row])
        elif incident.kind is FaultKind.UPS_DERATE:
            self.dc.ups.restore_rating()
        elif incident.kind is FaultKind.UTILITY_OUTAGE:
            self._outage_active = False
            self._on_generator = False
            self.dc.ups.grid_restored()
        elif incident.kind is FaultKind.CRAC_FAILURE:
            self.dc.room.repair_crac(int(incident.target))

    # -- rack branch ---------------------------------------------------
    def _apply_rack_branch(self, incident: Incident,
                           record: IncidentRecord) -> None:
        row = self._rack_rows.get(incident.target)
        if row is None:
            raise KeyError(f"no rack named {incident.target!r}")
        self.dc.rack_tripped[row] = True
        victims = self._park(_UNFAILED, ServerState.FAILED,
                             rack=self.dc.cluster.racks[row])
        record.detail = f"branch open, {victims} servers down"

    # -- utility outage ------------------------------------------------
    def _apply_outage(self, record: IncidentRecord) -> None:
        self.dc.ups.grid_failure()
        self._outage_active = True
        self._on_generator = False
        record.detail = "on battery"
        self.env.process(self._generator_sequence(record))
        self.env.process(self._battery_watchdog(record))

    def _generator_sequence(self, record: IncidentRecord):
        yield self.env.timeout(self.generator_start_s)
        while self._outage_active and not self._on_generator:
            if self.rng.random() < self.generator_start_probability:
                self._on_generator = True
                self.dc.ups.grid_restored()
                record.detail = "generator carried load"
                return
            self.generator_failures += 1
            yield self.env.timeout(self.generator_retry_s)

    def _battery_watchdog(self, record: IncidentRecord):
        while self._outage_active and not self._on_generator:
            if self.dc.ups.battery_depleted():
                self._blackout(record)
                return
            yield self.env.timeout(self.battery_check_s)

    def _blackout(self, record: IncidentRecord) -> None:
        """Battery exhausted before the generator came up: lights out."""
        self.blackouts.append(self.env.now)
        record.detail = "BLACKOUT: battery exhausted before generator"
        self._park(POWERED_STATES, ServerState.FAILED)
