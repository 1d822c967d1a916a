"""The control-plane facade: one handle over both buses + watchdog.

:class:`ControlPlane` is what the rest of the repo talks to.  It owns
the :class:`~repro.controlplane.telemetry.TelemetryBus` (sensing), the
:class:`~repro.controlplane.actuation.ActuationBus` (commanding), and
the :class:`~repro.controlplane.watchdog.Watchdog` (liveness), and
exposes exactly the verbs the macro layer needs: observe demand / zone
temperature / facility status, activate or deactivate machines, set a
P-state, apply a cap, drain a server.

A **perfect** profile (the default) draws no RNG, schedules no events
and records no command, so :class:`~repro.datacenter.cosim
.CoSimulation` builds it for its :meth:`ControlPlane.report` only and
wires it nowhere: the managers then act on the fleet kernels exactly
as with no plane, which is what keeps every pre-existing experiment
table byte-identical.  Only an explicitly impaired profile is
attached, and it switches the managers onto *believed* state and
asynchronous delivery.

The **reconciliation loop** is the hardening centerpiece: on a fixed
cadence it folds the newest telemetry state probes into the actuation
ledger, diffs the controller's *intent* against acked truth, re-issues
any divergent command, and asks the farm's
:class:`~repro.cluster.aggregates.FleetAggregate` to
:meth:`~repro.cluster.aggregates.FleetAggregate.verify` its cached
sums — the self-heal that bounds how long a lost command or a drifted
aggregate can mislead the manager.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.cluster.server import Server, ServerState
from repro.sim import Environment, RandomStreams

from .actuation import (
    ActuationBus,
    ActuationProfile,
    CommandKind,
    settled_state,
)
from .telemetry import TelemetryBus, TelemetryProfile
from .watchdog import Watchdog, WatchdogProfile

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.control.farm import ServerFarm
    from repro.cooling.room import MachineRoom
    from repro.core.faults import FacilityStatus

__all__ = ["ControlPlaneProfile", "ControlPlane", "ControlPlaneReport"]


@dataclasses.dataclass(frozen=True)
class ControlPlaneProfile:
    """Complete impairment + hardening configuration.

    The default constructs a *perfect* plane.  ``optimistic`` selects
    the naive believed-state rule (intent is truth, no acks needed) —
    pair it with ``max_retries=0`` and a trigger-happy watchdog to get
    the EXP-CONTROLPLANE strawman.
    """

    telemetry: TelemetryProfile = dataclasses.field(
        default_factory=TelemetryProfile)
    actuation: ActuationProfile = dataclasses.field(
        default_factory=ActuationProfile)
    watchdog: WatchdogProfile = dataclasses.field(
        default_factory=WatchdogProfile)
    #: Reconciliation cadence; 0 disables the loop.
    reconcile_period_s: float = 300.0
    #: Naive believed state: trust intent forever, never reconcile.
    optimistic: bool = False

    def __post_init__(self):
        if self.reconcile_period_s < 0:
            raise ValueError("reconcile period cannot be negative")

    @property
    def perfect(self) -> bool:
        return (self.telemetry.perfect and self.actuation.perfect
                and not self.optimistic)

    @classmethod
    def naive(cls, command_loss: float = 0.05,
              staleness_s: float = 60.0,
              watchdog_false_miss: float = 0.01) -> "ControlPlaneProfile":
        """Fire-and-forget manager on an impaired network."""
        return cls(
            telemetry=TelemetryProfile(dropout_probability=0.02,
                                       noise_fraction=0.01,
                                       staleness_s=staleness_s),
            actuation=ActuationProfile(loss_probability=command_loss,
                                       transient_failure_probability=0.01,
                                       latency_s=2.0,
                                       max_retries=0),
            watchdog=WatchdogProfile(
                miss_threshold=1,
                false_miss_probability=watchdog_false_miss),
            reconcile_period_s=0.0,
            optimistic=True,
        )

    @classmethod
    def hardened(cls, command_loss: float = 0.05,
                 staleness_s: float = 60.0,
                 watchdog_false_miss: float = 0.01
                 ) -> "ControlPlaneProfile":
        """Same impaired network, full retry + reconcile defences."""
        return cls(
            telemetry=TelemetryProfile(dropout_probability=0.02,
                                       noise_fraction=0.01,
                                       staleness_s=staleness_s),
            actuation=ActuationProfile(loss_probability=command_loss,
                                       transient_failure_probability=0.01,
                                       latency_s=2.0,
                                       ack_timeout_s=30.0,
                                       max_retries=3,
                                       backoff_base_s=5.0),
            watchdog=WatchdogProfile(
                miss_threshold=3,
                false_miss_probability=watchdog_false_miss),
            reconcile_period_s=300.0,
            optimistic=False,
        )


@dataclasses.dataclass(frozen=True)
class ControlPlaneReport:
    """End-of-run accounting across both buses and the watchdog."""

    commands_issued: int
    commands_acked: int
    commands_gave_up: int
    retries_total: int
    max_attempts: int
    reconciler_reissues: int
    #: Servers whose believed state disagrees with ground truth *now*.
    divergent_servers: int
    telemetry_published: int
    telemetry_dropped: int
    watchdog_checks: int
    watchdog_suspicions: int
    watchdog_false_positives: int
    aggregate_power_drift_w: float

    def rows(self) -> list[tuple[str, str]]:
        return [
            ("commands", f"issued={self.commands_issued} "
                         f"acked={self.commands_acked} "
                         f"gave_up={self.commands_gave_up}"),
            ("retries", f"total={self.retries_total} "
                        f"max_attempts={self.max_attempts} "
                        f"reissued={self.reconciler_reissues}"),
            ("divergence", f"{self.divergent_servers} servers"),
            ("telemetry", f"published={self.telemetry_published} "
                          f"dropped={self.telemetry_dropped}"),
            ("watchdog", f"checks={self.watchdog_checks} "
                         f"suspected={self.watchdog_suspicions} "
                         f"false_pos={self.watchdog_false_positives}"),
        ]


def _rack_of(server: Server) -> str | None:
    """Rack label from the spec's ``<dc>-r<K>-s<N>`` naming."""
    name = server.name
    head, sep, _ = name.rpartition("-s")
    return head if sep else None


class ControlPlane:
    """Buses + watchdog + reconciler behind one facade."""

    def __init__(self, env: Environment,
                 servers: typing.Sequence[Server],
                 profile: ControlPlaneProfile | None = None,
                 streams: RandomStreams | None = None):
        self.env = env
        self.profile = profile or ControlPlaneProfile()
        self.perfect = self.profile.perfect
        self.servers = list(servers)
        if not self.perfect:
            streams = streams or RandomStreams(0)
        self.telemetry = TelemetryBus(env, self.profile.telemetry, streams)
        self.actuation = ActuationBus(env, self.servers,
                                      self.profile.actuation, streams,
                                      optimistic=self.profile.optimistic)
        self.watchdog: Watchdog | None = None
        if not self.perfect:
            self.watchdog = Watchdog(env, self.telemetry,
                                     self.profile.watchdog, streams)
            self.watchdog.monitor(s.name for s in self.servers)
            self.watchdog.expected_down = self._expected_down
        self._by_name = {s.name: s for s in self.servers}
        self._rack = {s.name: _rack_of(s) for s in self.servers}
        self.farm: "ServerFarm | None" = None
        self.room: "MachineRoom | None" = None
        self.reconcile_runs = 0
        self.divergences_repaired = 0
        self.aggregate_power_drift_w = 0.0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, farm: "ServerFarm | None" = None,
               room: "MachineRoom | None" = None) -> None:
        """Hook the plane into the plant it mediates."""
        if farm is not None:
            self.farm = farm
            farm.control_plane = self
        if room is not None:
            self.room = room

    def processes(self) -> list:
        """Generators the host simulation should spawn (chaos only)."""
        procs = []
        if self.watchdog is not None:
            procs.append(self.watchdog.run())
        if not self.perfect and self.profile.reconcile_period_s > 0:
            procs.append(self.reconcile_loop())
        return procs

    # ------------------------------------------------------------------
    # Sensing (manager side)
    # ------------------------------------------------------------------
    def publish_tick(self, farm: "ServerFarm") -> None:
        """Plant-side sensor sweep, called from the farm tick."""
        now = self.env.now
        sense = self.telemetry.sense
        sense("farm.demand", farm.demand_fn(now))
        sense("farm.power_w", farm.fleet.power_w)
        # One bulk publish for the whole sweep: heartbeats are plain
        # ``sense`` calls on ``hb.<name>`` channels (Watchdog.beat), so
        # interleaving them in the item list reproduces the per-server
        # loop exactly while letting the bus vectorize the coin flips.
        watchdog = self.watchdog
        rack_of = self._rack
        items = []
        for server in farm.servers:
            rack = rack_of[server.name]
            items.append((f"state.{server.name}", server.state, rack))
            if (watchdog is not None
                    and server.state is ServerState.ACTIVE):
                items.append((watchdog.channel(server.name), now, rack))
        self.telemetry.sense_block(items)

    def publish_physical(self, status: "FacilityStatus | None" = None
                         ) -> None:
        """Publish zone temps + facility gauges (physical-loop side)."""
        if self.room is not None:
            for zone in self.room.zones:
                self.telemetry.sense(f"temp.{zone.name}", zone.temp_c)
        if status is not None:
            self.telemetry.sense("facility.capacity_w",
                                 float(status.power_capacity_w))

    def observe_demand(self, t_s: float) -> float:
        """Demand signal as the manager can actually see it."""
        demand = self.farm.demand_fn(t_s)
        reading = self.telemetry.read("farm.demand")
        return demand if reading.missing else reading.value

    def zone_temp(self, zone) -> float:
        """Believed temperature of one thermal zone."""
        reading = self.telemetry.read(f"temp.{zone.name}")
        return zone.temp_c if reading.missing else reading.value

    def observe_status(self, status: "FacilityStatus | None"):
        """Facility status with gauges replaced by believed values."""
        if status is None:
            return status
        reading = self.telemetry.read("facility.capacity_w")
        if reading.missing:
            return status
        return status._replace(power_capacity_w=reading.value)

    def suspect_count(self) -> int:
        """Servers the watchdog currently suspects dead."""
        if self.watchdog is None:
            return 0
        return len(self.watchdog.suspected)

    def _expected_down(self, name: str) -> bool:
        """Watchdog hook: silence from a non-ACTIVE machine is normal."""
        server = self._by_name[name]
        return self.believed_state(server) is not ServerState.ACTIVE

    # ------------------------------------------------------------------
    # Believed state & actuation (controller side)
    # ------------------------------------------------------------------
    def believed_state(self, server: Server) -> ServerState:
        return self.actuation.believed_state(server)

    def believed_active(self, farm: "ServerFarm") -> list[Server]:
        """Pool-order roster of servers believed ACTIVE."""
        believed = self.actuation.believed_state
        return [s for s in farm.servers
                if believed(s) is ServerState.ACTIVE]

    def activate_many(self, quarantined: typing.Container[str],
                      count: int) -> list[Server]:
        """Wake (preferred) or boot up to ``count`` machines through
        the bus; returns them in submit order.

        One scan picks the believed-SLEEPING servers, then the
        believed-OFF ones, in pool order, outside quarantined zones,
        and submits one command per server.  A submit changes only
        its own server's believed state, so this is the choice
        ``count`` single picks would make, with the same commands in
        the same order.
        """
        believed = self.believed_state
        wake: list[Server] = []
        boot: list[Server] = []
        for server in self.farm.servers:
            if len(wake) >= count:
                break
            if server.zone in quarantined:
                continue
            state = believed(server)
            if state is ServerState.SLEEPING:
                wake.append(server)
            elif state is ServerState.OFF and len(boot) < count:
                boot.append(server)
        boot = boot[:max(count - len(wake), 0)]
        for server in wake:
            self.actuation.submit(server, CommandKind.WAKE)
        for server in boot:
            self.actuation.submit(server, CommandKind.POWER_ON)
        return wake + boot

    def deactivate_many(self, to_sleep: bool, count: int) -> list[Server]:
        """Drain + sleep/shut up to ``count`` believed-ACTIVE machines,
        last first, never the last one; returns them in submit order.

        Each submit takes its server out of the believed-ACTIVE
        roster, so the victims are the roster's tail, back to front —
        what ``count`` single picks of its last server would take.
        """
        active = self.believed_active(self.farm)
        victims = active[:0:-1][:max(count, 0)]
        kind = CommandKind.SLEEP if to_sleep else CommandKind.SHUT_DOWN
        for victim in victims:
            self.actuation.submit(victim, kind)
        return victims

    def set_pstate(self, server: Server, index: int) -> None:
        """Command a P-state, deduped against the believed one."""
        if self.actuation.believed_pstate.get(server.name) == index:
            return
        self.actuation.submit(server, CommandKind.SET_PSTATE, index)

    def shut_down(self, server: Server,
                  origin: str = "controller") -> None:
        """Orderly drain + power-off (the macro layer's zone drain)."""
        self.actuation.submit(server, CommandKind.SHUT_DOWN,
                              origin=origin)

    def cap_actuator(self, load, watts: float | None):
        """PowerCapper actuator: route cap commands through the bus.

        ``watts=None`` lifts the cap.  Returns the load's current draw
        — the honest reading while the command is still in flight —
        and dedupes no-op commands against the believed cap, so the
        bus is not flooded with redundant lifts.
        """
        believed = self.actuation.believed_cap.get(load.name)
        if watts is None:
            if believed is not None:
                self.actuation.submit(load, CommandKind.REMOVE_CAP)
            return load.power_w()
        if believed != watts:
            self.actuation.submit(load, CommandKind.APPLY_CAP, watts)
        return load.power_w()

    # ------------------------------------------------------------------
    # Reconciliation
    # ------------------------------------------------------------------
    _KIND_FOR_INTENT = {
        ServerState.ACTIVE: CommandKind.WAKE,
        ServerState.SLEEPING: CommandKind.SLEEP,
        ServerState.OFF: CommandKind.SHUT_DOWN,
    }

    def reconcile(self) -> int:
        """One pass: fold probes, diff intent vs truth, re-issue.

        Returns the number of divergent commands re-issued.  Also asks
        the farm aggregate to verify its cached sums — the cheap
        self-heal that bounds aggregate drift.  Traced runs log one
        ``controlplane.reconcile`` event per pass under a
        ``reconcile`` wall timer.
        """
        tracer = self.env.tracer
        if tracer is None:
            return self._reconcile()
        with tracer.timer("reconcile"):
            reissued = self._reconcile()
        tracer.event("controlplane.reconcile", "control",
                     reissued=reissued, runs=self.reconcile_runs,
                     drift_w=self.aggregate_power_drift_w)
        return reissued

    def _reconcile(self) -> int:
        self.reconcile_runs += 1
        bus = self.actuation
        reissued = 0
        for name, intent in list(bus.intended.items()):
            key = bus._state_key(name)
            if key in bus._open:
                continue  # still in flight; let the retries play out
            reading = self.telemetry.read(f"state.{name}")
            if not reading.missing:
                bus.accept_probe(name, reading.value, reading.time_s)
            server = self._by_name[name]
            if bus.believed_state(server) is not intent:
                kind = self._KIND_FOR_INTENT[intent]
                bus.submit(server, kind, origin="reconciler")
                reissued += 1
        self.divergences_repaired += reissued
        if self.farm is not None:
            repair = self.farm.fleet.verify()
            self.aggregate_power_drift_w = max(
                self.aggregate_power_drift_w, repair["power_drift_w"])
        return reissued

    def reconcile_loop(self):
        """Simulation process: reconcile on the configured cadence."""
        period = self.profile.reconcile_period_s
        while True:
            yield self.env.timeout(period)
            self.reconcile()

    # ------------------------------------------------------------------
    # Audit
    # ------------------------------------------------------------------
    def divergence(self) -> int:
        """Servers whose believed state disagrees with ground truth."""
        return sum(
            1 for s in self.servers
            if self.believed_state(s) is not settled_state(s.state))

    def report(self) -> ControlPlaneReport:
        bus = self.actuation
        wd = self.watchdog
        return ControlPlaneReport(
            commands_issued=len(bus.records),
            commands_acked=sum(r.acked for r in bus.records),
            commands_gave_up=len(bus.gave_up_commands()),
            retries_total=sum(r.retries for r in bus.records),
            max_attempts=bus.max_attempts(),
            reconciler_reissues=bus.reissues,
            divergent_servers=self.divergence(),
            telemetry_published=self.telemetry.samples_published,
            telemetry_dropped=self.telemetry.samples_dropped,
            watchdog_checks=wd.checks if wd else 0,
            watchdog_suspicions=wd.suspicions if wd else 0,
            watchdog_false_positives=wd.false_positives if wd else 0,
            aggregate_power_drift_w=self.aggregate_power_drift_w,
        )
