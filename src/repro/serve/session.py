"""The deterministic heart of the live service.

:class:`SimSession` owns one co-simulation and advances it in fixed
``tick_s`` steps; clients mutate it only through protocol messages
whose landing times are quantized to tick boundaries and applied in
``(applied_at_s, seq)`` order.  The daemon drives a SimSession from
its asyncio loop; the *golden* in-process path drives an identical
SimSession through :meth:`run_script` — both execute exactly the same
code on exactly the same schedule, which is the whole determinism
contract: a served run is bit-identical to its in-process replay
because there is no second implementation to diverge.

Every mutation runs inside an :meth:`AuditTrail.external` record, so
the actuations it causes (cap evaluate → APPLY_CAP bus commands,
forecaster swaps, fault injections) are stamped with a decision id
that goes back to the client in the acknowledgement frame.
"""

from __future__ import annotations

import bisect
import dataclasses
import heapq
import math
import typing

from repro.controlplane import ControlPlaneProfile
from repro.core.faults import FaultKind, FaultSchedule, Incident
from repro.core.forecast import (
    EWMAForecaster,
    HoltWintersForecaster,
    ReactiveForecaster,
)
from repro.core.sla import SLA
from repro.datacenter.cosim import CoSimulation, CoSimResult
from repro.datacenter.spec import DataCenterSpec
from repro.obs import Tracer
from repro.serve import protocol
from repro.serve.protocol import (
    InjectFault,
    ProtocolError,
    SetCap,
    SetDemand,
    SwapPolicy,
)
from repro.sim import RandomStreams

__all__ = ["MutableDemand", "ServeScenario", "SimSession"]

FORECASTERS = {
    "holt-winters": HoltWintersForecaster,
    "ewma": EWMAForecaster,
    "reactive": ReactiveForecaster,
}


class MutableDemand:
    """A step-function demand signal clients retarget live.

    ``demand(t)`` is the most recent breakpoint value at or before
    ``t`` (plus an optional base shape).  Breakpoints are appended by
    :meth:`set`; lookups bisect, so a day of five-minute retargets
    stays O(log n) per dispatch.
    """

    def __init__(self, initial_work: float = 0.0,
                 base_fn: typing.Callable[[float], float] | None = None):
        self._times: list[float] = [-math.inf]
        self._values: list[float] = [float(initial_work)]
        self.base_fn = base_fn

    def set(self, at_s: float, work: float) -> None:
        """Retarget the step level from ``at_s`` onward."""
        if work < 0:
            raise ValueError("demand cannot be negative")
        if at_s >= self._times[-1]:
            self._times.append(float(at_s))
            self._values.append(float(work))
        else:  # out-of-order insert (scripted schedules)
            idx = bisect.bisect_right(self._times, at_s)
            self._times.insert(idx, float(at_s))
            self._values.insert(idx, float(work))

    def __call__(self, t_s: float) -> float:
        idx = bisect.bisect_right(self._times, t_s) - 1
        value = self._values[idx]
        if self.base_fn is not None:
            value += self.base_fn(t_s)
        return value


@dataclasses.dataclass(frozen=True)
class ServeScenario:
    """Everything needed to (re)build a served run, JSON-able.

    The Welcome frame carries :meth:`to_dict` so any client can build
    the bit-identical in-process golden with :meth:`from_dict`.
    """

    racks: int = 4
    servers_per_rack: int = 20
    zones: int = 4
    cracs: int = 2
    seed: int = 0
    tick_s: float = 60.0
    #: Initial demand as a fraction of fleet work capacity.
    initial_work_fraction: float = 0.3
    #: Facility power budget as a fraction of fleet peak wall draw.
    budget_fraction: float = 0.9

    def __post_init__(self):
        if self.tick_s <= 0:
            raise ValueError("tick must be positive")
        if not 0.0 <= self.initial_work_fraction <= 1.0:
            raise ValueError("initial work fraction in [0, 1]")
        if not 0.0 < self.budget_fraction <= 1.5:
            raise ValueError("budget fraction in (0, 1.5]")

    def spec(self) -> DataCenterSpec:
        return DataCenterSpec(racks=self.racks,
                              servers_per_rack=self.servers_per_rack,
                              zones=self.zones, cracs=self.cracs)

    @property
    def work_capacity(self) -> float:
        spec = self.spec()
        return spec.total_servers * spec.server_capacity

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ServeScenario":
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - fields
        if unknown:
            raise ProtocolError(
                "bad-scenario", f"unknown scenario fields {sorted(unknown)}")
        return cls(**payload)


class SimSession:
    """One live co-simulation, stepped in ticks, mutated by messages."""

    def __init__(self, scenario: ServeScenario):
        self.scenario = scenario
        spec = scenario.spec()
        self.tick_s = scenario.tick_s
        self.demand = MutableDemand(
            scenario.initial_work_fraction * scenario.work_capacity)
        budget_w = (scenario.budget_fraction * spec.total_servers
                    * spec.server_peak_w)
        self.tracer = Tracer()
        # A perfect control plane + empty fault schedule: every cap
        # command crosses the ActuationBus, and the fault engine exists
        # for live injection, without perturbing the unfaulted run.
        self.sim = CoSimulation(
            spec, self.demand, managed=True,
            sla=SLA("serve", response_target_s=0.15),
            fault_schedule=FaultSchedule(),
            streams=RandomStreams(scenario.seed),
            control_plane=ControlPlaneProfile(),
            power_budget_w=budget_w,
            tracer=self.tracer)
        #: Session time zero: the post-boot instant ``at_s`` is
        #: relative to.
        self.start_s = self.sim.env.now
        self.ticks_run = 0
        self._seq = 0
        #: Future mutations: heap of (applied_at_s, seq, message).
        self._pending: list[tuple[float, int, typing.Any]] = []
        #: Ledger of applied mutations (for the serve RunReport).
        self.applied: list[dict] = []

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    @property
    def now_s(self) -> float:
        return self.sim.env.now

    @property
    def elapsed_s(self) -> float:
        return self.sim.env.now - self.start_s

    def _quantize(self, at_s: float) -> float:
        """First tick boundary ≥ ``at_s`` (never in the past)."""
        if not isinstance(at_s, (int, float)) or not math.isfinite(at_s):
            raise ProtocolError("bad-time", "at_s must be finite")
        if at_s < 0:
            raise ProtocolError("bad-time", "at_s cannot be negative")
        k = math.ceil(at_s / self.tick_s - 1e-9)
        return max(self.start_s + k * self.tick_s, self.sim.env.now)

    def _validate(self, msg) -> None:
        """Reject a bad mutation *before* acking it."""
        if isinstance(msg, SetDemand):
            if not msg.work >= 0:
                raise ProtocolError("bad-mutation",
                                    "demand work cannot be negative")
        elif isinstance(msg, InjectFault):
            try:
                kind = FaultKind(msg.kind)
                Incident(kind, 0.0, msg.duration_s,
                         target=msg.target, severity=msg.severity)
            except ValueError as exc:
                raise ProtocolError("bad-mutation", str(exc)) from None
        elif isinstance(msg, SetCap):
            if not msg.budget_w > 0:
                raise ProtocolError("bad-mutation",
                                    "power budget must be positive")
        elif isinstance(msg, SwapPolicy):
            factory = FORECASTERS.get(msg.forecaster)
            if factory is None:
                raise ProtocolError(
                    "bad-mutation",
                    f"unknown forecaster {msg.forecaster!r} "
                    f"(have {sorted(FORECASTERS)})")
            try:
                factory(**msg.params)
            except (TypeError, ValueError) as exc:
                raise ProtocolError("bad-mutation", str(exc)) from None
        else:
            raise ProtocolError("bad-mutation",
                                f"{type(msg).__name__} is not a mutation")

    def submit(self, msg) -> tuple[int, float, typing.Any]:
        """Queue (or immediately apply) one mutation.

        Returns ``(seq, applied_at_s, decision_id)``; the decision id
        is ``None`` when the mutation lands at a future tick (its id
        is minted when it applies and is visible in the audit trail).
        """
        self._validate(msg)
        self._seq += 1
        seq = self._seq
        applied_at = self._quantize(msg.at_s)
        if applied_at <= self.sim.env.now:
            decision_id = self._apply(msg, seq)
            return seq, self.sim.env.now, decision_id
        heapq.heappush(self._pending, (applied_at, seq, msg))
        return seq, applied_at, None

    def _apply(self, msg, seq: int):
        """Dispatch one mutation inside an external audit record."""
        manager = self.sim.manager
        now = self.sim.env.now
        with manager.audit.external(now, kind=msg.TYPE, seq=seq) as record:
            if isinstance(msg, SetDemand):
                self.demand.set(now, msg.work)
                self.tracer.event("serve.set_demand", "actuation",
                                  work=float(msg.work))
            elif isinstance(msg, InjectFault):
                incident = Incident(FaultKind(msg.kind), now,
                                    msg.duration_s, target=msg.target,
                                    severity=msg.severity)
                self.tracer.event("serve.inject_fault", "actuation",
                                  kind=msg.kind,
                                  duration_s=float(msg.duration_s))
                self.sim.fault_engine.inject(incident)
            elif isinstance(msg, SetCap):
                manager.retarget_budget(msg.budget_w)
            elif isinstance(msg, SwapPolicy):
                manager.swap_forecaster(
                    FORECASTERS[msg.forecaster](**msg.params))
        self.applied.append({"seq": seq, "op": msg.TYPE,
                             "t_s": now - self.start_s,
                             "decision_id": record.decision_id})
        return record.decision_id

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def advance(self, ticks: int) -> float:
        """Advance ``ticks`` boundaries, landing queued mutations.

        Pending mutations whose quantized time equals the *current*
        boundary apply before the tick runs, in ``(at_s, seq)`` order —
        the canonical schedule both the daemon and the golden replay
        execute.
        """
        if ticks <= 0:
            raise ProtocolError("bad-run", "ticks must be positive")
        env = self.sim.env
        for _ in range(int(ticks)):
            while self._pending and self._pending[0][0] <= env.now:
                _, seq, msg = heapq.heappop(self._pending)
                self._apply(msg, seq)
            env.run(until=env.now + self.tick_s)
            self.ticks_run += 1
        return env.now

    # ------------------------------------------------------------------
    # Pure reads
    # ------------------------------------------------------------------
    def telemetry(self, streams: typing.Iterable[str] = ()) -> dict:
        """One frame of pure reads; no RNG draws, no event scheduling.

        Integrals go through :meth:`Monitor.integral`, whose cache
        extension continues one exact left fold, so a watched session
        keeps the bits of an unwatched one.
        """
        sim = self.sim
        now = sim.env.now
        wanted = set(streams) or set(protocol.TELEMETRY_STREAMS)
        data: dict = {}
        if "power" in wanted:
            zones = sim.dc.cluster.heat_by_zone()
            data["power"] = {
                "zones_w": {z: float(w) for z, w in sorted(zones.items())},
                "it_w": float(sum(zones.values())),
            }
        if "pue" in wanted:
            pue = sim.dc.pue
            it_j = pue.it_monitor.integral(self.start_s, now)
            loss_j = pue.loss_monitor.integral(self.start_s, now)
            mech_j = pue.mechanical_monitor.integral(self.start_s, now)
            data["pue"] = ((it_j + loss_j + mech_j) / it_j
                           if it_j > 0 else math.inf)
        if "served" in wanted:
            offered = sim.farm.offered_monitor.integral(self.start_s, now)
            shed = sim.farm.shed_monitor.integral(self.start_s, now)
            data["served"] = (1.0 - shed / offered) if offered > 0 else 1.0
        if "health" in wanted:
            status = sim.fault_engine.status()
            data["health"] = {
                "mode": sim.manager.mode,
                "active_incidents": len(status.active_incidents),
                "failed_servers": int(status.failed_servers),
                "on_battery": bool(status.on_battery),
                "active_servers": sim.farm.fleet.active_count,
            }
        return data

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def result(self) -> CoSimResult:
        """Summarize everything simulated since session start."""
        return self.sim.summarize(self.start_s, self.sim.env.now,
                                  duration_s=self.elapsed_s)

    def run_script(self, mutations: typing.Iterable, ticks: int
                   ) -> CoSimResult:
        """The golden path: submit a script, advance, summarize.

        Feeding the same scenario + mutation script here and over the
        wire must produce fingerprint-identical results — the CI
        bit-identity gate (EXP-SERVE) holds exactly this.
        """
        for msg in mutations:
            self.submit(msg)
        self.advance(ticks)
        return self.result()
