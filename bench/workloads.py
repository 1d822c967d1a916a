"""The benchmark's five co-simulation workloads.

Each workload class builds its inputs from a seed, sets up once
(:meth:`setup`, timed by the runner) and runs one *episode*: a fixed
simulated horizon advanced tick by tick, with the wall clock read at
every tick boundary through a :class:`Meter`.  An episode returns an
:class:`Episode` holding the outputs the correctness checks compare,
the per-layer facts read from results and ``getrusage``, and the
operations it attempted and failed.

A tick is 60 simulated seconds for the in-process runs and the daemon
(the physical step and the serve tick), and one 300-s macro period
for the sharded and federated runs, whose lockstep barrier is the only
boundary a caller can observe.

Only public ``repro`` names are used, and the facility shapes are
copied here rather than imported from ``repro.perf``, so the
benchmark keeps measuring the same facilities while the library
beneath it is refactored.
"""

from __future__ import annotations

import dataclasses
import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

__all__ = ["WORKLOADS", "Episode", "Meter", "RUN_DIR"]

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space inside the checkout: daemon sockets and span dumps.
RUN_DIR = ROOT / ".bench_run"

HOUR_S = 3600.0
DAY_S = 86_400.0
TICK_S = 60.0
#: The macro-management period: the lockstep of shards and sites.
PERIOD_S = 300.0


class Meter:
    """Wall-clock tick boundaries of one episode's measured phase.

    The first :meth:`mark` opens the phase (and switches the span
    recorder on, in the traced pass); every later mark closes a tick;
    :meth:`stop` closes the phase once the episode's result is in hand.
    """

    def __init__(self, recorder=None):
        self.marks: list[float] = []
        self.end = 0.0
        self.recorder = recorder

    def mark(self) -> None:
        self.marks.append(time.perf_counter())
        if self.recorder is not None:
            self.recorder.on = True

    def stop(self) -> None:
        self.end = time.perf_counter()
        if self.recorder is not None:
            self.recorder.on = False

    @property
    def ticks_s(self) -> np.ndarray:
        return np.diff(self.marks)

    @property
    def wall_s(self) -> float:
        return self.end - self.marks[0]


@dataclasses.dataclass
class Episode:
    """What one episode produced."""

    #: Simulated seconds advanced in the measured phase.
    sim_s: float
    #: Checked against the reference; identical traced and untraced.
    outputs: dict
    #: Per-layer facts (``control.fleet_switches``, ``shard.*``, ...).
    layer: dict
    #: Operations attempted (ticks, mutations) and the failed ones.
    ops: int
    failures: list = dataclasses.field(default_factory=list)
    #: Public names the episode looked for and did not find.
    absent: list = dataclasses.field(default_factory=list)


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def dc_spec(vector: bool = False, **kwargs):
    """A :class:`~repro.datacenter.DataCenterSpec`.

    ``vector`` selects the structure-of-arrays fleet while the spec
    still has a ``backend`` field; once it has one backend only, the
    spec default is used.
    """
    from repro.datacenter import DataCenterSpec

    if vector and "backend" in {
            f.name for f in dataclasses.fields(DataCenterSpec)}:
        kwargs["backend"] = "vector"
    return DataCenterSpec(**kwargs)


def facility(servers: int, zones: int | None = None,
             cracs: int | None = None, vector: bool = False):
    """A balanced facility: 20 servers per rack, a zone per ~50 racks,
    a CRAC per ~2.5 zones, zone conductance scaled to the zone's heat."""
    racks = servers // 20
    if zones is None:
        zones = max(1, min(racks, round(racks / 50)))
    if cracs is None:
        cracs = max(1, min(zones, round(zones / 2.5)))
    return dc_spec(vector, racks=racks, servers_per_rack=20, zones=zones,
                   cracs=cracs,
                   zone_conductance_w_per_k=80_000.0
                   * (servers / zones) / 200.0)


class NoisyDiurnal:
    """Diurnal demand with an 85 % peak times seeded ±5 % noise.

    The noise is one uniform draw per 5-minute step, so the demand is
    identical for a seed.  ``phase_s`` starts the run at that time of
    day instead of midnight.
    """

    def __init__(self, capacity: float, horizon_s: float,
                 rng: np.random.Generator, phase_s: float):
        from repro.workload import DiurnalProfile

        self.profile = DiurnalProfile()
        self.scale = 0.85 * capacity
        self.phase_s = phase_s
        # Cover boot time and the horizon with room to spare.
        n = int((horizon_s + HOUR_S) // PERIOD_S) + 1
        self.factor = (1.0 + rng.uniform(-0.05, 0.05, n)).tolist()

    def __call__(self, t_s: float) -> float:
        return (self.scale * self.profile(t_s + self.phase_s)
                * self.factor[int(t_s // PERIOD_S)])


def cosim_outputs(result) -> dict:
    """The checked outputs of a :class:`~repro.datacenter.CoSimResult`."""
    return {
        "facility_kwh": result.facility_energy_j / 3.6e6,
        "it_kwh": result.it_energy_j / 3.6e6,
        "pue": result.energy_weighted_pue,
        "served_fraction": result.sla.served_fraction,
        "thermal_alarms": result.thermal_alarms,
        "mean_active_servers": result.mean_active_servers,
    }


class _InProcess:
    """A single-process :class:`~repro.datacenter.CoSimulation`.

    Set-up is the constructor, boot storm included; the episode steps
    ``env.run`` one tick at a time and summarises the horizon, which
    gives the same result as one ``run(horizon)`` call.
    """

    def __init__(self, spec, seed: int, horizon_s: float, phase_s: float):
        self.spec = spec
        self.seed = seed
        self.horizon_s = horizon_s
        self.demand = NoisyDiurnal(
            spec.total_servers * spec.server_capacity, horizon_s,
            np.random.default_rng((seed, 1)), phase_s=phase_s)

    def layer_facts(self, sim, result) -> tuple[dict, list]:
        switches = getattr(sim.farm, "active_count_switches", None)
        if switches is None:
            return {}, ["repro.control.ServerFarm.active_count_switches"]
        return {"control.fleet_switches": switches()}, []

    def episode(self, sim, meter: Meter) -> Episode:
        env = sim.env
        start = env.now
        ticks = round(self.horizon_s / TICK_S)
        meter.mark()
        for k in range(1, ticks + 1):
            env.run(until=start + k * TICK_S)
            meter.mark()
        result = sim.summarize(start, env.now, duration_s=self.horizon_s)
        meter.stop()
        layer, absent = self.layer_facts(sim, result)
        return Episode(sim_s=self.horizon_s, outputs=cosim_outputs(result),
                       layer=layer, ops=ticks, absent=absent)


class FleetDiurnal(_InProcess):
    """5k vector servers from 06:00 to 18:00 under noisy diurnal demand:
    the morning wake-up, the 14:00 peak and the evening sleep."""

    name = "fleet-diurnal-5k"

    def __init__(self, seed: int, quick: bool):
        super().__init__(facility(200 if quick else 5_000, vector=True),
                         seed, HOUR_S if quick else 12 * HOUR_S,
                         phase_s=6 * HOUR_S)

    def setup(self):
        from repro.datacenter import CoSimulation
        from repro.sim import RandomStreams

        return CoSimulation(self.spec, self.demand, managed=True,
                            streams=RandomStreams(self.seed))


class FacilityFaulted(_InProcess):
    """500 servers on the spec's default backend through the morning
    ramp (08:00-12:00), a hardened lossy control plane, and a seeded
    CRAC failure, rack-branch trip and utility outage.

    Five zones and two CRACs rather than the balanced shape's one of
    each: in a one-CRAC room any CRAC failure is a total cooling loss
    whose protective shutdowns last the rest of the run, and the
    workload would time a dark facility instead of the control plane.
    """

    name = "facility-faulted-500"

    def __init__(self, seed: int, quick: bool):
        from repro.core.faults import FaultKind, Incident

        horizon_s = HOUR_S if quick else 4 * HOUR_S
        super().__init__(facility(100 if quick else 500, zones=5, cracs=2),
                         seed, horizon_s, phase_s=8 * HOUR_S)
        rng = np.random.default_rng((seed, 2))
        # Each fault starts in its own sixth of the horizon with a
        # little seeded jitter, and hits the same CRAC for the same
        # time, so every seed does about the same work.
        u = horizon_s / 6
        self.incidents = (
            Incident(FaultKind.CRAC_FAILURE, (1 + 0.25 * rng.uniform()) * u,
                     0.3 * u, target=0),
            Incident(FaultKind.RACK_BRANCH, (2.5 + 0.25 * rng.uniform()) * u,
                     u, target=f"{self.spec.name}-rack"
                               f"{int(rng.integers(self.spec.racks))}"),
            Incident(FaultKind.UTILITY_OUTAGE,
                     (4 + 0.25 * rng.uniform()) * u, 0.3 * u),
        )

    def setup(self):
        from repro.controlplane import ControlPlaneProfile
        from repro.core.faults import FaultSchedule
        from repro.datacenter import CoSimulation
        from repro.sim import RandomStreams

        return CoSimulation(self.spec, self.demand, managed=True,
                            fault_schedule=FaultSchedule(self.incidents),
                            streams=RandomStreams(self.seed),
                            control_plane=ControlPlaneProfile.hardened())

    def layer_facts(self, sim, result) -> tuple[dict, list]:
        layer, absent = super().layer_facts(sim, result)
        report = result.controlplane
        if report is None:
            absent.append("repro.datacenter.CoSimResult.controlplane")
        else:
            layer["controlplane.ack_ratio"] = (
                report.commands_acked / report.commands_issued
                if report.commands_issued else 1.0)
            layer["controlplane.retries"] = report.retries_total
        return layer, absent


class ShardedFlat:
    """20k vector servers at a flat 50 % for a day, in four zone shards
    over two shared-memory worker processes.

    Flat demand has no random input, so the seed does not change this
    workload.  Set-up is a one-period run, which pays worker spawn and
    shard build.  Ticks are read at the parent's lockstep barrier: a
    pool subclass wraps each leased worker handle and marks the first
    ``advance`` of every period.
    """

    name = "sharded-flat-20k"

    def __init__(self, seed: int, quick: bool):
        self.horizon_s = HOUR_S if quick else DAY_S
        self.spec = facility(4_000 if quick else 20_000, vector=True)
        self.demand = {"kind": "constant", "fraction": 0.5}
        self.workers = min(2, os.cpu_count() or 1)

    def _sim(self, pool=None):
        from repro.datacenter import ShardedCoSimulation

        kwargs = {"pool": pool} if pool is not None else {}
        return ShardedCoSimulation(self.spec, self.demand, shards=4,
                                   workers=self.workers, **kwargs)

    def setup(self):
        self._sim().run(PERIOD_S)

    def episode(self, _handle, meter: Meter) -> Episode:
        pool, absent = _period_pool(self.workers, meter)
        workers_cpu = _children_cpu_s()
        parent_cpu = time.process_time()
        start = time.perf_counter()
        try:
            result = self._sim(pool).run(self.horizon_s)
            meter.mark()
            meter.stop()
            run_wall = time.perf_counter() - start
            parent_cpu = time.process_time() - parent_cpu
        finally:
            if pool is not None:
                pool.close()
        if len(meter.marks) < 2:  # barrier not observable: one tick
            meter.marks.insert(0, start)
        workers_cpu = _children_cpu_s() - workers_cpu
        layer = {
            "shard.worker_cpu_s": workers_cpu,
            "shard.parent_cpu_s": parent_cpu,
            "shard.parallelism": workers_cpu / run_wall,
            "shard.worker_idle_s": self.workers * run_wall - workers_cpu,
        }
        return Episode(sim_s=self.horizon_s, outputs=cosim_outputs(result),
                       layer=layer, ops=round(self.horizon_s / PERIOD_S),
                       absent=absent)


class _MarkedHandle:
    """A leased shard-worker handle that marks each new period."""

    def __init__(self, handle, period: dict, meter: Meter):
        self._handle = handle
        self._period = period
        self._meter = meter

    def advance(self, until, shares):
        if self._period.get("until") != until:
            self._period["until"] = until
            self._meter.mark()
        return self._handle.advance(until, shares)

    def __getattr__(self, name):
        return getattr(self._handle, name)


def _period_pool(workers: int, meter: Meter):
    """A :class:`~repro.datacenter.ShardWorkerPool` whose leased
    handles mark the lockstep periods, or ``None`` if there is none."""
    try:
        from repro.datacenter import ShardWorkerPool
    except ImportError:
        return None, ["repro.datacenter.ShardWorkerPool"]
    period: dict = {}

    class PeriodPool(ShardWorkerPool):
        def lease(self, *args, **kwargs):
            return [_MarkedHandle(h, period, meter)
                    for h in super().lease(*args, **kwargs)]

    return PeriodPool(workers), []


def fed_geography(horizon_s: float):
    """The EXP-FED geography: five 8-server sites on a latency ring,
    diurnal peaks 4.8 h apart, and a dark dc0 from 2 d 6 h for 12 h of
    a three-day run (scaled to the horizon)."""
    from repro.core.faults import FaultKind, FaultSchedule, Incident
    from repro.federation import (FederationSite, Region, SiteConfig,
                                  SiteMeta)

    n_sites = 5
    scale = horizon_s / (3 * DAY_S)
    sites = []
    for i in range(n_sites):
        name = f"dc{i}"
        spec = dc_spec(True, name=name, racks=2, servers_per_rack=4,
                       zones=2, cracs=1)
        schedule = engine_kwargs = None
        if i == 0:
            schedule = FaultSchedule([Incident(
                FaultKind.UTILITY_OUTAGE, (2 * DAY_S + 6 * HOUR_S) * scale,
                12 * HOUR_S * scale)])
            engine_kwargs = {"generator_start_probability": 0.0}
        sites.append(FederationSite(
            config=SiteConfig(name=name, spec=spec, fault_schedule=schedule,
                              fault_engine_kwargs=engine_kwargs),
            meta=SiteMeta(name=name, energy_price_per_kwh=0.08 + 0.015 * i,
                          static_pue=1.5)))
    capacity = spec.total_servers * spec.server_capacity
    regions = [
        Region(name=f"r{i}", home=f"dc{i}", peak_units=0.45 * capacity,
               latency_ms={f"dc{j}": 20.0 + 15.0 * min(abs(i - j),
                                                       n_sites - abs(i - j))
                           for j in range(n_sites)},
               utc_offset_h=4.8 * i)
        for i in range(n_sites)]
    return sites, regions


class FederatedOutage:
    """Five tiny in-process sites for a day with the dc0 outage.

    Set-up is a one-period run (the sites are built inside ``run``);
    ticks are read at each routing decision.  The seed feeds the
    router's random streams.
    """

    name = "federated-outage-1d"

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        self.horizon_s = HOUR_S if quick else DAY_S

    def _fed(self):
        from repro.federation import FederatedCoSimulation

        sites, regions = fed_geography(self.horizon_s)
        return FederatedCoSimulation(sites, regions, policy="optimizing",
                                     workers=False, seed=self.seed)

    def setup(self):
        self._fed().run(PERIOD_S)

    def episode(self, _handle, meter: Meter) -> Episode:
        fed = self._fed()
        decide = fed.router.decide

        def marked(*args, **kwargs):
            meter.mark()
            return decide(*args, **kwargs)

        fed.router.decide = marked
        result = fed.run(self.horizon_s)
        meter.mark()
        meter.stop()
        sites = result.site_results.values()
        outputs = {
            "facility_kwh": result.facility_energy_j / 3.6e6,
            "it_kwh": result.it_energy_j / 3.6e6,
            "pue": result.energy_weighted_pue,
            "served_fraction": result.served_fraction,
            "thermal_alarms": sum(r.thermal_alarms for r in sites),
            "mean_active_servers": sum(r.mean_active_servers
                                       for r in sites),
            "failovers": result.failovers,
        }
        return Episode(sim_s=self.horizon_s, outputs=outputs,
                       layer={"federation.failovers": result.failovers},
                       ops=round(self.horizon_s / PERIOD_S))


class _Daemon:
    """``python -m repro serve`` as a child process, connected."""

    def __init__(self, racks: int, seed: int):
        from repro.serve import ServeClient

        RUN_DIR.mkdir(exist_ok=True)
        # A relative path keeps the socket name under the AF_UNIX limit
        # however deep the checkout is.
        path = os.path.relpath(RUN_DIR / f"serve-{os.getpid()}.sock")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--unix", path,
             "--racks", str(racks), "--seed", str(seed)],
            env=env, stdout=subprocess.PIPE, text=True)
        try:
            line = self.proc.stdout.readline()
            if not line.startswith("serve: listening"):
                raise RuntimeError(f"daemon did not start: {line!r}")
            self.client = ServeClient(unix_path=path, name="bench")
        except BaseException:
            self._stop()
            raise

    def _stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=30.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()

    def close(self) -> tuple[float, float]:
        """Say goodbye, stop the daemon; its ``(cpu_s, lifetime_s)``."""
        before = _children_cpu_s()
        try:
            self.client.close()
        finally:
            self._stop()
        return (_children_cpu_s() - before,
                time.perf_counter() - self.started)


class ServedFlashCrowd:
    """The NDJSON daemon on 500 servers with one closed-loop client.

    The client subscribes to every stream each tick, submits a
    200k-session flash-crowd script, then sends one ``run(1)`` frame
    at a time for a simulated day, timing each round trip.  Set-up is
    daemon spawn until the ``Welcome`` frame.
    """

    name = "served-flash-crowd"

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        self.racks = 2 if quick else 25
        self.days = 1 / 24 if quick else 1.0
        self.sessions = 2_000 if quick else 200_000

    def setup(self):
        return _Daemon(self.racks, self.seed)

    def episode(self, daemon, meter: Meter) -> Episode:
        from repro.serve import ServeError, ServeScenario, TELEMETRY_STREAMS
        from repro.serve.loadgen import session_script

        failures = []
        try:
            client = daemon.client
            scenario = ServeScenario.from_dict(client.welcome.scenario)
            script, ticks = session_script(scenario, self.sessions,
                                           days=self.days, seed=self.seed)
            client.subscribe(list(TELEMETRY_STREAMS), every_ticks=1)
            ack_s = []
            for mutation in script:
                sent = time.perf_counter()
                try:
                    ack = client.mutate(mutation)
                except ServeError as exc:
                    failures.append(f"mutation answered by error frame "
                                    f"{exc.code}")
                    continue
                ack_s.append(time.perf_counter() - sent)
                if ack.op != mutation.TYPE:
                    failures.append(f"mutation acked as {ack.op!r}")
            meter.mark()
            for _ in range(ticks):
                try:
                    client.run(1)
                except ServeError as exc:
                    failures.append(f"run answered by error frame "
                                    f"{exc.code}")
                meter.mark()
            result = client.result()
            stats = client.stats()
            meter.stop()
        finally:
            cpu_s, lifetime_s = daemon.close()
        frames = len(client.telemetry)
        failures += [f"telemetry frame missing ({frames}/{ticks} arrived)"
                     ] * max(0, ticks - frames)
        dropped = stats.get("frames_dropped", 0)
        failures += ["daemon dropped a frame"] * dropped
        r = result.result
        outputs = {
            "facility_kwh": r["facility_energy_j"] / 3.6e6,
            "it_kwh": r["it_energy_j"] / 3.6e6,
            "pue": r["energy_weighted_pue"],
            "served_fraction": r["sla"]["served_fraction"],
            "thermal_alarms": r["thermal_alarms"],
            "mean_active_servers": r["mean_active_servers"],
            "fingerprint": result.fingerprint,
        }
        layer = {
            "serve.daemon_cpu_s": cpu_s,
            "serve.daemon_busy_ratio": cpu_s / lifetime_s,
            "serve.ack_p50_ms": float(np.median(ack_s)) * 1e3
            if ack_s else 0.0,
            "serve.tick_p99_ms": float(np.percentile(meter.ticks_s, 99))
            * 1e3,
            "serve.frames_dropped": dropped,
        }
        return Episode(sim_s=ticks * scenario.tick_s, outputs=outputs,
                       layer=layer, ops=len(script) + ticks,
                       failures=failures)


WORKLOADS = {cls.name: cls for cls in (FleetDiurnal, FacilityFaulted,
                                       ShardedFlat, FederatedOutage,
                                       ServedFlashCrowd)}
