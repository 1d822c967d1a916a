"""Zone-sharded parallel plants: one facility split across cores.

A 10⁵-server day is embarrassingly parallel *between* thermal zones:
racks heat only their own zone, zones couple only to their CRACs, and
the farm's dispatch treats capacity as a fungible pool.  This module
exploits that structure by partitioning one :class:`DataCenterSpec`
into ``shards`` self-similar sub-facilities (each takes a contiguous
block of zones plus every rack and a proportional slice of CRACs and
UPS capacity) and co-simulating the shards independently, in lockstep
macro-periods.

At every sync point the driver gathers one aggregate column from each
shard — its deliverable (healthy) capacity — and redistributes the
global demand proportionally for the next period, exactly what a
global load balancer in front of N rooms would do.  Between sync
points the shards share nothing, so they can run in worker processes
(one batch of shards per worker) with only ``2 × shards`` floats
crossing the boundary per period.

Workers
-------
``workers > 1`` runs each shard batch as a :class:`_ShardGroup` in a
supervised pipe worker (:mod:`repro.datacenter.workers`, the same
supervisor the federation uses): every reply has a deadline, a dead or
hung worker is respawned and its message log — the ``build`` message
plus every ``advance`` — replayed, so a SIGKILLed worker changes wall
time, not the result.  A :class:`ShardWorkerPool` keeps workers warm
between runs (bench ``--repeat`` loops); each run re-``build``\\ s its
shard batches on the warm processes.

Determinism contract
--------------------
* The worker-side driver is the *same object* (:class:`_ShardGroup`)
  the in-process path uses; the parent computes shares from shard
  aggregates in shard-index order in both modes.  ``workers=1``
  therefore produces a bit-identical :class:`CoSimResult` to
  ``workers=N`` — with or without a worker SIGKILL — and is the
  reference for the parallel path, mirroring ``perf.sweep``'s
  contract.
* The *single-process unsharded* path is untouched: sharding is a new
  driver next to :class:`CoSimulation`, not a change to it, so manager
  decisions and golden tables cannot shift.

Fault domains inside shards
---------------------------
A facility-level :class:`~repro.core.faults.FaultSchedule` can ride
into the shards: :func:`partition_faults` retargets each incident at
the shard that owns its fault domain (rack branches follow the rack,
CRAC failures follow the proportional CRAC slice, UPS derates and
utility outages replicate into every shard, whose UPS banks jointly
*are* the facility's).  Shard :class:`ResilienceReport`\\ s merge with
:func:`merge_resilience`.  The exchanged capacity column is the
*healthy* capacity (installed minus failed servers) rather than the
awake capacity, so a repaired shard's share snaps back at the next
sync point instead of starving behind its own sleep state.

Merge semantics (documented approximations)
-------------------------------------------
Energies, alarms and mean active servers sum exactly.  The merged PUE
is the energy-weighted quotient of the summed energies.  The merged
served fraction is recomputed from summed offered/shed work — exact.
The response percentile is taken as the *worst shard's* percentile
(a conservative bound; per-sample merging would need the raw series).
``peak_grid_w`` sums per-shard peaks, an upper bound on the true
coincident peak (shards peak at slightly different instants).
Resilience reports concatenate incidents and sum counters; the
during-incident SLA is the worst shard's (same convention).
"""

from __future__ import annotations

import dataclasses
import math
import typing

from repro.core.faults import FaultKind, FaultSchedule, ResilienceReport
from repro.core.sla import SLAReport
from repro.datacenter.cosim import CoSimResult, CoSimulation
from repro.datacenter.spec import DataCenterSpec
from repro.datacenter.workers import Job, ShardWorkerPool, supervised
from repro.workload.diurnal import declared_demand

__all__ = [
    "partition_spec",
    "partition_faults",
    "merge_resilience",
    "merge_results",
    "ShardedCoSimulation",
]


def partition_spec(spec: DataCenterSpec,
                   shards: int) -> list[DataCenterSpec]:
    """Split a facility into ``shards`` self-similar sub-specs.

    Zones are dealt out in contiguous blocks (largest-remainder, so
    block sizes differ by at most one); each shard receives exactly
    the racks the builder would have mapped to its zones (rack ``r``
    lands in zone ``r % zones``) and a proportional CRAC count
    (rounded, floored at one).  Per-server parameters, tier, and the
    per-zone conductance carry over unchanged, so each shard is a
    smaller facility with the same physics per zone; UPS and tree
    ratings re-derive from the shard's own rack count.
    """
    if shards < 1:
        raise ValueError(f"need at least one shard, got {shards}")
    if shards > spec.zones:
        raise ValueError(
            f"cannot cut {spec.zones} zones into {shards} shards")
    base, rem = divmod(spec.zones, shards)
    specs = []
    zone_lo = 0
    for i in range(shards):
        n_zones = base + (1 if i < rem else 0)
        zone_hi = zone_lo + n_zones
        n_racks = sum(
            spec.racks // spec.zones
            + (1 if z < spec.racks % spec.zones else 0)
            for z in range(zone_lo, zone_hi))
        n_cracs = max(1, min(n_zones,
                             round(spec.cracs * n_zones / spec.zones)))
        specs.append(dataclasses.replace(
            spec, name=f"{spec.name}-shard{i}", racks=n_racks,
            zones=n_zones, cracs=n_cracs))
        zone_lo = zone_hi
    return specs


def _zone_blocks(spec: DataCenterSpec,
                 shard_specs: list[DataCenterSpec]) -> list[range]:
    """The contiguous global-zone block each shard covers."""
    blocks = []
    lo = 0
    for part in shard_specs:
        blocks.append(range(lo, lo + part.zones))
        lo += part.zones
    return blocks


def _rack_map(spec: DataCenterSpec,
              shard_specs: list[DataCenterSpec]
              ) -> dict[str, tuple[int, str]]:
    """``{facility rack name: (shard index, shard-local rack name)}``.

    The shard builder assigns its local rack ``r'`` to local zone
    ``r' % zones``; enumerating the global racks of a shard's zone
    block in the same cycling order reproduces that assignment, so a
    fault aimed at facility rack ``dc-rack7`` lands on the shard rack
    holding the same servers in the same (relabelled) zone.
    """
    mapping: dict[str, tuple[int, str]] = {}
    for i, (part, block) in enumerate(
            zip(shard_specs, _zone_blocks(spec, shard_specs))):
        local = 0
        for k in range((spec.racks // spec.zones) + 1):
            for z in block:
                r = z + k * spec.zones
                if r < spec.racks and local < part.racks:
                    mapping[f"{spec.name}-rack{r}"] = (
                        i, f"{part.name}-rack{local}")
                    local += 1
    return mapping


def partition_faults(spec: DataCenterSpec,
                     shard_specs: list[DataCenterSpec],
                     schedule: FaultSchedule) -> list[FaultSchedule]:
    """Split a facility fault schedule into per-shard schedules.

    * ``RACK_BRANCH`` incidents follow their rack into the shard that
      owns it (retargeted to the shard-local rack name).
    * ``CRAC_FAILURE`` incidents follow the proportional CRAC slice:
      global unit ``c`` belongs to the shard whose cumulative CRAC
      count covers it, clamped into the shard's own range (rounding
      can shrink a slice).
    * ``UPS_DERATE`` and ``UTILITY_OUTAGE`` are facility-wide:
      replicated into every shard, whose UPS banks jointly are the
      facility's parallel bank.
    """
    racks = _rack_map(spec, shard_specs)
    crac_lo = []
    lo = 0
    for part in shard_specs:
        crac_lo.append(lo)
        lo += part.cracs
    total_cracs = lo
    schedules = [FaultSchedule() for _ in shard_specs]
    for incident in schedule.ordered():
        if incident.kind is FaultKind.RACK_BRANCH:
            if incident.target not in racks:
                raise KeyError(f"no rack named {incident.target!r} "
                               f"in {spec.name!r}")
            shard, local = racks[incident.target]
            schedules[shard].add(
                dataclasses.replace(incident, target=local))
        elif incident.kind is FaultKind.CRAC_FAILURE:
            # Map the facility CRAC index onto the concatenated shard
            # slices (scaled when rounding changed the total).
            c = int(incident.target)
            if not 0 <= c < spec.cracs:
                raise IndexError(f"CRAC {c} outside facility range")
            scaled = min(total_cracs - 1, c * total_cracs // spec.cracs)
            shard = 0
            for i, lo in enumerate(crac_lo):
                if scaled >= lo:
                    shard = i
            local = min(scaled - crac_lo[shard],
                        shard_specs[shard].cracs - 1)
            schedules[shard].add(
                dataclasses.replace(incident, target=local))
        else:  # facility-wide: UPS derate, utility outage
            for shard_schedule in schedules:
                shard_schedule.add(incident)
    return schedules


def merge_resilience(reports: typing.Sequence[ResilienceReport | None]
                     ) -> ResilienceReport | None:
    """Fold per-shard resilience reports into one facility report.

    Incidents concatenate (sorted by start time, then kind/target for
    a deterministic order); counters sum; MTTR is recomputed over the
    merged closed incidents.  The during-incident SLA is the worst
    shard's report (lowest served fraction) — the same conservative
    worst-shard convention the response percentile uses.
    """
    present = [r for r in reports if r is not None]
    if not present:
        return None
    incidents = tuple(sorted(
        (rec for r in present for rec in r.incidents),
        key=lambda rec: (rec.start_s, rec.kind.value, str(rec.target))))
    closed = [rec.duration_s for rec in incidents
              if not rec.active and not math.isnan(rec.duration_s)]
    worst_sla: SLAReport | None = None
    for r in present:
        sla = r.sla_during_incidents
        if sla is None:
            continue
        if worst_sla is None or (
                sla.served_fraction < worst_sla.served_fraction):
            worst_sla = sla
    return ResilienceReport(
        incident_count=sum(r.incident_count for r in present),
        incidents=incidents,
        mttr_s=sum(closed) / len(closed) if closed else 0.0,
        degraded_mode_s=sum(r.degraded_mode_s for r in present),
        mode_transitions=sum(r.mode_transitions for r in present),
        protective_shutdowns=sum(r.protective_shutdowns
                                 for r in present),
        blackouts=sum(r.blackouts for r in present),
        sla_during_incidents=worst_sla,
        incident_energy_j=sum(r.incident_energy_j for r in present),
    )


def merge_results(finished: typing.Sequence[tuple[CoSimResult, float,
                                                  float]],
                  duration_s: float) -> CoSimResult:
    """Fold ``(result, offered, shed)`` triples into one summary.

    The merge semantics documented in the module docstring; each
    triple is one shard's :meth:`CoSimulation.summarize_work`.
    """
    results = [f[0] for f in finished]
    offered = 0.0
    shed = 0.0
    it = 0.0
    facility = 0.0
    active = 0.0
    alarms = 0
    peak = 0.0
    worst_response = float("nan")
    for result, shard_offered, shard_shed in finished:
        offered += shard_offered
        shed += shard_shed
        it += result.it_energy_j
        facility += result.facility_energy_j
        active += result.mean_active_servers
        alarms += result.thermal_alarms
        peak += result.peak_grid_w
        response = result.sla.measured_response_s
        if not math.isnan(response) and not (
                worst_response >= response):
            worst_response = response
    sla = SLAReport(
        sla=results[0].sla.sla,
        measured_response_s=worst_response,
        served_fraction=(1.0 - shed / offered if offered > 0.0
                         else 1.0),
    )
    return CoSimResult(
        duration_s=duration_s,
        it_energy_j=it,
        facility_energy_j=facility,
        energy_weighted_pue=(facility / it if it > 0.0
                             else float("inf")),
        mean_active_servers=active,
        sla=sla,
        thermal_alarms=alarms,
        peak_grid_w=peak,
        resilience=merge_resilience([r.resilience for r in results]),
    )


class _Shard:
    """One sub-facility co-simulation plus its mutable demand share."""

    def __init__(self, index: int, spec: DataCenterSpec, demand_cfg: dict,
                 total_capacity: float,
                 fault_schedule: FaultSchedule | None = None):
        self.index = index
        self.share = 0.0  # parent sends the real share before each period
        global_fn = declared_demand(demand_cfg, total_capacity)

        def shard_demand(t: float) -> float:
            return global_fn(t) * self.share

        self.sim = CoSimulation(spec, shard_demand,
                                fault_schedule=fault_schedule)
        self.start = self.sim.env.now


class _ShardGroup:
    """Drives a batch of shards; used verbatim in-process and in workers."""

    def __init__(self, items: list[tuple], demand_cfg: dict,
                 total_capacity: float):
        self.shards = [_Shard(i, s, demand_cfg, total_capacity,
                              fault_schedule=sched)
                       for i, s, sched in items]

    def ready(self) -> list[tuple[int, float, float]]:
        return [(s.index, s.start, s.sim.dc.healthy_capacity())
                for s in self.shards]

    def advance(self, until: float,
                shares: dict[int, float]) -> list[tuple[int, float]]:
        out = []
        for s in self.shards:
            s.share = shares[s.index]
            s.sim.env.run(until=until)
            out.append((s.index, s.sim.dc.healthy_capacity()))
        return out

    def finish(self) -> list[tuple[int, tuple]]:
        return [(s.index, s.sim.summarize_work(s.start))
                for s in self.shards]


class ShardedCoSimulation:
    """Co-simulate one facility as zone shards in macro-period lockstep.

    Parameters
    ----------
    spec:
        The whole facility; :func:`partition_spec` cuts it up.
    demand:
        Declarative global demand (picklable — it must cross the
        process boundary): a :func:`~repro.workload.declared_demand`
        block, ``{"kind": "constant"|"diurnal", "fraction": f}``, with
        the fraction relative to the *full* facility's capacity.  Every
        shard runs the elastic macro manager.
    shards:
        Number of sub-facilities (≤ ``spec.zones``).
    workers:
        OS processes.  ``<= 1`` runs every shard in-process — the
        bit-identical reference; larger values deal shards round-robin
        over ``min(workers, shards)`` supervised pipe workers.
    sync_period_s:
        Lockstep macro-period between demand redistributions (default
        300 s, the macro-management cadence).
    fault_schedule:
        Optional facility-level fault schedule, partitioned into the
        shards by :func:`partition_faults`; the merged result carries
        the merged :class:`~repro.core.faults.ResilienceReport`.
    recv_deadline_s:
        Wall-clock deadline for any single worker reply (a macro
        period of the largest shard takes well under a second; the
        default 120 s only trips on a genuinely dead or hung worker).
    pool:
        Optional :class:`ShardWorkerPool` to lease worker processes
        from instead of spawning fresh ones (warm reuse across bench
        repeats).  The pool outlives the run; the caller closes it.
    """

    def __init__(self, spec: DataCenterSpec, demand: dict,
                 shards: int = 2, workers: int = 1,
                 sync_period_s: float = 300.0,
                 fault_schedule: FaultSchedule | None = None,
                 recv_deadline_s: float = 120.0,
                 pool: ShardWorkerPool | None = None):
        if sync_period_s <= 0:
            raise ValueError("sync period must be positive")
        if recv_deadline_s <= 0:
            raise ValueError("receive deadline must be positive")
        if not isinstance(demand, dict):
            raise TypeError("demand must be a declarative dict "
                            "(it crosses the process boundary)")
        declared_demand(demand, 1.0)  # validate the config eagerly
        self.spec = spec
        self.demand = dict(demand)
        self.shard_specs = partition_spec(spec, shards)
        self.shard_faults: list[FaultSchedule | None]
        if fault_schedule is None:
            self.shard_faults = [None] * len(self.shard_specs)
        else:
            self.shard_faults = list(partition_faults(
                spec, self.shard_specs, fault_schedule))
        self.workers = max(1, min(int(workers), len(self.shard_specs)))
        self.sync_period_s = float(sync_period_s)
        self.recv_deadline_s = float(recv_deadline_s)
        self.total_capacity = spec.total_servers * spec.server_capacity
        #: Static fallback shares (proportional to installed capacity),
        #: used whenever the fleet reports zero deliverable capacity.
        caps = [s.total_servers * spec.server_capacity
                for s in self.shard_specs]
        total = 0.0
        for cap in caps:
            total += cap
        self._static_shares = {i: cap / total
                               for i, cap in enumerate(caps)}
        self.pool = pool
        self._ran = False

    def _shares(self, caps: dict[int, float]) -> dict[int, float]:
        """Demand shares from the exchanged capacity column.

        Summed in shard-index order so the in-process and worker paths
        fold identically.
        """
        total = 0.0
        for i in sorted(caps):
            total += caps[i]
        if total <= 0.0:
            return dict(self._static_shares)
        return {i: caps[i] / total for i in sorted(caps)}

    def run(self, duration_s: float) -> CoSimResult:
        """Advance every shard through ``duration_s`` and merge."""
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        if self._ran:
            raise RuntimeError("a sharded co-simulation runs once")
        self._ran = True
        jobs = self._jobs()
        if self.workers <= 1:
            return self._drive([job.factory(*job.args) for job in jobs],
                               duration_s)
        with supervised(jobs, self.recv_deadline_s,
                        pool=self.pool) as groups:
            return self._drive(groups, duration_s)

    def _jobs(self) -> list[Job]:
        """One :class:`_ShardGroup` build per worker (round-robin)."""
        items = [(i, spec, sched) for i, (spec, sched) in enumerate(
            zip(self.shard_specs, self.shard_faults))]
        jobs = []
        for w in range(self.workers):
            batch = items[w::self.workers]
            jobs.append(Job(f"shards {[i for i, _, _ in batch]}",
                            _ShardGroup, (batch, self.demand,
                                          self.total_capacity)))
        return jobs

    def _drive(self, groups, duration_s: float) -> CoSimResult:
        """The lockstep loop over :class:`_ShardGroup`\\ s or handles."""
        caps: dict[int, float] = {}
        starts: set[float] = set()
        for group in groups:
            for index, start, cap in group.ready():
                starts.add(start)
                caps[index] = cap
        if len(starts) != 1:  # pragma: no cover - spec invariant
            raise RuntimeError(f"shards disagree on start: {starts}")
        t = start = starts.pop()
        end = start + duration_s
        while t < end:
            t = min(t + self.sync_period_s, end)
            shares = self._shares(caps)
            if self.workers > 1:
                # Scatter, then gather: every worker computes the
                # period while the parent collects in handle order.
                for group in groups:
                    group.post_advance(t, shares)
            for index, cap in [pair for group in groups
                               for pair in group.advance(t, shares)]:
                caps[index] = cap
        finished: dict[int, tuple] = {}
        for group in groups:
            finished.update(group.finish())
        return merge_results([finished[i] for i in sorted(finished)],
                             duration_s)
