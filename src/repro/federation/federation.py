"""Federated co-simulation: N plants, one router, crash-tolerant glue.

:class:`FederatedCoSimulation` is the top of the stack: each
federation site is a full plant (:mod:`repro.federation.sites`)
advancing in macro-period lockstep, the
:class:`~repro.federation.router.GlobalRouter` places regional demand
between periods, and — with ``workers=True`` — every site lives in its
own worker process behind a supervisor that makes worker death a
wall-time event instead of a correctness event.

Crash tolerance is log-structured replay, not state snapshotting: the
site workers run under the supervisor the zone-sharded plant also uses
(:mod:`repro.datacenter.workers`), which records every message it sent
— the ``build`` carrying the picklable
:class:`~repro.federation.sites.SiteConfig`, then one routed level per
period.  When :func:`~repro.datacenter.workers.poll_recv` reports the
worker dead or hung, the supervisor respawns it, replays the log
(discarding the replies it already consumed — the simulation is
deterministic, so they are bit-identical), and takes the reply to the
in-flight message.  A SIGKILL at any macro period therefore yields a
:class:`FederationResult` bit-identical to an uninterrupted run; the
restart count lives on the driver (:attr:`recoveries`), *not* in the
result, precisely because it is a wall-time fact.

Determinism contract: ``workers=False`` (everything in-process) is the
bit-identical reference for ``workers=True``, with or without worker
kills — the federation test asserts all three ways.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import typing

from repro.datacenter.cosim import CoSimResult
from repro.datacenter.workers import Job, supervised
from repro.sim import RandomStreams
from repro.workload.diurnal import DiurnalProfile

from repro.federation.router import (
    GlobalRouter,
    Region,
    RouteDecision,
    RouterConfig,
    SiteMeta,
)
from repro.federation.sites import SiteConfig, SiteRuntime, SiteSummary

__all__ = ["FederationSite", "FederationResult",
           "FederatedCoSimulation"]


@dataclasses.dataclass(frozen=True)
class FederationSite:
    """One site: its plant config plus parent-side routing metadata."""

    config: SiteConfig
    meta: SiteMeta

    def __post_init__(self):
        # The router keys assignments by the meta name and the plant
        # reports under the config name; a mismatch would route the
        # site no work and drop its region's demand unaccounted.
        if self.config.name != self.meta.name:
            raise ValueError(
                f"site config name {self.config.name!r} differs from "
                f"its routing name {self.meta.name!r}")

    @property
    def name(self) -> str:
        return self.config.name


@dataclasses.dataclass
class FederationResult:
    """Deterministic summary of one federated run.

    Everything here is a function of simulation state only — restart
    counts and wall times are deliberately excluded so a run with
    worker crashes compares equal to a clean one.
    """

    duration_s: float
    site_results: dict[str, CoSimResult]
    #: Work ledger, all in unit-seconds of demand.
    offered_unit_s: float
    placed_unit_s: float
    router_shed_unit_s: float
    site_shed_unit_s: float
    served_fraction: float
    #: Merged plant energetics.
    it_energy_j: float
    facility_energy_j: float
    energy_weighted_pue: float
    #: Router ledger.
    routing_cost: float
    failovers: int
    transitions: tuple
    decisions: int

    @property
    def facility_kwh(self) -> float:
        return self.facility_energy_j / 3.6e6


class FederatedCoSimulation:
    """Drive N site plants under one global router.

    Parameters
    ----------
    sites:
        The federation members (plant config + routing metadata).
    regions:
        User populations with home sites, latency geometry, peak
        demand, and the UTC offset that phases their diurnal cycle.
    policy:
        ``"optimizing"`` (managed federation) or ``"static-home"``
        (the naive baseline) — see :class:`GlobalRouter`.
    workers:
        ``False`` runs every site in-process (the bit-identical
        reference); ``True`` gives each site its own supervised
        worker process.
    period_s:
        Macro period between routing decisions (default 300 s).
    recv_deadline_s / max_restarts:
        Supervisor knobs: per-reply deadline and the restart budget
        per site before the run is abandoned.
    chaos_kill:
        ``{site name: period index}`` — SIGKILL that site's worker
        just before the given period's exchange (test hook for the
        crash-tolerance contract; ignored in-process).
    """

    def __init__(self, sites: typing.Sequence[FederationSite],
                 regions: typing.Sequence[Region],
                 policy: str = "optimizing",
                 workers: bool = False,
                 period_s: float = 300.0,
                 router_config: RouterConfig | None = None,
                 seed: int = 0,
                 recv_deadline_s: float = 60.0,
                 max_restarts: int = 3,
                 chaos_kill: typing.Mapping[str, int] | None = None):
        if period_s <= 0:
            raise ValueError("period must be positive")
        names = [s.name for s in sites]
        if len(names) != len(set(names)):
            raise ValueError("duplicate site names")
        self.sites = list(sites)
        self.regions = list(regions)
        self.policy = policy
        self.workers = bool(workers)
        self.period_s = float(period_s)
        self.recv_deadline_s = float(recv_deadline_s)
        self.max_restarts = int(max_restarts)
        self.chaos_kill = dict(chaos_kill or {})
        self.router = GlobalRouter(
            [s.meta for s in sites], regions, config=router_config,
            policy=policy, streams=RandomStreams(seed))
        self._profile = DiurnalProfile()
        #: Worker restarts per site — a wall-time fact, never part of
        #: the result.
        self.recoveries = {name: 0 for name in names}
        self._ran = False

    def demand_at(self, t_s: float) -> dict[str, float]:
        """Each region's demand level (units/s) at federation time t."""
        return {
            r.name: r.peak_units * self._profile(
                t_s + r.utc_offset_h * 3600.0)
            for r in self.regions}

    def run(self, duration_s: float) -> FederationResult:
        """Advance the federation through ``duration_s`` and merge."""
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        if self._ran:
            raise RuntimeError("a federated co-simulation runs once")
        self._ran = True
        jobs = [Job(f"site {s.name!r}", SiteRuntime, (s.config,))
                for s in self.sites]
        if not self.workers:
            return self._drive([job.factory(*job.args) for job in jobs],
                               duration_s)
        with supervised(jobs, self.recv_deadline_s,
                        self.max_restarts) as handles:
            try:
                return self._drive(handles, duration_s)
            finally:
                for site, handle in zip(self.sites, handles):
                    self.recoveries[site.name] = handle.restarts

    def _maybe_kill(self, name: str, handle, period: int) -> None:
        if self.chaos_kill.get(name) == period:
            os.kill(handle.pid, signal.SIGKILL)
            handle.proc.join(timeout=10.0)

    def _drive(self, handles, duration_s: float) -> FederationResult:
        """The lockstep loop over :class:`SiteRuntime`\\ s or handles."""
        names = [s.name for s in self.sites]
        summaries: dict[str, SiteSummary] = {
            name: h.ready() for name, h in zip(names, handles)}
        starts = {s.time_s for s in summaries.values()}
        if len(starts) != 1:
            raise RuntimeError(
                f"sites disagree on start time: {starts} — "
                "federation sites must share boot_s")
        t = start = starts.pop()
        end = start + duration_s
        offered = 0.0
        router_shed = 0.0
        cost = 0.0
        period = 0
        decision: RouteDecision
        while t < end:
            t_next = min(t + self.period_s, end)
            dt = t_next - t
            # Provision against the demand level at the *end* of the
            # period: on a rising diurnal edge the assignment then
            # covers the whole period instead of trailing it by one
            # step.
            demands = self.demand_at(t_next)
            decision = self.router.decide(t, summaries, demands)
            offered += sum(demands.values()) * dt
            router_shed += decision.total_shed * dt
            cost += decision.cost_per_hour * dt / 3600.0
            if self.workers:
                # Scatter, then gather: every site worker computes the
                # period while the parent collects in site order.
                for name, handle in zip(names, handles):
                    self._maybe_kill(name, handle, period)
                    handle.post_advance(
                        t_next, decision.assignments.get(name, 0.0))
            for name, handle in zip(names, handles):
                summaries[name] = handle.advance(
                    t_next, decision.assignments.get(name, 0.0))
            t = t_next
            period += 1
        finished = {name: h.finish() for name, h in zip(names, handles)}
        site_results = {name: f[0] for name, f in finished.items()}
        placed = sum(f[1] for f in finished.values())
        site_shed = sum(f[2] for f in finished.values())
        it = sum(r.it_energy_j for r in site_results.values())
        facility = sum(r.facility_energy_j
                       for r in site_results.values())
        shed_total = router_shed + site_shed
        return FederationResult(
            duration_s=duration_s,
            site_results=site_results,
            offered_unit_s=offered,
            placed_unit_s=placed,
            router_shed_unit_s=router_shed,
            site_shed_unit_s=site_shed,
            served_fraction=(1.0 - shed_total / offered
                             if offered > 0.0 else 1.0),
            it_energy_j=it,
            facility_energy_j=facility,
            energy_weighted_pue=(facility / it if it > 0.0
                                 else float("inf")),
            routing_cost=cost,
            failovers=self.router.failovers,
            transitions=tuple(self.router.transitions),
            decisions=self.router.decisions,
        )
