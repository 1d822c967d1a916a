"""Zone-sharded parallel plant: partitioning, lockstep, bit-identity.

The determinism contract under test is the one ``perf.sweep``
established for pools: the in-process path (``workers=1``) is the
reference, and the multi-process path must reproduce it bit for bit —
parallelism, warm pool reuse and a SIGKILLed worker may only change
wall time.
"""

import dataclasses
import multiprocessing
import os
import random
import signal

import pytest

from repro.datacenter import (
    CoSimulation,
    DataCenterSpec,
    ShardedCoSimulation,
    ShardWorkerPool,
    partition_spec,
)


def _spec(**overrides):
    base = dict(racks=8, servers_per_rack=10, zones=4, cracs=2)
    base.update(overrides)
    return DataCenterSpec(**base)


DEMAND = {"kind": "diurnal", "fraction": 0.6}


class TestPartitionSpec:
    def test_conserves_racks_and_zones(self):
        spec = _spec(racks=13, zones=5, cracs=3)
        parts = partition_spec(spec, 3)
        assert sum(p.racks for p in parts) == spec.racks
        assert sum(p.zones for p in parts) == spec.zones
        # Contiguous largest-remainder blocks: sizes differ by <= 1.
        sizes = [p.zones for p in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_rack_counts_follow_zone_assignment(self):
        # build() maps rack r -> zone r % zones; each shard must get
        # exactly the racks of its zone block.
        spec = _spec(racks=11, zones=4, cracs=2)
        parts = partition_spec(spec, 2)
        # zones 0,1 -> racks {0,4,8} u {1,5,9}; zones 2,3 -> the rest.
        assert [p.racks for p in parts] == [6, 5]

    def test_single_shard_is_whole_facility(self):
        spec = _spec()
        (part,) = partition_spec(spec, 1)
        assert part.racks == spec.racks
        assert part.zones == spec.zones
        assert part.cracs == spec.cracs
        # Only the name changes.
        assert dataclasses.replace(part, name=spec.name) == spec

    def test_every_shard_is_a_valid_spec(self):
        spec = _spec(racks=50, zones=7, cracs=3)
        for part in partition_spec(spec, 7):
            assert part.racks >= part.zones >= 1
            assert part.cracs >= 1

    def test_rejects_more_shards_than_zones(self):
        with pytest.raises(ValueError):
            partition_spec(_spec(zones=4), 5)
        with pytest.raises(ValueError):
            partition_spec(_spec(), 0)


class TestShardedCoSimulation:
    def test_workers_bit_identical_to_in_process(self):
        spec = _spec()
        ref = ShardedCoSimulation(spec, DEMAND, shards=2,
                                  workers=1).run(4 * 3600.0)
        par = ShardedCoSimulation(spec, DEMAND, shards=2,
                                  workers=2).run(4 * 3600.0)
        assert par == ref

    def test_worker_batching_bit_identical(self):
        # 4 shards over 2 workers (two shards per pipe server) must
        # match 4 shards in-process: grouping only changes scheduling.
        spec = _spec()
        ref = ShardedCoSimulation(spec, DEMAND, shards=4,
                                  workers=1).run(2 * 3600.0)
        par = ShardedCoSimulation(spec, DEMAND, shards=4,
                                  workers=2).run(2 * 3600.0)
        assert par == ref

    def test_merged_result_is_physical(self):
        result = ShardedCoSimulation(_spec(), DEMAND, shards=2,
                                     workers=1).run(4 * 3600.0)
        assert result.duration_s == 4 * 3600.0
        assert result.facility_energy_j > result.it_energy_j > 0.0
        assert result.energy_weighted_pue == pytest.approx(
            result.facility_energy_j / result.it_energy_j)
        assert 0.0 < result.sla.served_fraction <= 1.0
        assert result.mean_active_servers > 0.0
        assert result.peak_grid_w > 0.0
        assert result.resilience is None and result.controlplane is None

    def test_demand_follows_capacity_between_shards(self):
        # Unequal shards must receive unequal demand: the 3-zone shard
        # serves ~3x the work of the 1-zone shard.
        spec = _spec(racks=8, zones=4)
        sharded = ShardedCoSimulation(spec, DEMAND, shards=2, workers=1)
        assert [s.zones for s in sharded.shard_specs] == [2, 2]
        lopsided = partition_spec(spec, 4)
        assert [s.racks for s in lopsided] == [2, 2, 2, 2]
        result = ShardedCoSimulation(spec, DEMAND, shards=4,
                                     workers=1).run(2 * 3600.0)
        assert result.sla.served_fraction > 0.99

    def test_rejects_callable_demand(self):
        with pytest.raises(TypeError):
            ShardedCoSimulation(_spec(), lambda t: 100.0, shards=2)

    def test_rejects_unknown_demand_kind(self):
        with pytest.raises(ValueError):
            ShardedCoSimulation(_spec(), {"kind": "sawtooth"}, shards=2)

    def test_runs_once(self):
        sharded = ShardedCoSimulation(_spec(), DEMAND, shards=2)
        sharded.run(3600.0)
        with pytest.raises(RuntimeError):
            sharded.run(3600.0)

    def test_tracks_unsharded_energy(self):
        # Sharding approximates the monolith: same servers, same
        # demand, a re-derived power/cooling plant per shard.  The
        # headline energy should land in the same ballpark (the UPS
        # and CRAC sizing differ slightly), and all work is served.
        spec = _spec()
        capacity = spec.total_servers * spec.server_capacity
        from repro.workload import DiurnalProfile
        profile = DiurnalProfile()
        mono = CoSimulation(
            spec, lambda t: 0.6 * capacity * profile(t),
            managed=True).run(4 * 3600.0)
        shard = ShardedCoSimulation(spec, DEMAND, shards=2,
                                    workers=1).run(4 * 3600.0)
        assert shard.it_energy_j == pytest.approx(mono.it_energy_j,
                                                  rel=0.15)
        assert shard.sla.served_fraction > 0.997


class TestPollRecv:
    def test_timeout_names_context(self):
        import multiprocessing

        from repro.datacenter import ShardWorkerTimeout, poll_recv

        parent, child = multiprocessing.Pipe()
        try:
            with pytest.raises(ShardWorkerTimeout) as err:
                poll_recv(parent, 0.2, context=" (shards [3], last "
                                               "completed period 7)")
            assert "shards [3]" in str(err.value)
            assert "period 7" in str(err.value)
        finally:
            parent.close()
            child.close()

    def test_closed_pipe_raises_died(self):
        import multiprocessing

        from repro.datacenter import ShardWorkerDied, poll_recv

        parent, child = multiprocessing.Pipe()
        child.close()
        try:
            with pytest.raises(ShardWorkerDied):
                poll_recv(parent, 1.0)
        finally:
            parent.close()

    def test_timeout_is_a_died(self):
        from repro.datacenter import ShardWorkerDied, ShardWorkerTimeout

        assert issubclass(ShardWorkerTimeout, ShardWorkerDied)

    def test_rejects_nonpositive_deadline(self):
        import multiprocessing

        from repro.datacenter import poll_recv

        parent, child = multiprocessing.Pipe()
        try:
            with pytest.raises(ValueError):
                poll_recv(parent, 0.0)
        finally:
            parent.close()
            child.close()

    def test_killed_worker_names_shard_and_period(self):
        """A SIGKILLed shard worker with no restart budget left surfaces
        as ShardWorkerDied with the shard ids and last completed macro
        period in the message — never as a parent blocked forever in
        recv()."""
        import os
        import signal

        from repro.datacenter import ShardWorkerDied
        from repro.datacenter.workers import WorkerHandle

        sim = ShardedCoSimulation(_spec(), DEMAND, shards=2, workers=1)
        (job,) = sim._jobs()
        handle = WorkerHandle(job, recv_deadline_s=30.0, max_restarts=0)
        try:
            ready = handle.ready()
            start = ready[0][1]
            handle.advance(start + 300.0,
                           {0: 0.5, 1: 0.5})
            os.kill(handle.pid, signal.SIGKILL)
            handle.proc.join(timeout=10.0)
            with pytest.raises(ShardWorkerDied) as err:
                handle.advance(start + 600.0, {0: 0.5, 1: 0.5})
            assert "shards [0, 1]" in str(err.value)
            assert "period 1" in str(err.value)
            assert "exceeded 0 restarts" in str(err.value)
        finally:
            handle.close()
        assert not handle.proc.is_alive()

    def test_advance_collects_a_posted_period(self):
        """``advance`` takes the reply to a matching posted period; a
        second request before that reply is collected is refused."""
        from repro.datacenter.workers import WorkerHandle

        sim = ShardedCoSimulation(_spec(), DEMAND, shards=2, workers=1)
        (job,) = sim._jobs()
        handle = WorkerHandle(job, recv_deadline_s=30.0)
        try:
            start = handle.ready()[0][1]
            shares = {0: 0.5, 1: 0.5}
            handle.post_advance(start + 300.0, shares)
            with pytest.raises(RuntimeError, match="uncollected"):
                handle.advance(start + 600.0, shares)
            assert handle.advance(start + 300.0, shares) == [
                (0, 4000.0), (1, 4000.0)]
            handle.advance(start + 600.0, shares)
            assert handle.completed_periods == 2
            assert len(handle.log) == 3
            handle.finish()
        finally:
            handle.close()


def _worker_pids() -> set[int]:
    return {p.pid for p in multiprocessing.active_children()}


class _KillAt:
    """A leased handle that SIGKILLs its worker before one period."""

    def __init__(self, handle, period: int):
        self._handle = handle
        self._period = period

    def advance(self, until, shares):
        if self._handle.completed_periods == self._period:
            os.kill(self._handle.pid, signal.SIGKILL)
            self._handle.proc.join(timeout=10.0)
        return self._handle.advance(until, shares)

    def __getattr__(self, name):
        return getattr(self._handle, name)


class _KillPosted:
    """A leased handle whose worker dies with one period posted.

    The worker is stopped before the period is sent and killed after,
    so it never replies: the parent finds the death while collecting.
    """

    def __init__(self, handle, period: int):
        self._handle = handle
        self._period = period

    def post_advance(self, until, shares):
        if self._handle.completed_periods != self._period:
            return self._handle.post_advance(until, shares)
        os.kill(self._handle.pid, signal.SIGSTOP)
        self._handle.post_advance(until, shares)
        os.kill(self._handle.pid, signal.SIGKILL)
        self._handle.proc.join(timeout=10.0)

    def __getattr__(self, name):
        return getattr(self._handle, name)


def _kill_posted_pool(victim: int, period: int, max_restarts=None):
    """A pool whose ``victim`` handle dies with ``period`` posted in
    its first run; later runs lease plain handles."""

    class KillPostedPool(ShardWorkerPool):
        runs = 0

        def lease(self, jobs):
            handles = super().lease(jobs)
            self.runs += 1
            if self.runs > 1:
                return handles
            if max_restarts is not None:
                handles[victim].max_restarts = max_restarts
            handles[victim] = _KillPosted(handles[victim], period)
            return handles

    return KillPostedPool(2)


class TestShardWorkers:
    """Worker supervision: crash replay, pool reuse, cleanup."""

    def test_every_worker_is_in_flight_before_any_reply(
            self, pipe_traffic):
        # Scatter/gather: each period reaches every worker before the
        # parent reads a reply, so the workers compute it together.
        spec = _spec()
        ref = ShardedCoSimulation(spec, DEMAND, shards=4,
                                  workers=1).run(3600.0)
        assert pipe_traffic == []
        par = ShardedCoSimulation(spec, DEMAND, shards=4, workers=2)
        assert par.run(3600.0) == ref
        assert len(pipe_traffic) == 2 * 2 * 12
        pipe_traffic.assert_scattered(["shards [0, 2]", "shards [1, 3]"])

    @pytest.mark.parametrize("victim", [0, 1])
    def test_death_while_collecting_replays_that_worker(self, victim):
        # The other worker's reply waits in its pipe while the dead one
        # is respawned and replayed; only the victim restarts.
        spec = _spec()
        ref = ShardedCoSimulation(spec, DEMAND, shards=4,
                                  workers=1).run(2 * 3600.0)
        with _kill_posted_pool(victim, 5) as pool:
            sim = ShardedCoSimulation(spec, DEMAND, shards=4, workers=2,
                                      pool=pool)
            assert sim.run(2 * 3600.0) == ref
            assert [h.restarts for h in pool._handles] == [
                int(w == victim) for w in range(2)]

    @pytest.mark.parametrize("victim", [0, 1])
    def test_death_while_collecting_names_shards_and_period(self, victim):
        from repro.datacenter import ShardWorkerDied

        label = ["shards [0, 2]", "shards [1, 3]"][victim]
        with _kill_posted_pool(victim, 5, max_restarts=0) as pool:
            sim = ShardedCoSimulation(_spec(), DEMAND, shards=4,
                                      workers=2, pool=pool)
            with pytest.raises(ShardWorkerDied) as err:
                sim.run(2 * 3600.0)
        assert str(err.value) == (
            f"worker exceeded 0 restarts ({label}, last completed "
            f"period 5)")

    def test_pool_reuse_after_death_with_a_reply_in_flight(self):
        # Worker 0 dies for good while worker 1 still owes its reply to
        # the posted period: the next run on the pool must not read
        # that stale reply.
        from repro.datacenter import ShardWorkerDied

        spec = _spec()
        ref = ShardedCoSimulation(spec, DEMAND, shards=4,
                                  workers=1).run(3600.0)
        with _kill_posted_pool(0, 3, max_restarts=0) as pool:
            first = ShardedCoSimulation(spec, DEMAND, shards=4,
                                        workers=2, pool=pool)
            with pytest.raises(ShardWorkerDied):
                first.run(3600.0)
            second = ShardedCoSimulation(spec, DEMAND, shards=4,
                                         workers=2, pool=pool)
            assert second.run(3600.0) == ref

    def test_pipe_and_pooled_workers_match_local(self, spawned):
        spec = _spec()
        ref = ShardedCoSimulation(spec, DEMAND, shards=2,
                                  workers=1).run(2 * 3600.0)
        assert spawned == []

        pipe = ShardedCoSimulation(spec, DEMAND, shards=2, workers=2)
        assert pipe.run(2 * 3600.0) == ref
        assert len(spawned) == 2

        with ShardWorkerPool(2) as pool:
            pooled = ShardedCoSimulation(spec, DEMAND, shards=2,
                                         workers=2, pool=pool)
            assert pooled.run(2 * 3600.0) == ref
        assert len(spawned) == 4

    def test_sigkill_at_random_period_replays_bit_identically(self):
        """SIGKILL a shard worker at a random macro period: the
        supervisor respawns it and replays its log (build + every
        advance), so the run still equals ``workers=1`` — and leaves
        no worker process behind."""
        spec = _spec()
        duration = 2 * 3600.0
        victim = random.Random(2024).randrange(1, int(duration / 300.0))
        ref = ShardedCoSimulation(spec, DEMAND, shards=4,
                                  workers=1).run(duration)
        before = _worker_pids()

        class KillingPool(ShardWorkerPool):
            def lease(self, jobs):
                handles = super().lease(jobs)
                handles[1] = _KillAt(handles[1], victim)
                return handles

        with KillingPool(2) as pool:
            killed = ShardedCoSimulation(spec, DEMAND, shards=4,
                                         workers=2, pool=pool)
            assert killed.run(duration) == ref
            assert [h.restarts for h in pool._handles] == [0, 1]
        assert _worker_pids() <= before

    def test_pool_reuse_is_deterministic(self):
        # Warm reuse: the second run rebuilds on the same worker
        # processes and still reproduces the fresh-worker result.
        spec = _spec()
        ref = ShardedCoSimulation(spec, DEMAND, shards=2,
                                  workers=2).run(3600.0)
        with ShardWorkerPool(2) as pool:
            first = ShardedCoSimulation(spec, DEMAND, shards=2,
                                        workers=2, pool=pool)
            assert first.run(3600.0) == ref
            pids = [h.pid for h in pool._handles]
            second = ShardedCoSimulation(spec, DEMAND, shards=2,
                                         workers=2, pool=pool)
            assert second.run(3600.0) == ref
            assert [h.pid for h in pool._handles] == pids
            assert all(h.proc.is_alive() for h in pool._handles)
        assert not any(pid in _worker_pids() for pid in pids)

    def test_interrupted_run_leaves_no_workers(self, monkeypatch):
        # KeyboardInterrupt mid-run reaches the supervisor's cleanup
        # scope, which terminates every worker it started.
        before = _worker_pids()

        def interrupt(self, caps):
            raise KeyboardInterrupt

        sim = ShardedCoSimulation(_spec(), DEMAND, shards=2, workers=2)
        monkeypatch.setattr(ShardedCoSimulation, "_shares", interrupt)
        with pytest.raises(KeyboardInterrupt):
            sim.run(3600.0)
        assert _worker_pids() <= before


class TestShardedFaults:
    def _schedule(self, spec):
        from repro.core.faults import FaultKind, FaultSchedule, Incident

        sched = FaultSchedule()
        sched.add(Incident(FaultKind.RACK_BRANCH, 1800.0, 3600.0,
                           target=f"{spec.name}-rack1"))
        sched.add(Incident(FaultKind.CRAC_FAILURE, 2400.0, 1800.0,
                           target=1))
        sched.add(Incident(FaultKind.UPS_DERATE, 5400.0, 1200.0,
                           severity=0.5))
        return sched

    def test_fault_coverage_workers_bit_identical(self):
        """A facility fault schedule, partitioned into the shards,
        merges to byte-identical results with 1 vs N workers —
        including the merged ResilienceReport."""
        spec = _spec()
        sched = self._schedule(spec)
        ref = ShardedCoSimulation(spec, DEMAND, shards=2, workers=1,
                                  fault_schedule=sched).run(3 * 3600.0)
        par = ShardedCoSimulation(spec, DEMAND, shards=2, workers=2,
                                  fault_schedule=sched).run(3 * 3600.0)
        assert ref.resilience is not None
        assert par == ref

    def test_merged_resilience_accounts_all_incidents(self):
        spec = _spec()
        sched = self._schedule(spec)
        result = ShardedCoSimulation(
            spec, DEMAND, shards=2, workers=1,
            fault_schedule=sched).run(3 * 3600.0)
        report = result.resilience
        kinds = sorted(r.kind.value for r in report.incidents)
        # Rack + CRAC land in one shard each; the facility-wide UPS
        # derate is replicated into both shards' banks.
        assert kinds == ["crac-failure", "rack-branch",
                         "ups-derate", "ups-derate"]
        assert report.incident_count == 4
        assert report.mttr_s > 0.0

    def test_partition_faults_rejects_unknown_rack(self):
        from repro.core.faults import FaultKind, FaultSchedule, Incident
        from repro.datacenter import partition_faults

        spec = _spec()
        parts = partition_spec(spec, 2)
        sched = FaultSchedule()
        sched.add(Incident(FaultKind.RACK_BRANCH, 60.0, 60.0,
                           target="nonexistent-rack"))
        with pytest.raises(KeyError):
            partition_faults(spec, parts, sched)

    def test_repair_restores_demand_share(self):
        """A faulted shard's capacity is re-read after repair: its
        healthy capacity drops while the rack is dark and returns
        afterwards, so the demand redistribution follows."""
        from repro.core.faults import FaultKind, FaultSchedule, Incident
        from repro.datacenter import partition_faults
        from repro.datacenter.sharded import _ShardGroup

        spec = _spec()
        parts = partition_spec(spec, 2)
        sched = FaultSchedule()
        sched.add(Incident(FaultKind.RACK_BRANCH, 600.0, 1200.0,
                           target=f"{spec.name}-rack0"))
        per_shard = partition_faults(spec, parts, sched)
        total = spec.total_servers * spec.server_capacity
        group = _ShardGroup([(0, parts[0], per_shard[0])], DEMAND, total)
        shard = group.shards[0]
        dc = shard.sim.dc
        installed = (parts[0].total_servers
                     * parts[0].server_capacity)
        # The exchanged column is DataCenter.healthy_capacity().
        assert group.ready() == [(0, shard.start, installed)]
        assert dc.healthy_capacity() == installed
        [(_, cap)] = group.advance(shard.start + 900.0, {0: 0.5})
        assert cap == dc.healthy_capacity() < installed  # mid-incident
        [(_, cap)] = group.advance(shard.start + 2400.0, {0: 0.5})
        assert cap == dc.healthy_capacity() == installed  # repaired
