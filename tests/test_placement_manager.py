"""RobustConsolidationManager: plan robustly, execute transactionally,
evacuate, reconcile — plus the 400-step migration-storm property test.
"""

import numpy as np
import pytest

from repro.cluster import VMHost, VirtualMachine
from repro.cluster.aggregates import make_pool_aggregate
from repro.cluster.server import Server, ServerState
from repro.fleet import VectorFleet, VectorServer
from repro.obs.audit import AuditTrail
from repro.obs.tracer import Tracer
from repro.placement import (
    GammaRobustPacker,
    MigrationBatchProfile,
    RobustConsolidationManager,
    UncertainDemand,
)
from repro.sim import Environment, RandomStreams
from repro.workload import ResourceProfile


def profile(cpu=0.3, phase_hour=14.0):
    return ResourceProfile(cpu=cpu, disk=0.1, network=0.1, memory=0.2,
                           phase_hour=phase_hour)


def build(n_hosts=8, n_vms=12, gamma=1, **kwargs):
    env = Environment()
    hosts = [VMHost(f"h{i}") for i in range(n_hosts)]
    vms = []
    for i in range(n_vms):
        vm = VirtualMachine(f"vm{i}", profile(), memory_gb=2.0)
        hosts[i % n_hosts].place(vm)
        vms.append(vm)
    manager = RobustConsolidationManager(env, hosts, vms, gamma=gamma,
                                         **kwargs)
    return env, hosts, vms, manager


def run_cycles(env, manager, n=1, between=None):
    def scenario(env):
        for i in range(n):
            yield env.process(manager.cycle())
            if between is not None:
                between(i)
                yield env.timeout(60.0)
    env.process(scenario(env))
    env.run()


def test_validation():
    env, hosts, vms, _ = build()
    with pytest.raises(ValueError):
        RobustConsolidationManager(env, hosts, vms, period_s=0.0)
    with pytest.raises(ValueError):
        RobustConsolidationManager(env, hosts, vms,
                                   max_moves_per_cycle=0)


def test_cycle_consolidates_spread_fleet():
    env, hosts, vms, manager = build()
    spread = sum(1 for h in hosts if h.vms)
    run_cycles(env, manager)
    packed = sum(1 for h in hosts if h.vms)
    assert packed < spread
    assert manager.divergence() == []  # intent tracks reality
    assert manager.executor.batches[0].committed


def test_gamma_zero_packs_tighter_than_robust():
    used = {}
    for gamma in (0, 3):
        env, hosts, vms, manager = build(gamma=gamma)
        run_cycles(env, manager)
        used[gamma] = sum(1 for h in hosts if h.vms)
    assert used[0] <= used[3]


def test_evacuation_clears_failed_host():
    env, hosts, vms, manager = build()
    run_cycles(env, manager)
    loaded = next(h for h in hosts if h.vms)
    loaded.fail()
    assert manager.vms_on_failed_hosts()
    run_cycles(env, manager)
    assert manager.vms_on_failed_hosts() == []
    assert not loaded.vms
    assert manager.evacuations > 0
    assert manager.divergence() == []


def test_evacuation_strands_when_nothing_fits():
    """With every alternative host down, victims are stranded — and
    conserved — rather than parked on a dead machine."""
    env, hosts, vms, manager = build(n_hosts=2, n_vms=2)
    for h in hosts:
        h.fail()
    run_cycles(env, manager)
    assert sorted(manager.stranded) == ["vm0", "vm1"]
    assert all(vm.host is None for vm in vms)
    # Repair: the next cycle re-places the stranded VMs.
    hosts[0].repair()
    run_cycles(env, manager)
    assert manager.stranded == []
    assert all(vm.host is hosts[0] for vm in vms)


def test_reconcile_adopts_reality_no_double_move():
    """Out-of-band divergence is adopted and re-planned; the manager
    never re-issues the stale intent."""
    env, hosts, vms, manager = build()
    run_cycles(env, manager)
    vm = vms[0]
    src = vm.host
    target = next(h for h in hosts if h is not src and not h.vms)
    src.evict(vm)
    target.place(vm)  # an operator moved it behind our back
    assert manager.divergence() == [vm.name]
    repaired = manager.reconcile()
    assert repaired == 1
    assert manager.divergence() == []
    assert manager.intended[vm.name] == target.name
    assert manager.replans == 1


def test_lossy_profile_converges_with_zero_divergence():
    env, hosts, vms, manager = build(
        profile=MigrationBatchProfile(
            loss_probability=0.25, mid_copy_failure_probability=0.15,
            latency_s=1.0, max_retries=4, backoff_base_s=2.0),
        streams=RandomStreams(13))

    def chaos(i):
        if i == 1:
            hosts[0].fail()
        elif i == 2:
            hosts[0].repair()

    run_cycles(env, manager, n=4, between=chaos)
    manager.reconcile()
    assert manager.divergence() == []
    assert manager.vms_on_failed_hosts() == []
    assert sum(1 for vm in vms if vm.host is not None) \
        + len(manager.stranded) == len(vms)


def test_audit_trail_records_cycles():
    env, hosts, vms, manager = build()
    env.tracer = Tracer().bind(env)
    manager.audit = AuditTrail(env.tracer)
    run_cycles(env, manager)
    [record] = list(manager.audit.records)
    assert record.outputs["batch_committed"]
    assert record.outputs["moves_planned"] > 0
    channels = {o.channel for o in record.observations}
    assert "placement.demand_center" in channels
    kinds = record.actuation_kinds()
    assert "placement.batch" in kinds


def test_run_loop_consolidates_periodically():
    env, hosts, vms, manager = build(period_s=3_600.0)
    env.process(manager.run(cycles=3))
    env.run(until=4 * 3_600.0)
    assert manager.cycles == 3


def test_max_moves_caps_batch():
    env, hosts, vms, manager = build(max_moves_per_cycle=2)
    run_cycles(env, manager)
    assert len(manager.executor.batches[0].outcomes) <= 2


# ----------------------------------------------------------------------
# The 400-step migration-storm property test
# ----------------------------------------------------------------------
def test_migration_storm_property_400_steps():
    """Randomized storms + faults for 400 steps.  Invariants:

    * VM count is conserved (placed + stranded = population);
    * no VM is resident on a failed host after a manager cycle;
    * twin object/vector *server* fleets mirroring the host pool's
      failures keep clean :meth:`FleetAggregate.verify` reports and
      identical states;
    * the Γ-robust packer plans identically off the VMHost pool and
      off the VectorFleet capacity column (placement equality).
    """
    N_HOSTS, N_VMS, STEPS = 10, 16, 400
    env = Environment()
    hosts = [VMHost(f"h{i}") for i in range(N_HOSTS)]
    vms = []
    rng = RandomStreams(77).get("test.storm")
    for i in range(N_VMS):
        vm = VirtualMachine(f"vm{i}", profile(
            cpu=float(rng.uniform(0.15, 0.4)),
            phase_hour=float(rng.uniform(0.0, 24.0))), memory_gb=1.0)
        hosts[i % N_HOSTS].place(vm)
        vms.append(vm)
    manager = RobustConsolidationManager(
        env, hosts, vms, gamma=1,
        profile=MigrationBatchProfile(
            loss_probability=0.15, mid_copy_failure_probability=0.1,
            latency_s=0.5, max_retries=3, backoff_base_s=1.0),
        streams=RandomStreams(78))

    # Twin server fleets mirroring host failures, object vs vector.
    obj_servers = [Server(env, f"s{i}", capacity=1.0,
                          initial_state=ServerState.ACTIVE)
                   for i in range(N_HOSTS)]
    fleet = VectorFleet(env, N_HOSTS)
    vec_servers = [VectorServer(fleet, env, f"s{i}", capacity=1.0,
                                initial_state=ServerState.ACTIVE)
                   for i in range(N_HOSTS)]
    # Both fleets wired like a facility: racks, then one pool.
    half = N_HOSTS // 2
    for servers in (obj_servers, vec_servers):
        make_pool_aggregate(servers[:half], kind="rack")
        make_pool_aggregate(servers[half:], kind="rack")
    obj_agg = make_pool_aggregate(obj_servers)
    vec_agg = make_pool_aggregate(vec_servers)

    def mirror_fail(i):
        hosts[i].fail()
        for s in (obj_servers[i], vec_servers[i]):
            if s.state is not ServerState.FAILED:
                s.fail()

    def mirror_repair(i):
        hosts[i].repair()
        for s in (obj_servers[i], vec_servers[i]):
            if s.state is ServerState.FAILED:
                s.repair()

    def storm(env):
        for step in range(STEPS):
            roll = rng.random()
            if roll < 0.12:
                mirror_fail(int(rng.integers(N_HOSTS)))
            elif roll < 0.24:
                mirror_repair(int(rng.integers(N_HOSTS)))
            elif roll < 0.5:
                # Out-of-band migration attempt through the shared
                # migration manager (the storm part).
                vm = vms[int(rng.integers(N_VMS))]
                target = hosts[int(rng.integers(N_HOSTS))]
                mm = manager.executor.migrations
                if (vm.host is not None and vm.host is not target
                        and mm.in_flight < mm.max_concurrent):
                    env.process(mm.migrate(vm, target))
            else:
                yield env.process(manager.cycle())
                # Post-cycle invariant: nothing lives on a dead host.
                assert manager.vms_on_failed_hosts() == []
            # Conservation, every step.
            placed = [vm for vm in vms if vm.host is not None]
            for vm in placed:
                assert vm in vm.host.vms
            resident = [vm for h in hosts for vm in h.vms]
            assert len(resident) == len(placed)
            unplaced = [vm.name for vm in vms if vm.host is None]
            assert set(unplaced) <= set(manager.stranded) | {
                o.move.vm
                for b in manager.executor.batches
                for o in b.outcomes}
            yield env.timeout(float(rng.uniform(5.0, 120.0)))

    env.process(storm(env))
    env.run()

    # Let in-flight chaos settle, then reconcile.
    for i, h in enumerate(hosts):
        if h.failed:
            mirror_repair(i)
    env.process(manager.cycle())
    env.run()
    manager.reconcile()
    assert manager.divergence() == []
    assert manager.vms_on_failed_hosts() == []
    assert sum(1 for vm in vms if vm.host is not None) \
        + len(manager.stranded) == N_VMS

    # Twin fleets: clean verify and identical per-server state.
    for agg in (obj_agg, vec_agg):
        report = agg.verify()
        assert report["active_count_corrected"] == 0
        assert not report["roster_repaired"]
        assert report["power_drift_w"] < 1e-6
    for so, sv in zip(obj_servers, vec_servers):
        assert so.state is sv.state

    # Backend placement equality: object hosts vs fleet columns.
    demand = UncertainDemand.from_vms(vms, env.now, 3_600.0)
    usable = np.array([s.state is not ServerState.FAILED
                       for s in vec_servers])
    via_hosts = GammaRobustPacker.for_hosts(hosts, gamma=1).pack(demand)
    via_fleet = GammaRobustPacker.for_fleet(
        fleet, gamma=1, usable=usable).pack(demand)
    assert (via_hosts.assignment == via_fleet.assignment).all()
