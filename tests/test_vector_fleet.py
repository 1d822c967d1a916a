"""Unit tests for the structure-of-arrays vector plant.

Every facility runs on this plant, so its contract is pinned against
plain :class:`Server` twins: view semantics, the energy meter, the
wiring rules checked at construction (one power model, contiguous
racks then one pool, two watchers per server, zoned racks of one
fleet per cluster), the vectorized scans, and random mutation
sequences that must leave twin plants identical.  End to end, the
canonical co-simulations must run on the batch kernels, and a finished
co-simulation must be garbage-collectable.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.cluster.aggregates import FleetAggregate, make_pool_aggregate
from repro.cluster.rack import Cluster, Rack
from repro.cluster.server import Server, ServerState
from repro.controlplane import ControlPlaneProfile
from repro.core import SLA
from repro.core.faults import FaultKind, FaultSchedule, Incident
from repro.datacenter import CoSimulation, DataCenterSpec
from repro.fleet import (
    EnergyMeter,
    VectorAggregate,
    VectorCluster,
    VectorFleet,
    VectorRackAggregate,
    VectorServer,
)
from repro.power.models import ServerPowerModel
from repro.power.pstates import PStateTable
from repro.sim import Environment, RandomStreams
from repro.workload import DiurnalProfile


def make_fleet(n=8, **server_kwargs):
    env = Environment()
    fleet = VectorFleet(env, n)
    servers = [VectorServer(fleet, env, f"v{i}", **server_kwargs)
               for i in range(n)]
    return env, fleet, servers


# ----------------------------------------------------------------------
# View semantics: a VectorServer behaves exactly like a Server
# ----------------------------------------------------------------------
def test_vector_server_mirrors_object_server():
    env = Environment()
    fleet = VectorFleet(env, 1)
    vec = VectorServer(fleet, env, "v0", capacity=100.0)
    obj = Server(env, "o0", capacity=100.0)
    assert vec.state is obj.state is ServerState.OFF
    vec.power_on(), obj.power_on()
    env.run(until=121.0)
    for load in (0.0, 35.0, 100.0, 250.0):
        vec.set_offered_load(load)
        obj.set_offered_load(load)
        assert vec.power_w() == obj.power_w()
        assert vec.effective_capacity == obj.effective_capacity
        assert vec.utilization == obj.utilization
    vec.set_pstate(1), obj.set_pstate(1)
    assert vec.power_w() == obj.power_w()
    assert vec.apply_cap(150.0) == obj.apply_cap(150.0)
    assert vec.capped and obj.capped
    vec.remove_cap(), obj.remove_cap()
    assert vec.power_w() == obj.power_w()
    assert not vec.capped


def test_vector_server_state_lives_in_columns():
    env, fleet, servers = make_fleet(3)
    servers[1].power_on()
    assert fleet.state_code[1] == 1  # BOOTING
    env.run(until=121.0)
    assert fleet.state_code[1] == 2  # ACTIVE
    servers[1].set_offered_load(42.0)
    assert fleet.offered[1] == 42.0
    assert fleet.power[1] == servers[1].power_w()
    assert np.isnan(fleet.cap_w[1])
    servers[1].apply_cap(100.0)
    assert fleet.cap_w[1] == 100.0
    servers[1].remove_cap()
    assert np.isnan(fleet.cap_w[1])


def test_zone_names_are_interned():
    env, fleet, servers = make_fleet(4)
    servers[0].zone = "zone-a"
    servers[1].zone = "zone-b"
    servers[2].zone = "zone-a"
    assert fleet.zone_id[0] == fleet.zone_id[2] != fleet.zone_id[1]
    assert servers[2].zone == "zone-a"
    assert servers[3].zone is None


def test_fleet_is_exactly_sized():
    env = Environment()
    fleet = VectorFleet(env, 1)
    VectorServer(fleet, env, "v0")
    with pytest.raises(ValueError, match="full"):
        VectorServer(fleet, env, "v1")
    with pytest.raises(ValueError):
        VectorFleet(env, 0)


# ----------------------------------------------------------------------
# EnergyMeter
# ----------------------------------------------------------------------
def test_energy_meter_matches_monitor_integral():
    env = Environment()
    fleet = VectorFleet(env, 1)
    vec = VectorServer(fleet, env, "v0", capacity=100.0)
    obj = Server(env, "o0", capacity=100.0)
    assert isinstance(vec.power_monitor, EnergyMeter)
    vec.power_on(), obj.power_on()
    env.run(until=121.0)
    for until, load in ((200.0, 30.0), (500.0, 90.0), (900.0, 0.0)):
        env.run(until=until)
        vec.set_offered_load(load)
        obj.set_offered_load(load)
    env.run(until=1200.0)
    assert vec.energy_j() == pytest.approx(obj.energy_j(), rel=1e-12)


def test_energy_meter_rejects_windowed_queries_and_time_travel():
    env, fleet, servers = make_fleet(1)
    env.run(until=10.0)
    meter = servers[0].power_monitor
    with pytest.raises(ValueError, match="no history"):
        meter.integral(5.0, None)
    meter.record(servers[0].power_w())  # closes the segment at t=10
    with pytest.raises(ValueError, match="precedes"):
        meter.record(1.0, time=3.0)
    assert meter.last == servers[0].power_w()


def test_energy_meter_windowed_error_names_what_works():
    env, fleet, servers = make_fleet(1)
    env.run(until=10.0)
    with pytest.raises(ValueError) as err:
        servers[0].power_monitor.integral(5.0)
    assert str(err.value) == (
        "EnergyMeter keeps no history: ask for the full-range "
        "integral (start=None), or use a plain Server, whose power "
        "Monitor answers windowed integrals")
    assert servers[0].power_monitor.integral() == servers[0].energy_j()


# ----------------------------------------------------------------------
# Aggregate construction rules
# ----------------------------------------------------------------------
def test_make_aggregate_kinds():
    env, fleet, servers = make_fleet(8)
    rack_a = fleet.make_aggregate(servers[:4], kind="rack")
    assert isinstance(rack_a, VectorRackAggregate)
    # Overlapping rack claim is refused.
    with pytest.raises(ValueError, match="overlap"):
        fleet.make_aggregate(servers[2:6], kind="rack")
    rack_b = fleet.make_aggregate(servers[4:], kind="rack")
    assert isinstance(rack_b, VectorRackAggregate)
    pool = fleet.make_aggregate(servers, kind="pool")
    assert isinstance(pool, VectorAggregate)
    # Sub-pools and non-contiguous picks are refused.
    with pytest.raises(ValueError, match="whole fleet"):
        fleet.make_aggregate(servers[:4], kind="pool")
    with pytest.raises(ValueError, match="contiguous"):
        fleet.make_aggregate(servers[::2], kind="rack")


def _refuse_overlapping_rack(fleet, servers):
    fleet.make_aggregate(servers[:4], kind="rack")
    fleet.make_aggregate(servers[3:], kind="rack")


def _refuse_sub_pool(fleet, servers):
    fleet.make_aggregate(servers[:4], kind="rack")
    fleet.make_aggregate(servers[4:], kind="rack")
    make_pool_aggregate(servers[:4])


def _refuse_second_pool(fleet, servers):
    fleet.make_aggregate(servers[:4], kind="rack")
    fleet.make_aggregate(servers[4:], kind="rack")
    make_pool_aggregate(servers)
    make_pool_aggregate(servers)


def _refuse_pool_before_racks(fleet, servers):
    fleet.make_aggregate(servers[:4], kind="rack")
    make_pool_aggregate(servers)


@pytest.mark.parametrize("wiring, match", [
    (_refuse_overlapping_rack, "overlap"),
    (_refuse_sub_pool, "whole fleet"),
    (_refuse_second_pool, "already has a pool"),
    (_refuse_pool_before_racks, "every rack before"),
], ids=["overlapping-rack", "sub-pool", "second-pool", "pool-before-racks"])
def test_noncanonical_aggregate_raises(wiring, match):
    env, fleet, servers = make_fleet(8)
    with pytest.raises(ValueError, match=match):
        wiring(fleet, servers)


def test_make_pool_aggregate_falls_back_for_plain_servers():
    env = Environment()
    servers = [Server(env, f"s{i}") for i in range(3)]
    agg = make_pool_aggregate(servers)
    assert type(agg) is FleetAggregate


def test_vector_aggregate_tracks_scalar_invariants():
    env, fleet, servers = make_fleet(6)
    for s in servers[:4]:
        s._fleet  # views
    racks = [fleet.make_aggregate(servers[:3], kind="rack"),
             fleet.make_aggregate(servers[3:], kind="rack")]
    pool = fleet.make_aggregate(servers, kind="pool")
    for s in servers[:4]:
        s.power_on()
    env.run(until=121.0)
    for i, s in enumerate(servers[:4]):
        s.set_offered_load(10.0 * i)
    assert pool.active_count == 4
    assert pool.power_w == pytest.approx(
        sum(s.power_w() for s in servers), rel=1e-12)
    assert racks[0].power_w == pytest.approx(
        sum(s.power_w() for s in servers[:3]), rel=1e-12)
    assert pool.active_servers() == servers[:4]
    report = pool.verify()
    assert report["active_count_corrected"] == 0
    assert not report["roster_repaired"]
    assert report["power_drift_w"] < 1e-9


# ----------------------------------------------------------------------
# Wiring rules: rack, then pool, then nothing else
# ----------------------------------------------------------------------
def build_wired_pool(n=6):
    env, fleet, servers = make_fleet(n)
    half = n // 2
    fleet.make_aggregate(servers[:half], kind="rack")
    fleet.make_aggregate(servers[half:], kind="rack")
    pool = fleet.make_aggregate(servers, kind="pool")
    return env, fleet, servers, pool


class _Mute:
    """A watcher the fleet's batch kernels cannot fold into."""

    def state_changed(self, *a):
        pass

    def power_changed(self, *a):
        pass


def test_batcher_requires_canonical_wiring():
    env, fleet, servers, pool = build_wired_pool()
    assert fleet.pool_agg is pool
    with pytest.raises(TypeError, match="cannot watch"):
        servers[2].add_watcher(_Mute())
    assert servers[2]._watchers == [fleet.rack_aggs[0], pool]


def test_foreign_watcher_raises():
    from repro.cluster.request_farm import RequestFarm

    # Before its rack: only the rack aggregate may come first.
    env, fleet, servers = make_fleet(4)
    with pytest.raises(TypeError):
        servers[0].add_watcher(_Mute())
    # After the rack, before the pool: only the pool may come second.
    fleet.make_aggregate(servers, kind="rack")
    with pytest.raises(TypeError):
        servers[0].add_watcher(_Mute())
    # A plain aggregate or a request farm over vector servers.
    with pytest.raises(TypeError):
        FleetAggregate(servers)
    env, fleet, servers, pool = build_wired_pool(4)
    with pytest.raises(TypeError):
        RequestFarm(env, servers)


def test_start_many_refuses_bad_batches():
    env, fleet, servers = make_fleet(4)
    with pytest.raises(ValueError):
        fleet.start_many([0, 1])                # no rack yet
    fleet.make_aggregate(servers, kind="rack")
    with pytest.raises(ValueError):
        fleet.start_many([])
    with pytest.raises(ValueError):
        fleet.start_many([3, 2, 1, 0])          # not in pool order
    with pytest.raises(ValueError):
        fleet.start_many([0, 4])                # not this fleet's row
    servers[0].power_on()
    with pytest.raises(ValueError):
        fleet.start_many([0, 1, 2, 3])          # a transition in flight
    assert fleet.state_code.tolist() == [1, 0, 0, 0]
    with pytest.raises(ValueError):
        fleet.park_many([1], ServerState.SLEEPING)  # not ACTIVE
    env.run(until=121.0)
    fleet.start_many([1, 2])
    env.run(until=242.0)
    with pytest.raises(ValueError):
        fleet.park_many([0, 1], ServerState.SLEEPING)  # not descending
    assert fleet.state_code.tolist() == [2, 2, 2, 0]


def test_nonlinear_model_batches_bit_exactly():
    """r != 1 models evaluate through the grouped libm-pow kernel —
    batching stays enabled and every power equals the scalar model."""
    env = Environment()
    fleet = VectorFleet(env, 4)
    model = ServerPowerModel(nonlinearity=1.4)
    servers = [VectorServer(fleet, env, f"v{i}", power_model=model)
               for i in range(4)]
    assert fleet.nonlinearity == 1.4
    fleet.make_aggregate(servers[:2], kind="rack")
    fleet.make_aggregate(servers[2:], kind="rack")
    pool = fleet.make_aggregate(servers, kind="pool")
    env2 = Environment()
    twins = [Server(env2, f"t{i}", power_model=ServerPowerModel(
        nonlinearity=1.4)) for i in range(4)]
    for s, t in zip(servers[:3], twins[:3]):
        s.power_on(), t.power_on()
    env.run(until=121.0), env2.run(until=121.0)
    pool.dispatch_loads(_EqualSplit(), 170.0)
    for t, share in zip(twins[:3], _EqualSplit().split(
            170.0, twins[:3])):
        t.set_offered_load(share)
    pool.batch_set_pstate(2)
    for t in twins[:3]:
        t.set_pstate(2)
    for s, t in zip(servers, twins):
        assert s.power_w() == t.power_w()
        assert s.demand_w() == t.demand_w()
    assert fleet.total_demand_w() == sum(t.demand_w() for t in twins)


class _EqualSplit:
    """Even split policy without numpy fast path (scalar shares)."""

    def split(self, total, active):
        return [total / len(active)] * len(active)


@pytest.mark.parametrize("model_kwargs", [
    {"pstate_table": PStateTable(tstates=())},
    {"nonlinearity": 1.4},
], ids=["other-table", "other-nonlinearity"])
def test_second_power_model_must_match(model_kwargs):
    env = Environment()
    fleet = VectorFleet(env, 3)
    VectorServer(fleet, env, "v0")
    with pytest.raises(ValueError, match="one power model"):
        VectorServer(fleet, env, "v1",
                     power_model=ServerPowerModel(**model_kwargs))
    with pytest.raises(ValueError, match="one power model"):
        fleet.build_servers(env, ["v2"], ServerPowerModel(**model_kwargs))


def test_equal_table_contents_share_a_group():
    env = Environment()
    fleet = VectorFleet(env, 2)
    VectorServer(fleet, env, "v0",
                 power_model=ServerPowerModel(pstate_table=PStateTable()))
    VectorServer(fleet, env, "v1",
                 power_model=ServerPowerModel(pstate_table=PStateTable()))
    # Distinct table objects, identical contents: the same model as
    # far as the batch kernels can tell, so the fleet accepts it.
    assert fleet.n_claimed == 2
    assert fleet.nonlinearity == 1.0


def test_fleet_refuses_a_model_that_overflows_the_ledger():
    """Rack and pool power are int64 sums of 2**-32 W quanta: rows ×
    the model's largest draw must stay under 2**31 W."""
    env = Environment()
    huge = ServerPowerModel(peak_w=3e9)
    with pytest.raises(ValueError, match="int64 power ledger"):
        VectorServer(VectorFleet(env, 1), env, "v0", power_model=huge)
    with pytest.raises(ValueError, match="int64 power ledger"):
        VectorFleet(env, 1).build_servers(env, ["v0"], huge)
    with pytest.raises(ValueError, match="int64 power ledger"):
        VectorServer(VectorFleet(env, 1), env, "v0",
                     power_model=ServerPowerModel(boot_w=3e9))
    VectorServer(VectorFleet(env, 1), env, "v0",
                 power_model=ServerPowerModel(peak_w=2e9))


# ----------------------------------------------------------------------
# Batch mutators vs scalar twins
# ----------------------------------------------------------------------
def test_batch_set_pstate_matches_scalar():
    env, fleet, servers, pool = build_wired_pool()
    env2 = Environment()
    twins = [Server(env2, f"t{i}") for i in range(len(servers))]
    for s, t in zip(servers[:4], twins[:4]):
        s.power_on(), t.power_on()
    env.run(until=121.0), env2.run(until=121.0)
    for i, (s, t) in enumerate(zip(servers[:4], twins[:4])):
        s.set_offered_load(12.5 * i), t.set_offered_load(12.5 * i)
    pool.batch_set_pstate(2)
    for t in twins[:4]:
        if t.state is ServerState.ACTIVE:
            t.set_pstate(2)
    for s, t in zip(servers, twins):
        assert s.power_w() == t.power_w()
        assert s.pstate == t.pstate
        assert s.effective_capacity == t.effective_capacity
    with pytest.raises(ValueError, match="out of range"):
        pool.batch_set_pstate(99)


def test_dispatch_loads_matches_scalar_split():
    from repro.cluster.loadbalancer import WeightedSplit

    env, fleet, servers, pool = build_wired_pool()
    env2 = Environment()
    twins = [Server(env2, f"t{i}") for i in range(len(servers))]
    for s, t in zip(servers[:4], twins[:4]):
        s.power_on(), t.power_on()
    env.run(until=121.0), env2.run(until=121.0)
    policy = WeightedSplit()
    served = pool.dispatch_loads(policy, 260.0)
    shares = policy.split(260.0, [t for t in twins
                                  if t.state is ServerState.ACTIVE])
    expected = 0.0
    for t, share in zip(twins[:4], shares):
        t.set_offered_load(share)
        expected += t.delivered_load
    assert served == expected
    for s, t in zip(servers, twins):
        assert s.offered_load == t.offered_load
        assert s.power_w() == t.power_w()


# ----------------------------------------------------------------------
# Vectorized scans
# ----------------------------------------------------------------------
def test_pick_startable_prefers_sleeping_and_respects_quarantine():
    env, fleet, servers = make_fleet(5)
    for s in servers:
        s.zone = "hot" if s._idx < 2 else "cold"
    for s in servers[:3]:
        s.power_on()
    env.run(until=121.0)
    servers[0].sleep()
    servers[2].sleep()
    assert fleet.startable_rows(None, 1).tolist() == [0]
    assert fleet.startable_rows({"hot"}, 1).tolist() == [2]
    assert fleet.startable_rows({"hot"}, 3).tolist() == [2, 3, 4]
    assert fleet.startable_rows(None, 9).tolist() == [0, 2, 3, 4]
    # No candidates at all.
    assert fleet.startable_rows({"hot", "cold"}, 1).size == 0


def test_total_demand_and_uncap_candidates():
    env, fleet, servers = make_fleet(6)
    for s in servers[:4]:
        s.power_on()
    env.run(until=121.0)
    servers[3].sleep()
    for i, s in enumerate(servers[:3]):
        s.set_offered_load(20.0 * (i + 1))
    servers[1].apply_cap(120.0)
    assert fleet.total_demand_w() == pytest.approx(
        sum(s.demand_w() for s in servers), rel=1e-12)
    assert fleet.uncap_candidates().tolist() == [1]
    servers[1].remove_cap()
    assert fleet.uncap_candidates().size == 0


def test_committed_count_counts_transitions():
    env, fleet, servers = make_fleet(5)
    servers[0].power_on()
    servers[1].power_on()
    env.run(until=1.0)  # both still BOOTING
    assert fleet.committed_count() == 2
    env.run(until=121.0)
    servers[0].sleep()
    assert fleet.committed_count() == 1
    servers[0].wake()
    assert fleet.committed_count() == 2


# ----------------------------------------------------------------------
# VectorCluster vs object Cluster
# ----------------------------------------------------------------------
def test_vector_cluster_matches_object_cluster():
    def build(vector):
        env = Environment()
        if vector:
            fleet = VectorFleet(env, 6)
            mk = lambda name: VectorServer(fleet, env, name)  # noqa: E731
        else:
            mk = lambda name: Server(env, name)  # noqa: E731
        racks = []
        servers = []
        for r in range(3):
            rs = [mk(f"r{r}s{i}") for i in range(2)]
            servers.extend(rs)
            racks.append(Rack(f"rack{r}", rs, zone=f"z{r % 2}"))
        cluster = (VectorCluster if vector else Cluster)("c", racks)
        for s in servers[:4]:
            s.power_on()
        env.run(until=121.0)
        for i, s in enumerate(servers[:4]):
            s.set_offered_load(15.0 * i)
        return cluster

    vec, obj = build(True), build(False)
    assert vec.rack_powers_array().tolist() == [
        rack.power_w() for rack in obj.racks]
    assert vec.power_w() == obj.power_w()
    assert vec.heat_by_zone() == obj.heat_by_zone()
    assert list(vec.heat_by_zone()) == list(obj.heat_by_zone())
    for state in ServerState:
        assert vec.count_in(state) == obj.count_in(state)
    assert vec.total_effective_capacity() == obj.total_effective_capacity()


def test_vector_cluster_refuses_zoneless_and_foreign_racks():
    env = Environment()
    fleet = VectorFleet(env, 4)
    servers = [VectorServer(fleet, env, f"v{i}") for i in range(4)]
    zoned = Rack("zoned", servers[:2], zone="z0")
    zoneless = Rack("zoneless", servers[2:])
    with pytest.raises(ValueError, match="no zone"):
        VectorCluster("c", [zoned, zoneless])
    other = VectorFleet(env, 1)
    foreign = Rack("foreign", [VectorServer(other, env, "o0")], zone="z0")
    with pytest.raises(ValueError, match="another fleet"):
        VectorCluster("c", [zoned, foreign])
    plain = Rack("plain", [Server(env, "p0")], zone="z0")
    with pytest.raises(ValueError, match="not a vector"):
        VectorCluster("c", [zoned, plain])


# ----------------------------------------------------------------------
# Twin plants: random op sequences against plain Servers
# ----------------------------------------------------------------------
def build_twin_plants(n=12):
    env_o = Environment()
    obj = [Server(env_o, f"s{i}", capacity=100.0) for i in range(n)]
    env_v = Environment()
    fleet = VectorFleet(env_v, n)
    vec = [VectorServer(fleet, env_v, f"s{i}", capacity=100.0)
           for i in range(n)]
    return env_o, obj, env_v, vec


def apply_op(op, value, server):
    """One scripted mutation; illegal transitions are skipped."""
    try:
        if op == 0:
            server.power_on()
        elif op == 1:
            server.set_offered_load(value * 150.0)
        elif op == 2:
            server.set_pstate(int(value * 6.0) % 6)
        elif op == 3:
            server.apply_cap(value * 250.0 + 50.0)
        elif op == 4:
            server.remove_cap()
        elif op == 5:
            if server.offered_load == 0.0:
                server.sleep()
        elif op == 6:
            server.wake()
        else:
            if value < 0.2:
                server.fail()
            elif server.state is ServerState.FAILED:
                server.repair()
    except Exception:
        pass  # illegal from current state — same exception both sides


def test_random_sequences_keep_plants_identical():
    rng = np.random.default_rng(2024)
    script = [(int(rng.integers(0, 12)), int(rng.integers(0, 8)),
               float(rng.random()), float(rng.random()) * 40.0)
              for _ in range(400)]
    env_o, obj, env_v, vec = build_twin_plants()
    t = 0.0
    for which, op, value, dt in script:
        apply_op(op, value, obj[which])
        apply_op(op, value, vec[which])
        t += dt
        env_o.run(until=t)
        env_v.run(until=t)
        assert obj[which].state is vec[which].state
        assert obj[which].power_w() == vec[which].power_w()
    for so, sv in zip(obj, vec):
        assert so.state is sv.state
        assert so.power_w() == sv.power_w()
        assert so.offered_load == sv.offered_load
        assert so.pstate == sv.pstate
        assert so._tstate == sv._tstate
        assert (so._cap_w is None) == (sv._cap_w is None)
        assert sv.energy_j() == pytest.approx(so.energy_j(), rel=1e-9)


def test_total_energy_identical_despite_lazy_meters():
    """∫P dt matches per server, to rounding, though meters flush lazily.

    Batch dispatch skips servers whose load is unchanged, so their
    EnergyMeter segments stay open across many ticks; the plain
    twins re-record every tick into a full Monitor history.
    """
    from repro.cluster.loadbalancer import WeightedSplit

    env, fleet, servers, pool = build_wired_pool(8)
    env2 = Environment()
    twins = [Server(env2, f"t{i}") for i in range(len(servers))]
    for s, t in zip(servers[:6], twins[:6]):
        s.power_on(), t.power_on()
    env.run(until=121.0), env2.run(until=121.0)
    policy = WeightedSplit()
    levels = [240.0] * 5 + [410.0] * 3 + [90.0] * 4 + [240.0] * 6
    for k, load in enumerate(levels):
        when = 121.0 + 60.0 * (k + 1)
        env.run(until=when), env2.run(until=when)
        if k == 9:
            for srv in (servers[5], twins[5]):
                srv.set_offered_load(0.0)
                srv.sleep()
        pool.fused_dispatch(policy, load)
        active = [t for t in twins if t.state is ServerState.ACTIVE]
        for t in twins:
            if t.state is not ServerState.ACTIVE and t.offered_load:
                t.set_offered_load(0.0)
        for t, share in zip(active, policy.split(load, active)):
            t.set_offered_load(share)
    env.run(until=2_000.0), env2.run(until=2_000.0)
    for s, t in zip(servers, twins):
        assert s.power_w() == t.power_w()
        assert s.energy_j() == pytest.approx(t.energy_j(), rel=1e-9)
    total_v = sum(s.energy_j() for s in servers)
    total_o = sum(t.energy_j() for t in twins)
    assert total_v == pytest.approx(total_o, rel=1e-9)


# ----------------------------------------------------------------------
# End to end: the canonical co-simulations stay on the batch kernels
# ----------------------------------------------------------------------
def run_cosim(managed=True, faulted=False, profile=None, capped=False,
              nonlinearity=1.0, hours=4.0):
    spec = DataCenterSpec(name="zf", racks=6, servers_per_rack=8,
                          zones=3, cracs=2,
                          server_nonlinearity=nonlinearity)
    peak = spec.total_servers * spec.server_capacity * 0.6
    diurnal = DiurnalProfile()
    schedule = None
    if faulted:
        schedule = FaultSchedule()
        schedule.add(Incident(FaultKind.CRAC_FAILURE, at_s=3_600.0,
                              duration_s=1_800.0, target=0))
    budget = (0.62 * spec.total_servers * spec.server_peak_w
              if capped else None)
    sim = CoSimulation(spec, lambda t: peak * diurnal(t),
                       managed=managed, fault_schedule=schedule,
                       streams=RandomStreams(11), control_plane=profile,
                       power_budget_w=budget,
                       sla=SLA("zf", response_target_s=0.15))
    sim.run(hours * 3_600.0)
    return sim


SCENARIOS = {
    "managed": {},
    "static": {"managed": False},
    "faulted": {"faulted": True},
    "impaired": {"profile": "hardened"},
    "capped": {"capped": True},
    "nonlinear": {"nonlinearity": 1.3},
    "nonlinear-capped": {"nonlinearity": 1.3, "capped": True},
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_batch_gate_open_after_run(name):
    kwargs = dict(SCENARIOS[name])
    if "profile" in kwargs:
        kwargs["profile"] = getattr(ControlPlaneProfile,
                                    kwargs["profile"])()
    sim = run_cosim(**kwargs)
    assert type(sim.farm.fleet) is VectorAggregate
    if kwargs.get("capped"):
        # The capper's demand query runs on the fleet columns.
        assert sim.manager.capper._vector_fleet() is sim.farm.fleet._fleet


def test_finished_cosim_is_collected():
    """A finished co-simulation's plant is freed by the cycle collector.

    Server views and their fleet reference each other, so only the
    cycle collector can free them — which it cannot do through a numpy
    object array.
    """
    refs = []
    for _ in range(3):
        spec = DataCenterSpec(racks=10, servers_per_rack=20, zones=2,
                              cracs=1)
        demand = spec.total_servers * spec.server_capacity * 0.5
        sim = CoSimulation(spec, lambda t: demand, managed=True)
        sim.run(3_600.0)
        refs.append(weakref.ref(sim))
        del sim
    gc.collect()
    assert [r() for r in refs] == [None, None, None]
