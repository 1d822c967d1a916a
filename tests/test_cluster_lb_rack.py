"""Tests for load balancing policies, racks, and clusters."""

import pytest

from repro.cluster import (
    Cluster,
    EvenSplit,
    LoadBalancer,
    PackFirst,
    Rack,
    Server,
    ServerState,
    WeightedSplit,
)
from repro.fleet import VectorFleet, VectorServer
from repro.sim import Environment


def pool(env, n, capacity=100.0, **kwargs):
    servers = [Server(env, f"s{i}", capacity=capacity, **kwargs)
               for i in range(n)]
    for s in servers:
        s.power_on()
    env.run(until=env.now + 200.0)
    return servers


def fleet_pool(env, n, capacity=100.0):
    """``n`` ACTIVE vector servers in one rack: a balancer's pool."""
    fleet = VectorFleet(env, n)
    servers = [VectorServer(fleet, env, f"s{i}", capacity=capacity)
               for i in range(n)]
    fleet.make_aggregate(servers, "rack")
    for s in servers:
        s.power_on()
    env.run(until=env.now + 200.0)
    return servers


# ----------------------------------------------------------------------
# Load balancer
# ----------------------------------------------------------------------
def test_lb_requires_servers():
    with pytest.raises(ValueError):
        LoadBalancer([])


def test_even_split(env=None):
    env = Environment()
    servers = fleet_pool(env, 4)
    lb = LoadBalancer(servers, policy=EvenSplit())
    served = lb.dispatch(200.0)
    assert served == pytest.approx(200.0)
    for s in servers:
        assert s.offered_load == pytest.approx(50.0)


def test_weighted_split_respects_pstates():
    env = Environment()
    servers = fleet_pool(env, 2)
    servers[0].set_pstate(5)  # half speed
    lb = LoadBalancer(servers, policy=WeightedSplit())
    lb.dispatch(90.0)
    assert servers[0].offered_load < servers[1].offered_load
    assert servers[0].utilization == pytest.approx(servers[1].utilization,
                                                   rel=1e-6)


def test_pack_first_leaves_idle_tail():
    env = Environment()
    servers = fleet_pool(env, 4, capacity=100.0)
    lb = LoadBalancer(servers, policy=PackFirst(target_utilization=0.8))
    lb.dispatch(100.0)
    assert servers[0].offered_load == pytest.approx(80.0)
    assert servers[1].offered_load == pytest.approx(20.0)
    assert servers[2].offered_load == 0.0
    assert servers[3].offered_load == 0.0


def test_pack_first_overflow_spreads():
    env = Environment()
    servers = fleet_pool(env, 2, capacity=100.0)
    lb = LoadBalancer(servers, policy=PackFirst(target_utilization=0.5))
    lb.dispatch(150.0)  # room at target = 100; 50 overflow
    total = sum(s.offered_load for s in servers)
    assert total == pytest.approx(150.0)


def test_pack_first_validation():
    with pytest.raises(ValueError):
        PackFirst(target_utilization=0.0)


def test_dispatch_skips_inactive_servers():
    env = Environment()
    servers = fleet_pool(env, 3)
    servers[2].shut_down()
    lb = LoadBalancer(servers, policy=EvenSplit())
    served = lb.dispatch(90.0)
    assert served == pytest.approx(90.0)
    assert servers[2].offered_load == 0.0
    assert servers[0].offered_load == pytest.approx(45.0)


def test_dispatch_all_down_sheds_everything():
    env = Environment()
    servers = fleet_pool(env, 2)
    for s in servers:
        s.shut_down()
    lb = LoadBalancer(servers)
    assert lb.dispatch(100.0) == 0.0
    assert lb.shed_monitor.last == pytest.approx(100.0)


def test_lb_refuses_plain_servers():
    env = Environment()
    with pytest.raises(TypeError, match="VectorFleet"):
        LoadBalancer(pool(env, 2))


def test_dispatch_negative_rejected():
    env = Environment()
    servers = fleet_pool(env, 1)
    with pytest.raises(ValueError):
        LoadBalancer(servers).dispatch(-1.0)


def test_lb_power_and_utilization_metrics():
    env = Environment()
    servers = fleet_pool(env, 2)
    lb = LoadBalancer(servers)
    lb.dispatch(100.0)
    assert lb.total_power_w() > 2 * servers[0].model.idle_w
    assert all(0.0 < s.utilization <= 1.0 for s in lb.active_servers())


# ----------------------------------------------------------------------
# Rack / Cluster
# ----------------------------------------------------------------------
def test_rack_validation():
    with pytest.raises(ValueError):
        Rack("r", [])


def test_rack_assigns_zone_to_servers():
    env = Environment()
    servers = pool(env, 2)
    Rack("r0", servers, zone="cold-aisle-A")
    assert all(s.zone == "cold-aisle-A" for s in servers)


def test_rack_power_aggregates():
    env = Environment()
    servers = pool(env, 3)
    rack = Rack("r0", servers)
    expected = sum(s.power_w() for s in servers)
    assert rack.power_w() == pytest.approx(expected)
    assert rack.heat_w() == pytest.approx(expected)


def test_rack_load_fraction_and_default_capacity():
    env = Environment()
    servers = pool(env, 2)
    rack = Rack("r0", servers)
    assert rack.circuit_capacity_w == pytest.approx(
        2 * servers[0].model.peak_w)
    assert 0.0 < rack.load_fraction() <= 1.0


def test_rack_state_query():
    env = Environment()
    servers = pool(env, 3)
    servers[0].shut_down()
    rack = Rack("r0", servers)
    assert len(rack.servers_in(ServerState.OFF)) == 1
    assert len(rack.servers_in(ServerState.ACTIVE)) == 2


def test_cluster_heat_by_zone():
    env = Environment()
    rack_a = Rack("ra", pool(env, 2), zone="A")
    rack_b = Rack("rb", pool(env, 2), zone="B")
    cluster = Cluster("c", [rack_a, rack_b])
    heat = cluster.heat_by_zone()
    assert set(heat) == {"A", "B"}
    assert heat["A"] == pytest.approx(rack_a.power_w())


def test_cluster_counts_and_capacity():
    env = Environment()
    rack = Rack("ra", pool(env, 4))
    cluster = Cluster("c", [rack])
    assert cluster.count_in(ServerState.ACTIVE) == 4
    assert cluster.total_effective_capacity() == pytest.approx(400.0)
    with pytest.raises(ValueError):
        Cluster("empty", [])
