"""Tests for the request-level service simulation (validated against
queueing theory) and the failure injector."""

import numpy as np
import pytest

from repro.cluster import ServerState
from repro.control import (
    ServerFarm,
    ForecastOnOff,
    mm1_response_time,
    mmc_response_time,
)
from repro.core import FailureInjector
from repro.fleet import VectorFleet, VectorServer
from repro.sim import Environment
from repro.workload import ServiceSimulation


# ----------------------------------------------------------------------
# ServiceSimulation vs analytic queueing
# ----------------------------------------------------------------------
def test_service_sim_validation():
    with pytest.raises(ValueError):
        ServiceSimulation(servers=0, arrival_rate=1.0, service_rate=2.0)
    with pytest.raises(ValueError):
        ServiceSimulation(servers=1, arrival_rate=0.0, service_rate=2.0)
    sim = ServiceSimulation(1, 1.0, 2.0)
    with pytest.raises(ValueError):
        sim.run(0.0)
    with pytest.raises(ValueError):
        sim.run(10.0, warmup_s=10.0)


def test_mm1_simulation_matches_theory():
    """Simulated mean sojourn time equals 1/(mu - lambda)."""
    lam, mu = 8.0, 10.0
    sim = ServiceSimulation(1, lam, mu,
                            rng=np.random.default_rng(1))
    stats = sim.run(duration_s=20_000.0, warmup_s=1_000.0)
    expected = mm1_response_time(lam, mu)
    assert stats.mean_response_s == pytest.approx(expected, rel=0.1)
    assert stats.utilization == pytest.approx(lam / mu, abs=0.03)


def test_mmc_simulation_matches_erlang_c():
    """Simulated M/M/c mean response matches the Erlang-C formula."""
    servers, lam, mu = 5, 20.0, 5.0
    sim = ServiceSimulation(servers, lam, mu,
                            rng=np.random.default_rng(2))
    stats = sim.run(duration_s=10_000.0, warmup_s=500.0)
    expected = mmc_response_time(servers, lam, mu)
    assert stats.mean_response_s == pytest.approx(expected, rel=0.1)


def test_tail_grows_near_saturation():
    light = ServiceSimulation(1, 3.0, 10.0,
                              rng=np.random.default_rng(3))
    heavy = ServiceSimulation(1, 9.0, 10.0,
                              rng=np.random.default_rng(3))
    stats_light = light.run(5_000.0, warmup_s=200.0)
    stats_heavy = heavy.run(5_000.0, warmup_s=200.0)
    assert stats_heavy.p99_response_s > 3 * stats_light.p99_response_s


def test_custom_service_distribution():
    """Lognormal service: heavier p99/p50 than exponential."""
    rng = np.random.default_rng(4)
    lognormal = ServiceSimulation(
        2, 5.0, 10.0, rng=rng,
        service_sampler=lambda: rng.lognormal(np.log(0.1) - 0.5, 1.0))
    stats = lognormal.run(5_000.0, warmup_s=200.0)
    assert stats.p99_response_s / stats.p50_response_s > 5.0


def test_percentiles_ordered():
    sim = ServiceSimulation(2, 5.0, 5.0, rng=np.random.default_rng(5))
    stats = sim.run(3_000.0)
    assert (stats.p50_response_s <= stats.p95_response_s
            <= stats.p99_response_s)


# ----------------------------------------------------------------------
# Failure injection
# ----------------------------------------------------------------------
def farm_with_injector(mtbf_s, repair_s, n=12, demand=500.0):
    env = Environment()
    fleet = VectorFleet(env, n)
    servers = [VectorServer(fleet, env, f"s{i}", capacity=100.0,
                            boot_s=60.0) for i in range(n)]
    fleet.make_aggregate(servers, "rack")
    for server in servers:
        server.power_on()
    env.run(until=61.0)
    farm = ServerFarm(env, servers, demand_fn=lambda t: demand,
                      dispatch_period_s=30.0)
    env.process(farm.run())
    injector = FailureInjector(env, servers, mtbf_s=mtbf_s,
                               repair_s=repair_s,
                               rng=np.random.default_rng(6))
    env.process(injector.run())
    return env, farm, injector


def test_injector_validation():
    env = Environment()
    with pytest.raises(ValueError):
        FailureInjector(env, [], mtbf_s=0.0)
    with pytest.raises(ValueError):
        FailureInjector(env, [], mtbf_s=10.0, repair_s=0.0)


def test_injector_kills_and_repairs():
    env, farm, injector = farm_with_injector(mtbf_s=600.0,
                                             repair_s=900.0)
    env.run(until=4 * 3600.0)
    assert injector.failures, "expected failures over 4 hours"
    # Repairs bring servers back to OFF (ready to boot), so the fleet
    # is not permanently destroyed.
    failed_now = sum(1 for s in farm.servers
                     if s.state is ServerState.FAILED)
    assert failed_now < len(injector.failures)


def test_injector_without_repair_attrits_fleet():
    env, farm, injector = farm_with_injector(mtbf_s=600.0,
                                             repair_s=None)
    env.run(until=4 * 3600.0)
    assert len(farm.active_servers()) < 12


def test_provisioner_rides_through_failures():
    """A managed farm re-boots capacity as chaos kills it."""
    env, farm, injector = farm_with_injector(mtbf_s=1_200.0,
                                             repair_s=600.0,
                                             demand=500.0)
    controller = ForecastOnOff(farm, period_s=120.0,
                               target_utilization=0.75, spare=1,
                               scale_down_after_s=3600.0,
                               to_sleep=False)
    env.process(controller.run())
    env.run(until=6 * 3600.0)
    assert injector.failures
    shed_fraction = farm.shed_monitor.integral() / max(
        farm.balancer.offered_monitor.integral(), 1e-9)
    assert shed_fraction < 0.05
