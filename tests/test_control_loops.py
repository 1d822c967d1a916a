"""Closed-loop tests: farm, DVFS, On/Off, coordinator, batching.

Includes the integration test for the paper's §5.1 pathology — the
headline behaviour this reproduction must exhibit.
"""

import pytest

from repro.cluster import Server, ServerState
from repro.control import (
    BatchingModel,
    CoordinatedController,
    DelayBasedOnOff,
    ForecastOnOff,
    PerTaskDVFS,
    ResponseTimeDVFS,
    ServerFarm,
    UtilizationDVFS,
)
from repro.fleet import VectorFleet, VectorServer
from repro.obs import Tracer
from repro.sim import Environment


def racked(env, n, **kwargs):
    """``n`` vector servers on one fleet, in one rack: a farm's pool."""
    fleet = VectorFleet(env, n)
    servers = [VectorServer(fleet, env, f"s{i}", **kwargs)
               for i in range(n)]
    fleet.make_aggregate(servers, "rack")
    return servers


def build_farm(n=20, active=10, demand=600.0, capacity=100.0):
    env = Environment()
    servers = racked(env, n, capacity=capacity, boot_s=120.0, wake_s=15.0)
    for s in servers[:active]:
        s.power_on()
    env.run(until=130.0)
    demand_fn = demand if callable(demand) else (lambda t: demand)
    farm = ServerFarm(env, servers, demand_fn=demand_fn,
                      dispatch_period_s=30.0)
    env.process(farm.run())
    return env, farm


# ----------------------------------------------------------------------
# ServerFarm plant
# ----------------------------------------------------------------------
def test_farm_validation():
    env = Environment()
    servers = racked(env, 1)
    with pytest.raises(ValueError):
        ServerFarm(env, servers, demand_fn=lambda t: 0.0,
                   dispatch_period_s=0.0)


def test_farm_refuses_plain_servers():
    env = Environment()
    servers = [Server(env, f"s{i}") for i in range(2)]
    with pytest.raises(TypeError, match="VectorFleet"):
        ServerFarm(env, servers, demand_fn=lambda t: 0.0)


def test_farm_signals_sane():
    env, farm = build_farm()
    env.run(until=1000.0)
    assert 0.0 < farm.mean_utilization() <= 1.0
    assert farm.mean_response_time_s() > 0.0
    assert farm.total_power_w() > 0.0
    assert farm.active_monitor.last == 10


def test_farm_no_active_servers_saturated_signals():
    env = Environment()
    servers = racked(env, 1)  # OFF
    farm = ServerFarm(env, servers, demand_fn=lambda t: 100.0)
    assert farm.mean_utilization() == 1.0
    assert farm.mean_response_time_s() == farm.delay_cap_s


def test_farm_energy_accounting():
    env, farm = build_farm()
    env.run(until=3600.0 + 130.0)
    energy = farm.energy_j(130.0, 3600.0 + 130.0)
    # 10 active servers between idle (180 W) and peak (300 W) each.
    assert 10 * 180.0 * 3600.0 <= energy <= 10 * 300.0 * 3600.0


# ----------------------------------------------------------------------
# DVFS policies
# ----------------------------------------------------------------------
def test_utilization_dvfs_validation():
    env, farm = build_farm()
    with pytest.raises(ValueError):
        UtilizationDVFS(farm, low=0.9, high=0.5)
    with pytest.raises(ValueError):
        UtilizationDVFS(farm, period_s=0.0)


def test_utilization_dvfs_deepens_when_underloaded():
    env, farm = build_farm(demand=200.0)  # util 0.2 on 10 servers
    dvfs = UtilizationDVFS(farm, period_s=60.0, low=0.5, high=0.9)
    env.process(dvfs.run())
    env.run(until=2000.0)
    assert all(s.pstate > 0 for s in farm.active_servers())


def test_utilization_dvfs_speeds_up_when_overloaded():
    env, farm = build_farm(demand=950.0)
    for s in farm.active_servers():
        s.set_pstate(5)
    dvfs = UtilizationDVFS(farm, period_s=60.0, low=0.5, high=0.9)
    env.process(dvfs.run())
    env.run(until=2000.0)
    assert all(s.pstate == 0 for s in farm.active_servers())


def test_utilization_dvfs_saves_power_at_low_load():
    env_base, farm_base = build_farm(demand=200.0)
    env_base.run(until=3000.0)

    env_dvfs, farm_dvfs = build_farm(demand=200.0)
    dvfs = UtilizationDVFS(farm_dvfs, period_s=60.0)
    env_dvfs.process(dvfs.run())
    env_dvfs.run(until=3000.0)
    assert farm_dvfs.total_power_w() < farm_base.total_power_w()


def test_response_time_dvfs_holds_target():
    env, farm = build_farm(demand=400.0)
    controller = ResponseTimeDVFS(farm, target_response_s=0.05,
                                  period_s=60.0)
    env.process(controller.run())
    env.run(until=4 * 3600.0)
    measured = farm.delay_monitor.time_weighted_mean(3600.0, None)
    assert measured == pytest.approx(0.05, abs=0.03)
    # And it exploited the slack: servers are not at P0.
    assert any(s.pstate > 0 for s in farm.active_servers())


def test_per_task_dvfs_uses_slack():
    policy = PerTaskDVFS()
    tight = policy.choose(work_s=1.0, deadline_s=1.0)
    loose = policy.choose(work_s=1.0, deadline_s=3.0)
    assert tight == 0
    assert loose == len(policy.table) - 1
    assert policy.relative_energy(1.0, 3.0) < 1.0
    with pytest.raises(ValueError):
        policy.choose(0.0, 1.0)
    with pytest.raises(ValueError):
        policy.choose(1.0, 0.0)


# ----------------------------------------------------------------------
# On/Off controllers
# ----------------------------------------------------------------------
def test_delay_onoff_validation():
    env, farm = build_farm()
    with pytest.raises(ValueError):
        DelayBasedOnOff(farm, high_delay_s=0.01, low_delay_s=0.05)


def test_delay_onoff_adds_machines_under_load():
    env, farm = build_farm(active=5, demand=480.0)
    controller = DelayBasedOnOff(farm, period_s=120.0,
                                 high_delay_s=0.045, low_delay_s=0.01)
    env.process(controller.run())
    env.run(until=3 * 3600.0)
    assert len(farm.active_servers()) > 5


def test_delay_onoff_removes_idle_machines():
    env, farm = build_farm(active=15, demand=200.0)
    controller = DelayBasedOnOff(farm, period_s=120.0,
                                 high_delay_s=0.08, low_delay_s=0.02)
    env.process(controller.run())
    env.run(until=3 * 3600.0)
    assert len(farm.active_servers()) < 15


def test_forecast_onoff_tracks_demand():
    env, farm = build_farm(active=20, demand=lambda t: 300.0
                           if t < 7200.0 else 1200.0)
    controller = ForecastOnOff(farm, period_s=300.0,
                               target_utilization=0.75, spare=1,
                               scale_down_after_s=600.0)
    env.process(controller.run())
    env.run(until=7000.0)
    low_fleet = len(farm.active_servers())
    env.run(until=12_000.0)
    high_fleet = len(farm.active_servers())
    assert low_fleet == 5  # ceil(300/75)+1
    assert high_fleet == 17  # ceil(1200/75)+1


def test_forecast_onoff_hysteresis_prevents_churn():
    """A brief dip must not trigger scale-down."""
    def demand(t):
        return 200.0 if 3000.0 < t < 3300.0 else 900.0

    env, farm = build_farm(active=20, demand=demand)
    controller = ForecastOnOff(farm, period_s=150.0,
                               scale_down_after_s=1800.0)
    env.process(controller.run())
    env.run(until=6000.0)
    # Fleet never dropped below what 900 demand needs.
    assert farm.active_monitor.minimum() >= 13


def test_onoff_traces_wakes_and_sleeps_with_one_label():
    """Both directions run the fleet's transition kernel, and the
    flight recorder names that path the same way for both."""
    env, farm = build_farm(demand=lambda t: 1_200.0 if t < 1_800.0
                           else 200.0)
    tracer = Tracer().bind(env)
    controller = ForecastOnOff(farm, period_s=300.0,
                               scale_down_after_s=0.0)
    env.process(controller.run())
    env.run(until=4_000.0)
    labels = {(e.name, e.attrs["via"]) for e in tracer.events
              if e.name.startswith("onoff.")}
    assert labels == {("onoff.activate", "fleet"),
                      ("onoff.deactivate", "fleet")}


def test_forecast_onoff_never_scales_to_zero():
    env, farm = build_farm(active=3, demand=0.0)
    controller = ForecastOnOff(farm, period_s=300.0,
                               scale_down_after_s=0.0, spare=0)
    env.process(controller.run())
    env.run(until=3600.0)
    assert len(farm.active_servers()) >= 1


def test_onoff_validation():
    env, farm = build_farm()
    with pytest.raises(ValueError):
        ForecastOnOff(farm, period_s=0.0)
    with pytest.raises(ValueError):
        ForecastOnOff(farm, target_utilization=0.0)
    with pytest.raises(ValueError):
        ForecastOnOff(farm, spare=-1)


def test_onoff_prefers_waking_sleepers():
    env, farm = build_farm(active=6, demand=400.0)
    sleeper = farm.active_servers()[-1]
    sleeper.set_offered_load(0.0)
    sleeper.sleep()
    controller = DelayBasedOnOff(farm, period_s=60.0,
                                 high_delay_s=0.02, low_delay_s=0.001)
    env.process(controller.run())
    env.run(until=200.0)
    assert sleeper.state in (ServerState.WAKING, ServerState.ACTIVE)


# ----------------------------------------------------------------------
# §5.1 pathology: oblivious DVFS × On/Off vs coordination
# ----------------------------------------------------------------------
def run_uncoordinated(hours=8):
    env, farm = build_farm()
    dvfs = UtilizationDVFS(farm, period_s=60.0, low=0.7, high=0.95)
    onoff = DelayBasedOnOff(farm, period_s=120.0,
                            high_delay_s=0.045, low_delay_s=0.01)
    env.process(dvfs.run())
    env.process(onoff.run())
    env.run(until=hours * 3600.0)
    return env, farm, dvfs


def run_coordinated(hours=8):
    env, farm = build_farm()
    coordinator = CoordinatedController(farm, period_s=120.0,
                                        target_utilization=0.8,
                                        headroom=1.1)
    env.process(coordinator.run())
    env.run(until=hours * 3600.0)
    return env, farm, coordinator


def test_oblivious_composition_spirals_to_max_fleet():
    """§5.1 [29]: more machines turned on AND CPUs slowed down."""
    env, farm, dvfs = run_uncoordinated()
    assert len(farm.active_servers()) == 20      # every machine on
    assert dvfs.pstate_monitor.last == 5         # at the deepest state


def test_coordination_beats_oblivious_composition_on_energy():
    _, farm_u, _ = run_uncoordinated()
    _, farm_c, _ = run_coordinated()
    power_u = farm_u.power_monitor.time_weighted_mean(1000.0, None)
    power_c = farm_c.power_monitor.time_weighted_mean(1000.0, None)
    # The paper: "energy expended on keeping a larger number of
    # machines on may not necessarily be offset by DVS savings".
    assert power_c < 0.7 * power_u


def test_coordination_also_improves_delay():
    _, farm_u, _ = run_uncoordinated()
    _, farm_c, _ = run_coordinated()
    delay_u = farm_u.delay_monitor.time_weighted_mean(1000.0, None)
    delay_c = farm_c.delay_monitor.time_weighted_mean(1000.0, None)
    assert delay_c <= delay_u


def test_coordinated_controller_validation():
    env, farm = build_farm()
    with pytest.raises(ValueError):
        CoordinatedController(farm, period_s=0.0)
    with pytest.raises(ValueError):
        CoordinatedController(farm, target_utilization=1.5)
    with pytest.raises(ValueError):
        CoordinatedController(farm, headroom=0.5)


def test_coordinated_uses_dvfs_for_residual_slack():
    """When demand sits just under a fleet step, speed is trimmed."""
    env, farm = build_farm(active=10, demand=500.0)
    coordinator = CoordinatedController(farm, period_s=120.0,
                                        target_utilization=0.8,
                                        headroom=1.0)
    env.process(coordinator.run())
    env.run(until=3600.0)
    # 500 / 80 = 6.25 -> 7 machines; required speed 500/560 = 0.89,
    # so P1 (0.9 capacity) fits.
    assert len(farm.active_servers()) == 7
    assert all(s.pstate == 1 for s in farm.active_servers())


# ----------------------------------------------------------------------
# Request batching
# ----------------------------------------------------------------------
def test_batching_validation():
    with pytest.raises(ValueError):
        BatchingModel(service_s=0.0)
    with pytest.raises(ValueError):
        BatchingModel(idle_deep_w=50.0, idle_shallow_w=10.0)
    model = BatchingModel()
    with pytest.raises(ValueError):
        model.mean_power_w(0.0, 0.1)
    with pytest.raises(ValueError):
        model.mean_power_w(1000.0, 0.1)  # rho >= 1


def test_batching_saves_power_at_low_load():
    model = BatchingModel()
    base = model.mean_power_w(arrival_rate=10.0, timeout_s=0.0)
    batched = model.mean_power_w(arrival_rate=10.0, timeout_s=0.2)
    assert batched < base
    assert model.savings_fraction(10.0, 0.2) > 0.2


def test_batching_latency_cost_grows_with_timeout():
    model = BatchingModel()
    small = model.added_latency_s(10.0, 0.05)
    large = model.added_latency_s(10.0, 0.5)
    assert large > small


def test_batching_savings_shrink_at_high_load():
    """Near saturation there is little idle time to consolidate."""
    model = BatchingModel()
    low = model.savings_fraction(arrival_rate=10.0, timeout_s=0.2)
    high = model.savings_fraction(arrival_rate=150.0, timeout_s=0.2)
    assert low > high


def test_best_timeout_respects_budget():
    model = BatchingModel()
    timeout = model.best_timeout_s(arrival_rate=10.0,
                                   latency_budget_s=0.1)
    assert timeout > 0
    assert model.added_latency_s(10.0, timeout) <= 0.1
    with pytest.raises(ValueError):
        model.best_timeout_s(10.0, latency_budget_s=0.0)
