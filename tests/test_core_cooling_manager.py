"""Tests for cooling-aware placement (§5.1 hazard) and the macro
resource manager (Figure 4)."""

import pytest

from repro.control import ServerFarm
from repro.cooling import CRACUnit, MachineRoom, ThermalZone
from repro.core import CoolingAwarePlacer, MacroResourceManager, SLA
from repro.fleet import VectorFleet, VectorServer
from repro.sim import Environment


def asymmetric_room(env):
    """Zone A strongly coupled to the CRAC, zone B barely (§5.1)."""
    zones = [ThermalZone("A", initial_temp_c=24.0, alarm_temp_c=32.0),
             ThermalZone("B", initial_temp_c=24.0, alarm_temp_c=32.0)]
    crac = CRACUnit("crac", transport_delay_s=0.0, return_setpoint_c=25.0,
                    deadband_c=0.5, initial_supply_c=14.0,
                    supply_min_c=10.0, supply_max_c=20.0)
    # A: 3000 W/K to the CRAC; B: 400 W/K — the CRAC mostly sees A.
    room = MachineRoom(env, zones, [crac],
                       [[3000.0], [400.0]], step_s=30.0)
    return room, zones, crac


# ----------------------------------------------------------------------
# CoolingAwarePlacer
# ----------------------------------------------------------------------
def test_placer_validation():
    env = Environment()
    room, _, _ = asymmetric_room(env)
    with pytest.raises(ValueError):
        CoolingAwarePlacer(room, margin_c=-1.0)
    placer = CoolingAwarePlacer(room)
    with pytest.raises(ValueError):
        placer.predict_equilibrium({"A": -5.0})


def test_heat_in_sensitive_zone_is_safe():
    env = Environment()
    room, _, _ = asymmetric_room(env)
    placer = CoolingAwarePlacer(room)
    assessment = placer.assess({"A": 20_000.0, "B": 0.0})
    assert assessment.safe


def test_migration_to_insensitive_zone_predicted_unsafe():
    """The paper's exact scenario: move the load from A to B."""
    env = Environment()
    room, _, _ = asymmetric_room(env)
    placer = CoolingAwarePlacer(room)
    assessment = placer.assess({"A": 0.0, "B": 20_000.0})
    assert not assessment.safe
    assert assessment.hottest_zone == "B"


def test_choose_zone_prefers_sensitive_zone():
    env = Environment()
    room, _, _ = asymmetric_room(env)
    placer = CoolingAwarePlacer(room)
    assert placer.choose_zone(20_000.0, {"A": 0.0, "B": 0.0}) == "A"


def test_choose_zone_raises_when_nowhere_safe():
    env = Environment()
    room, _, _ = asymmetric_room(env)
    placer = CoolingAwarePlacer(room)
    with pytest.raises(RuntimeError):
        placer.choose_zone(500_000.0, {"A": 0.0, "B": 0.0})


def test_prediction_matches_simulation():
    """The placer's equilibrium agrees with actually running the room."""
    env = Environment()
    room, zones, _ = asymmetric_room(env)
    placer = CoolingAwarePlacer(room)
    heat = {"A": 15_000.0, "B": 3_000.0}
    predicted = placer.predict_equilibrium(heat)
    for zone in zones:
        zone.set_heat_load(heat[zone.name])
    env.process(room.run())
    env.run(until=24 * 3600.0)
    for zone in zones:
        assert zone.temp_c == pytest.approx(predicted[zone.name], abs=1.5)


# ----------------------------------------------------------------------
# MacroResourceManager
# ----------------------------------------------------------------------
def manager_setup(demand=600.0, budget=None, with_room=False,
                  forecaster=None):
    env = Environment()
    fleet = VectorFleet(env, 20)
    servers = [VectorServer(fleet, env, f"s{i}", capacity=100.0,
                            boot_s=60.0, zone="A" if i % 2 == 0 else "B")
               for i in range(20)]
    fleet.make_aggregate(servers, "rack")
    for s in servers[:10]:
        s.power_on()
    env.run(until=70.0)
    demand_fn = demand if callable(demand) else (lambda t: demand)
    farm = ServerFarm(env, servers, demand_fn=demand_fn,
                      dispatch_period_s=30.0)
    env.process(farm.run())
    room = None
    heat_fn = None
    if with_room:
        room, _, _ = asymmetric_room(env)
        env.process(room.run())

        def heat_fn():
            heat = {"A": 0.0, "B": 0.0}
            for s in servers:
                heat[s.zone] += s.power_w()
            return heat

    manager = MacroResourceManager(
        farm, sla=SLA("svc", response_target_s=0.1),
        power_budget_w=budget, room=room, heat_by_zone_fn=heat_fn,
        period_s=300.0, forecaster=forecaster)
    env.process(manager.run())
    return env, farm, manager


def test_manager_validation():
    env, farm, _ = manager_setup()
    with pytest.raises(ValueError):
        MacroResourceManager(farm, period_s=0.0)
    with pytest.raises(ValueError):
        MacroResourceManager(farm, forecast_horizon_s=-1.0)


def test_manager_rightsizes_fleet():
    env, farm, manager = manager_setup(demand=600.0)
    env.run(until=4 * 3600.0)
    # 600 × 1.1 headroom / 80 per server -> 9 machines.
    assert len(farm.active_servers()) == 9
    assert manager.decisions
    assert manager.decisions[-1].target_fleet == 9


def test_manager_meets_sla_while_saving_power():
    env, farm, manager = manager_setup(demand=600.0)
    env.run(until=4 * 3600.0)
    report = manager.sla_report(start=3600.0)
    assert report.compliant
    # Far below the 20-machine static fleet's power.
    static_power = 20 * 180.0
    assert farm.power_monitor.time_weighted_mean(3600.0, None) < static_power


def test_manager_capping_engages_on_tight_budget():
    # 20 servers at full tilt want ~5.6 kW; the throttled-idle floor is
    # ~3.9 kW, so a 4.5 kW budget is tight but physically reachable by
    # T-state capping (going below the floor needs On/Off, not caps).
    env, farm, manager = manager_setup(demand=1500.0, budget=4500.0)
    env.run(until=2 * 3600.0)
    assert manager.capping_fraction() > 0.5
    # Budget is respected once the fleet settles.  (During the initial
    # scale-up, BOOTING servers draw boot power that T-state caps
    # cannot touch — boot surges really are outside the capper's
    # reach, which is why operators stagger boots.)
    settled = manager.capper.delivered_monitor
    assert settled.time_weighted_mean(1800.0, None) <= 4500.0 + 1e-6


def test_manager_forecast_tracks_demand():
    # EWMA for this test: a one-off step has no daily season for the
    # default Holt-Winters to exploit, and its slow level makes it
    # deliberately sluggish on steps.
    from repro.core import EWMAForecaster

    env, farm, manager = manager_setup(
        demand=lambda t: 400.0 if t < 7200.0 else 900.0,
        forecaster=EWMAForecaster(alpha=0.4))
    env.run(until=6 * 3600.0)
    assert manager.forecast_monitor.last == pytest.approx(900.0, rel=0.05)


def test_manager_thermal_protection_fires():
    env, farm, manager = manager_setup(demand=1800.0, with_room=True)
    # Drive far more heat into the barely-cooled zone than it can lose.
    room = manager.room
    room.zone("B").set_heat_load(60_000.0)
    env.run(until=6 * 3600.0)
    assert manager.thermal_shutdowns, "expected protective shutdowns"
    time_s, zone, count = manager.thermal_shutdowns[0]
    assert zone == "B"
    assert count > 0


def test_manager_decision_audit_trail():
    env, farm, manager = manager_setup(demand=600.0)
    env.run(until=3600.0)
    assert len(manager.decisions) >= 10
    decision = manager.decisions[-1]
    assert decision.observed_demand == pytest.approx(600.0)
    assert decision.thermal_safe  # no room attached -> trivially safe


def test_manager_records_sla_risk_when_model_provided():
    from repro.core import RiskModel

    env = Environment()
    fleet = VectorFleet(env, 20)
    servers = [VectorServer(fleet, env, f"s{i}", capacity=100.0,
                            boot_s=60.0) for i in range(20)]
    fleet.make_aggregate(servers, "rack")
    for s in servers[:10]:
        s.power_on()
    env.run(until=70.0)
    farm = ServerFarm(env, servers, demand_fn=lambda t: 600.0,
                      dispatch_period_s=30.0)
    env.process(farm.run())
    risk_model = RiskModel(service_rate_per_server=100.0,
                           response_target_s=0.1,
                           forecast_error=0.15)
    manager = MacroResourceManager(farm, period_s=300.0,
                                   risk_model=risk_model)
    env.process(manager.run())
    env.run(until=3600.0)
    risks = [d.sla_risk for d in manager.decisions]
    assert all(r is not None for r in risks)
    assert all(0.0 <= r <= 1.0 for r in risks)


def test_manager_without_risk_model_logs_none():
    env, farm, manager = manager_setup(demand=600.0)
    env.run(until=3600.0)
    assert all(d.sla_risk is None for d in manager.decisions)
