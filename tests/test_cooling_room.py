"""Integration tests: machine room with zones, CRACs, and alarms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cooling import CRACUnit, MachineRoom, ThermalZone
from repro.sim import Environment


def two_zone_room(env, conductance, **crac_kwargs):
    zones = [ThermalZone("A", initial_temp_c=22.0),
             ThermalZone("B", initial_temp_c=22.0)]
    cracs = [CRACUnit("crac-0", transport_delay_s=0.0, **crac_kwargs)]
    room = MachineRoom(env, zones, cracs, conductance, step_s=30.0)
    return room, zones, cracs


def test_room_matrix_shape_validation():
    env = Environment()
    zones = [ThermalZone("A"), ThermalZone("B")]
    cracs = [CRACUnit()]
    with pytest.raises(ValueError):
        MachineRoom(env, zones, cracs, [[1.0, 2.0]])
    with pytest.raises(ValueError):
        MachineRoom(env, zones, cracs, [[-1.0], [1.0]])
    with pytest.raises(ValueError):
        MachineRoom(env, zones, cracs, [[1.0], [1.0]], step_s=0.0)


def test_return_temp_weighted_by_sensitivity():
    env = Environment()
    room, zones, _ = two_zone_room(env, [[3000.0], [1000.0]])
    zones[0].temp_c = 30.0
    zones[1].temp_c = 20.0
    # Weighted: (3000*30 + 1000*20) / 4000 = 27.5
    assert room.return_temp_c(0) == pytest.approx(27.5)


def test_disconnected_crac_senses_room_mean():
    env = Environment()
    zones = [ThermalZone("A"), ThermalZone("B")]
    zones[0].temp_c, zones[1].temp_c = 20.0, 30.0
    cracs = [CRACUnit("x"), CRACUnit("y")]
    room = MachineRoom(env, zones, cracs, [[1000.0, 0.0], [1000.0, 0.0]])
    assert room.return_temp_c(1) == pytest.approx(25.0)


def test_room_reaches_safe_steady_state_under_moderate_load():
    env = Environment()
    room, zones, _ = two_zone_room(
        env, [[2000.0], [2000.0]],
        return_setpoint_c=24.0, initial_supply_c=14.0)
    for z in zones:
        z.set_heat_load(8_000.0)
    env.process(room.run())
    env.run(until=6 * 3600.0)
    assert not room.alarms
    for z in zones:
        assert z.temp_c < z.alarm_temp_c


def test_room_overload_triggers_alarm_and_callback():
    env = Environment()
    room, zones, _ = two_zone_room(env, [[500.0], [500.0]])
    zones[0].set_heat_load(30_000.0)  # far beyond cooling ability
    seen = []
    room.on_alarm(seen.append)
    env.process(room.run())
    env.run(until=4 * 3600.0)
    assert room.alarms, "expected a thermal alarm"
    assert seen and seen[0].zone == "A"


def test_alarm_fires_once_until_cleared():
    env = Environment()
    room, zones, _ = two_zone_room(env, [[500.0], [500.0]])
    zones[0].set_heat_load(30_000.0)
    env.process(room.run())
    env.run(until=2 * 3600.0)
    count_hot = len([a for a in room.alarms if a.zone == "A"])
    assert count_hot == 1  # latched, not repeated every step


def test_heat_removed_tracks_zone_delta():
    env = Environment()
    room, zones, cracs = two_zone_room(env, [[1000.0], [1000.0]])
    zones[0].temp_c = 24.0
    zones[1].temp_c = 24.0
    supply = cracs[0].supply_temp_c
    expected = 2 * 1000.0 * (24.0 - supply)
    assert room.heat_removed_w(0) == pytest.approx(expected)


def test_mechanical_power_positive_when_cooling():
    env = Environment()
    room, zones, _ = two_zone_room(env, [[1000.0], [1000.0]])
    zones[0].temp_c = 26.0
    assert room.mechanical_power_w() > 0


def test_crac_setpoint_raise_saves_energy():
    """Dynamic smart cooling premise: warmer setpoints, cheaper plant."""
    def run_with(setpoint):
        env = Environment()
        room, zones, _ = two_zone_room(
            env, [[2000.0], [2000.0]], return_setpoint_c=setpoint)
        for z in zones:
            z.set_heat_load(6_000.0)
        env.process(room.run())
        env.run(until=12 * 3600.0)
        return room.mechanical_monitor.time_weighted_mean()

    conservative = run_with(22.0)
    relaxed = run_with(26.0)
    assert relaxed < conservative


def test_zone_lookup_and_hottest():
    env = Environment()
    room, zones, _ = two_zone_room(env, [[1000.0], [1000.0]])
    zones[1].temp_c = 29.0
    assert room.zone("B") is zones[1]
    assert room.hottest_zone() is zones[1]
    with pytest.raises(KeyError):
        room.zone("missing")


def test_ashrae_compliance_check():
    env = Environment()
    room, zones, _ = two_zone_room(env, [[1000.0], [1000.0]])
    zones[0].temp_c, zones[1].temp_c = 22.0, 24.0
    assert room.ashrae_compliant()
    zones[0].temp_c = 27.0
    assert not room.ashrae_compliant()


def test_zone_views_share_the_room_columns():
    env = Environment()
    room, zones, _ = two_zone_room(env, [[1000.0], [1000.0]])
    zones[1].set_heat_load(500.0)
    zones[0].temp_c = 25.0
    assert room.heat_load_w.tolist() == [0.0, 500.0]
    assert room.temp_c.tolist() == [25.0, 22.0]
    room.heat_load_w = np.array([1.0, 2.0])
    assert zones[1].heat_load_w == 2.0
    with pytest.raises(ValueError):
        MachineRoom(env, zones, [CRACUnit()], [[1.0], [1.0]])


#: Integer conductances and quarter-degree supplies keep every partial
#: sum of the scalar step exact, so its ``sum`` (compensated for floats
#: on Python >= 3.12) and the room's left fold agree on any interpreter.
conductances = st.sampled_from([0.0, 0.0, 1.0, 250.0, 1_000.0, 4_000.0])


@st.composite
def rooms(draw):
    n_zones = draw(st.integers(1, 12))
    n_cracs = draw(st.integers(1, 4))
    matrix = [[draw(conductances) for _ in range(n_cracs)]
              for _ in range(n_zones)]
    if draw(st.booleans()):
        matrix[draw(st.integers(0, n_zones - 1))] = [0.0] * n_cracs
    zones = [dict(thermal_capacitance_j_per_k=draw(
                      st.floats(1e4, 2e6)),
                  initial_temp_c=draw(st.floats(15.0, 35.0)),
                  alarm_temp_c=draw(st.floats(25.0, 40.0)))
             for _ in range(n_zones)]
    cracs = [dict(initial_supply_c=draw(st.integers(40, 80)) / 4.0,
                  control_period_s=draw(st.sampled_from([30.0, 90.0, 900.0])),
                  transport_delay_s=draw(st.sampled_from([0.0, 60.0])))
             for _ in range(n_cracs)]
    heats = draw(st.lists(
        st.lists(st.sampled_from([0.0, 1_500.0, 7_777.7, 30_000.0]),
                 min_size=n_zones, max_size=n_zones),
        min_size=1, max_size=8))
    failed = draw(st.none() | st.integers(0, n_cracs - 1))
    return zones, cracs, matrix, heats, failed


@settings(max_examples=150, deadline=None)
@given(rooms())
def test_room_steps_match_scalar_zone_twins(room_case):
    """N room steps equal ``ThermalZone.step`` per zone, bit for bit."""
    zone_kwargs, crac_kwargs, matrix, heats, failed = room_case
    env = Environment()
    zones = [ThermalZone(f"z{i}", **kw) for i, kw in enumerate(zone_kwargs)]
    twins = [ThermalZone(f"z{i}", **kw) for i, kw in enumerate(zone_kwargs)]
    cracs = [CRACUnit(f"c{j}", supply_min_c=5.0, supply_max_c=25.0, **kw)
             for j, kw in enumerate(crac_kwargs)]
    room = MachineRoom(env, zones, cracs, matrix, step_s=30.0)
    if failed is not None:
        room.fail_crac(failed)
    for step, heat in enumerate(heats):
        if step % 2:
            room.heat_load_w = np.array(heat)
        else:
            for zone, watts in zip(zones, heat):
                zone.set_heat_load(watts)
        supplies = [c.supply_temp_c for c in cracs]
        for twin, watts, row in zip(twins, heat, room.conductance.tolist()):
            twin.set_heat_load(watts)
            twin.step(room.step_s, supplies, row)
        room.step_once()
        env.run(until=env.now + room.step_s)
        assert room.temp_c.tolist() == [t.temp_c for t in twins]
        assert all(type(z.temp_c) is np.float64 for z in zones)
