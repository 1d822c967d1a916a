"""Fault-domain engine and graceful-degradation tests (paper §2).

Covers the correlated failure modes the macro layer must diagnose:
rack branch trips, UPS derating, utility outages with battery bridge
and generator start, CRAC failures with thermal runaway — and the
manager's detect → degrade → recover loop over them.
"""

import math

import pytest

from repro.cluster import ServerState
from repro.cooling import CRACUnit, MachineRoom, ThermalZone
from repro.core import (
    FaultDomainEngine,
    FaultKind,
    FaultSchedule,
    Incident,
    SLA,
)
from repro.datacenter import CoSimulation, DataCenterSpec
from repro.power import PowerNode, UPSUnit
from repro.sim import Environment, RandomStreams


# ----------------------------------------------------------------------
# Incident / schedule plumbing
# ----------------------------------------------------------------------
def test_incident_validation():
    with pytest.raises(ValueError):
        Incident(FaultKind.UTILITY_OUTAGE, at_s=-1.0, duration_s=10.0)
    with pytest.raises(ValueError):
        Incident(FaultKind.UTILITY_OUTAGE, at_s=0.0, duration_s=0.0)
    with pytest.raises(ValueError):
        Incident(FaultKind.RACK_BRANCH, at_s=0.0, duration_s=10.0,
                 target=3)  # rack wants a name
    with pytest.raises(ValueError):
        Incident(FaultKind.CRAC_FAILURE, at_s=0.0, duration_s=10.0,
                 target="crac-0")  # crac wants an index
    with pytest.raises(ValueError):
        Incident(FaultKind.UPS_DERATE, at_s=0.0, duration_s=10.0,
                 severity=1.5)


def test_schedule_orders_incidents():
    sched = FaultSchedule()
    sched.add(Incident(FaultKind.UTILITY_OUTAGE, at_s=100.0,
                       duration_s=10.0))
    sched.add(Incident(FaultKind.CRAC_FAILURE, at_s=5.0, duration_s=10.0,
                       target=0))
    assert [i.at_s for i in sched] == [5.0, 100.0]
    assert len(sched) == 2


def test_random_schedule_reproducible_per_seed():
    kwargs = dict(horizon_s=86_400.0 * 30, rack_names=["r0", "r1"],
                  cracs=2, rack_mtbf_s=86_400.0 * 3,
                  crac_mtbf_s=86_400.0 * 5, outage_mtbf_s=86_400.0 * 7)
    a = FaultSchedule.random(streams=RandomStreams(7), **kwargs)
    b = FaultSchedule.random(streams=RandomStreams(7), **kwargs)
    c = FaultSchedule.random(streams=RandomStreams(8), **kwargs)
    assert [(i.kind, i.at_s, i.target) for i in a] \
        == [(i.kind, i.at_s, i.target) for i in b]
    assert [i.at_s for i in a] != [i.at_s for i in c]
    assert len(a) > 0
    kinds = {i.kind for i in a}
    assert kinds <= {FaultKind.RACK_BRANCH, FaultKind.CRAC_FAILURE,
                     FaultKind.UTILITY_OUTAGE}


# ----------------------------------------------------------------------
# Substrate failure hooks
# ----------------------------------------------------------------------
def test_power_node_breaker_trip():
    node = PowerNode("branch", 10_000.0)
    node.set_demand(5_000.0)
    assert node.input_w() > 0
    node.trip()
    assert node.input_w() == 0.0
    assert node.output_w() == 0.0
    node.restore()
    assert node.input_w() >= 5_000.0


def test_ups_derate_and_restore():
    env = Environment()
    ups = UPSUnit(env, steady_rating_w=100_000.0)
    ups.derate(0.3)
    assert ups.steady_rating_w == pytest.approx(70_000.0)
    assert ups.nominal_rating_w == pytest.approx(100_000.0)
    # Derating again re-derates from the nominal, not compounding.
    ups.derate(0.5)
    assert ups.steady_rating_w == pytest.approx(50_000.0)
    ups.restore_rating()
    assert ups.steady_rating_w == pytest.approx(100_000.0)
    with pytest.raises(ValueError):
        ups.derate(0.0)
    ups.restore_rating()  # idempotent when not derated


def make_room(env):
    zones = [ThermalZone(f"zone-{i}", thermal_capacitance_j_per_k=500_000.0)
             for i in range(2)]
    cracs = [CRACUnit(f"crac-{j}") for j in range(2)]
    conductance = [[4_000.0, 200.0], [200.0, 4_000.0]]
    return MachineRoom(env, zones, cracs, conductance)


def test_room_crac_failure_and_repair():
    env = Environment()
    room = make_room(env)
    room.zones[0].set_heat_load(8_000.0)
    baseline_power = room.mechanical_power_w()
    room.fail_crac(0)
    assert room.impaired_zones() == ["zone-0"]
    assert room.heat_removed_w(0) == 0.0
    # Dead fans draw nothing: plant power drops despite the same heat.
    assert room.mechanical_power_w() < baseline_power
    # The zone now relaxes toward a much hotter equilibrium.
    eq = room.zones[0].equilibrium_temp_c(
        [c.supply_temp_c for c in room.cracs], list(room.conductance[0]))
    assert eq > room.zones[0].alarm_temp_c
    room.repair_crac(0)
    assert room.impaired_zones() == []
    assert room.heat_removed_w(0) > 0.0
    with pytest.raises(ValueError):
        room.repair_crac(0)
    with pytest.raises(IndexError):
        room.fail_crac(5)


# ----------------------------------------------------------------------
# Engine: correlated fault injection on a wired facility
# ----------------------------------------------------------------------
def build_cosim(schedule, managed, load=0.5, **spec_kwargs):
    spec_args = dict(racks=4, servers_per_rack=5, zones=2, cracs=2,
                     cross_conductance_fraction=0.05)
    spec_args.update(spec_kwargs)
    spec = DataCenterSpec(**spec_args)
    demand = lambda t: spec.total_servers * spec.server_capacity * load
    sla = SLA("svc", response_target_s=0.5, availability=0.9)
    return CoSimulation(spec, demand, managed=managed, sla=sla,
                        fault_schedule=schedule)


def test_rack_branch_failure_kills_and_repairs_whole_rack():
    sim = build_cosim(FaultSchedule([
        Incident(FaultKind.RACK_BRANCH, at_s=600.0, duration_s=1_800.0,
                 target="dc-rack0")]), managed=False)
    rack = sim.dc.cluster.racks[0]
    sim.env.run(until=700.0)
    assert all(s.state is ServerState.FAILED for s in rack.servers)
    assert sim.dc.rack_tripped[0] and sim.dc.rack_input_w()[0] == 0.0
    sim.env.run(until=3_000.0)
    # Repaired to OFF (ready to boot), breaker closed, record closed.
    assert all(s.state is ServerState.OFF for s in rack.servers)
    assert not sim.dc.rack_tripped[0]
    record = sim.fault_engine.records[0]
    assert record.end_s == pytest.approx(2_400.0)
    assert record.duration_s == pytest.approx(1_800.0)
    assert sim.fault_engine.mttr_s() == pytest.approx(1_800.0)


def test_ups_derate_incident_shrinks_and_restores_rating():
    sim = build_cosim(FaultSchedule([
        Incident(FaultKind.UPS_DERATE, at_s=300.0, duration_s=1_200.0,
                 severity=0.25)]), managed=False)
    nominal = sim.dc.ups.steady_rating_w
    sim.env.run(until=400.0)
    assert sim.dc.ups.steady_rating_w == pytest.approx(nominal * 0.75)
    status = sim.fault_engine.status()
    assert status.power_capacity_w == pytest.approx(nominal * 0.75)
    assert len(status.active_incidents) == 1
    sim.env.run(until=2_000.0)
    assert sim.dc.ups.steady_rating_w == pytest.approx(nominal)
    assert sim.fault_engine.status().healthy


def test_outage_generator_bridge_keeps_facility_up():
    sim = build_cosim(FaultSchedule([
        Incident(FaultKind.UTILITY_OUTAGE, at_s=600.0,
                 duration_s=1_800.0)]), managed=False)
    sim.fault_engine.generator_start_probability = 1.0
    sim.env.run(until=620.0)
    assert not sim.dc.ups.on_grid
    assert sim.fault_engine.status().on_battery
    sim.env.run(until=700.0)  # generator started at +30 s
    assert sim.dc.ups.on_grid
    assert not sim.fault_engine.status().on_battery
    sim.env.run(until=3_000.0)
    assert not sim.fault_engine.blackouts
    assert all(s.state is ServerState.ACTIVE for s in sim.dc.servers)


def test_outage_without_generator_blacks_out_facility():
    sim = build_cosim(FaultSchedule([
        Incident(FaultKind.UTILITY_OUTAGE, at_s=600.0,
                 duration_s=3_600.0)]), managed=False)
    sim.fault_engine.generator_start_probability = 0.0
    sim.dc.ups.battery_j = sim.dc.ups.load_w * 60.0 or 50_000.0
    sim.dc.ups.battery_capacity_j = sim.dc.ups.battery_j
    sim.env.run(until=3_600.0)
    assert sim.fault_engine.blackouts
    assert sim.fault_engine.generator_failures > 0
    assert all(s.state is ServerState.FAILED for s in sim.dc.servers)
    result = sim.run(600.0)
    assert result.resilience.blackouts == 1
    assert not result.resilience.survived


def test_crac_failure_trips_unmanaged_servers_thermally():
    sim = build_cosim(FaultSchedule([
        Incident(FaultKind.CRAC_FAILURE, at_s=1_800.0,
                 duration_s=4 * 3_600.0, target=0)]), managed=False,
        load=0.6, servers_per_rack=10)
    result = sim.run(6 * 3_600.0)
    assert result.thermal_alarms >= 1
    assert result.resilience.protective_shutdowns > 0
    # Tripped servers are genuinely FAILED, not just unloaded.
    zone0 = [s for s in sim.dc.servers if s.zone == "zone-0"]
    assert any(s.state is ServerState.FAILED for s in zone0)


# ----------------------------------------------------------------------
# Macro layer: degraded operations
# ----------------------------------------------------------------------
def test_managed_crac_failure_degrades_and_recovers():
    sim = build_cosim(FaultSchedule([
        Incident(FaultKind.CRAC_FAILURE, at_s=1_800.0,
                 duration_s=3 * 3_600.0, target=0)]), managed=True,
        load=0.6, servers_per_rack=10)
    result = sim.run(8 * 3_600.0)
    manager = sim.manager

    # Detected and degraded, drained the impaired zone before any trip.
    assert result.thermal_alarms == 0
    assert result.resilience.protective_shutdowns == 0
    assert result.resilience.survived
    modes = [(frm, to) for _, frm, to, _ in manager.mode_transitions]
    assert ("normal", "degraded") in modes
    assert ("degraded", "normal") in modes
    assert result.resilience.degraded_mode_s > 0
    assert any(zone == "zone-0" for _, zone, _ in manager.drains)

    # The audit trail carries the incident fields.
    degraded_decisions = [d for d in manager.decisions
                          if d.mode == "degraded"]
    assert degraded_decisions
    assert all(d.admission_fraction < 1.0 for d in degraded_decisions)
    assert any(d.active_incidents >= 1 for d in degraded_decisions)
    assert any(d.drained_servers > 0 for d in degraded_decisions)

    # Recovery restored normal admission and cleared the quarantine.
    assert manager.mode == "normal"
    assert sim.farm.admission_fraction == 1.0
    assert not sim.farm.quarantined_zones

    # Incident-window SLA is part of the report.
    during = result.resilience.sla_during_incidents
    assert during is not None
    assert 0.0 <= during.served_fraction <= 1.0
    assert result.resilience.incident_energy_j > 0


def test_degraded_mode_tightens_cap_during_outage():
    sim = build_cosim(FaultSchedule([
        Incident(FaultKind.UTILITY_OUTAGE, at_s=1_800.0,
                 duration_s=1_200.0)]), managed=True)
    sim.fault_engine.generator_start_probability = 0.0
    # Big battery so the tightened load rides the whole outage through.
    sim.dc.ups.battery_capacity_j = sim.dc.ups.battery_capacity_j * 10
    sim.dc.ups.battery_j = sim.dc.ups.battery_capacity_j
    nominal = sim.manager.capper.budget_w
    sim.env.run(until=2_400.0)  # mid-outage, past a manager cycle
    assert sim.manager.mode == "degraded"
    assert sim.manager.capper.budget_w < nominal
    policy = sim.manager.degraded_policy
    assert sim.manager.capper.budget_w == pytest.approx(
        nominal * policy.battery_cap_fraction * policy.cap_margin)
    # Forced P-state floor while on battery.
    active = sim.farm.active_servers()
    assert active and all(s.pstate >= policy.pstate_floor for s in active)
    sim.env.run(until=6_000.0)
    assert sim.manager.mode == "normal"
    assert sim.manager.capper.budget_w == pytest.approx(nominal)
    assert not sim.fault_engine.blackouts


def test_no_schedule_means_no_resilience_report():
    spec = DataCenterSpec(racks=2, servers_per_rack=4, zones=2, cracs=2)
    demand = lambda t: 300.0
    sim = CoSimulation(spec, demand, managed=True)
    result = sim.run(1_800.0)
    assert result.resilience is None
    assert sim.manager.mode == "normal"
    assert all(d.mode == "normal" for d in sim.manager.decisions)


def test_open_incident_has_nan_duration_but_report_closes_window():
    sim = build_cosim(FaultSchedule([
        Incident(FaultKind.CRAC_FAILURE, at_s=600.0,
                 duration_s=10 * 3_600.0, target=0)]), managed=True)
    result = sim.run(3_600.0)  # run ends mid-incident
    record = result.resilience.incidents[0]
    assert record.active
    assert math.isnan(record.duration_s)
    assert result.resilience.incident_count == 1
    assert result.resilience.sla_during_incidents is not None
