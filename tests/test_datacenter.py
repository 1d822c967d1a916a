"""Tests for tiers, the spec builder, and the co-simulation harness."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.server import ServerState
from repro.core import SLA
from repro.datacenter import (
    CoSimulation,
    DataCenterSpec,
    TIER_SPECS,
    Tier,
)
from repro.power import (
    PDU_EFFICIENCY,
    PowerNode,
    PUEAccountant,
    TRANSFORMER_EFFICIENCY,
    UPS_DOUBLE_CONVERSION_EFFICIENCY,
)
from repro.sim import Environment
from repro.workload import DiurnalProfile


# ----------------------------------------------------------------------
# Tiers
# ----------------------------------------------------------------------
def test_tier2_availability_matches_paper():
    """§2.1: tier-2 provides 99.741 % availability."""
    assert TIER_SPECS[Tier.II].availability == 0.99741


def test_tier_ordering():
    avail = [TIER_SPECS[t].availability for t in Tier]
    assert avail == sorted(avail)


def test_tier_downtime_hours():
    tier2 = TIER_SPECS[Tier.II]
    assert tier2.downtime_hours_per_year == pytest.approx(22.7, abs=0.3)


def test_tier_ups_margins():
    assert TIER_SPECS[Tier.I].ups_margin() == 1.0
    assert TIER_SPECS[Tier.II].ups_margin() == 1.25
    assert TIER_SPECS[Tier.IV].ups_margin() == 2.0


# ----------------------------------------------------------------------
# Spec builder
# ----------------------------------------------------------------------
def test_spec_validation():
    with pytest.raises(ValueError):
        DataCenterSpec(racks=0)
    with pytest.raises(ValueError):
        DataCenterSpec(zones=0)
    with pytest.raises(ValueError):
        DataCenterSpec(racks=2, zones=4)
    with pytest.raises(ValueError):
        DataCenterSpec(cross_conductance_fraction=2.0)


def test_build_produces_consistent_facility():
    spec = DataCenterSpec(racks=4, servers_per_rack=5, zones=2, cracs=2)
    env = Environment()
    dc = spec.build(env)
    assert len(dc.servers) == 20
    assert len(dc.cluster.racks) == 4
    assert len(dc.room.zones) == 2
    assert len(dc.room.cracs) == 2
    # Every rack has one branch breaker, closed, and one zone row.
    assert dc.rack_tripped.tolist() == [False] * 4
    assert [dc.room.zones[row].name for row in dc.rack_zone] == [
        r.zone for r in dc.cluster.racks]
    # UPS sized: tier II margin 1.25 over critical power.
    critical = 20 * spec.server_peak_w
    assert dc.ups.steady_rating_w == pytest.approx(critical * 1.25)


def test_racks_assigned_to_zones_round_robin():
    spec = DataCenterSpec(racks=4, servers_per_rack=2, zones=2)
    dc = spec.build(Environment())
    zones = [rack.zone for rack in dc.cluster.racks]
    assert zones == ["zone-0", "zone-1", "zone-0", "zone-1"]


def test_sensitivity_matrix_has_locality():
    spec = DataCenterSpec(racks=4, servers_per_rack=2, zones=4, cracs=2,
                          cross_conductance_fraction=0.1)
    dc = spec.build(Environment())
    matrix = dc.room.conductance
    # Each zone has exactly one strong coupling.
    for row in matrix:
        assert (row == row.max()).sum() == 1
        assert row.max() > 5 * row.min()


def test_sync_physical_round_trip():
    spec = DataCenterSpec(racks=2, servers_per_rack=4, zones=2)
    env = Environment()
    dc = spec.build(env)
    for server in dc.servers:
        server.power_on()
    env.run(until=spec.boot_s + 1.0)
    snapshot = dc.sync_physical()
    # Eight idle servers at 180 W.
    assert snapshot["it_w"] == pytest.approx(8 * 180.0)
    assert snapshot["grid_w"] > snapshot["it_w"]
    assert snapshot["pue"] > 1.0
    # Heat landed in the zones.
    total_heat = sum(z.heat_load_w for z in dc.room.zones)
    assert total_heat == pytest.approx(snapshot["it_w"])


def spec_power_tree(spec, racks):
    """The builder's Figure-1 tree as ``PowerNode`` objects: transformer
    -> UPS -> PDU -> one identity-efficiency leaf per rack."""
    rack_peak_w = spec.servers_per_rack * spec.server_peak_w
    critical_w = spec.racks * rack_peak_w
    ups_rating = critical_w * TIER_SPECS[spec.tier].ups_margin()
    transformer = PowerNode("transformer", ups_rating * 1.2,
                            TRANSFORMER_EFFICIENCY)
    ups = transformer.add_child(
        PowerNode("ups", ups_rating, UPS_DOUBLE_CONVERSION_EFFICIENCY))
    pdu = ups.add_child(PowerNode("pdu", critical_w * 1.1, PDU_EFFICIENCY))
    leaves = [pdu.add_child(PowerNode(rack.name, rack_peak_w * 1.2))
              for rack in racks]
    return transformer, leaves


@st.composite
def facilities(draw):
    racks = draw(st.integers(1, 30))
    spec = DataCenterSpec(
        racks=racks, servers_per_rack=draw(st.integers(1, 5)),
        zones=draw(st.integers(1, min(racks, 6))),
        cracs=draw(st.integers(1, 3)),
        tier=draw(st.sampled_from(list(Tier))),
        server_peak_w=draw(st.floats(100.0, 500.0)),
        server_idle_fraction=draw(st.floats(0.2, 0.8)))
    started = draw(st.lists(st.booleans(), min_size=spec.total_servers,
                            max_size=spec.total_servers))
    tripped = draw(st.lists(st.sampled_from([False, False, True]),
                            min_size=racks, max_size=racks))
    return spec, started, tripped


@settings(max_examples=60, deadline=None)
@given(facilities())
def test_sync_physical_matches_power_node_tree(facility):
    """The breaker-column fold equals the recursive ``PowerNode`` walk.

    Rack draws are whole multiples of the 2**-32 W ledger quantum and
    stay far below 2**21 W here, so every partial sum is exact and the
    tree's ``sum`` agrees with the ``cumsum`` fold on any interpreter.
    """
    spec, started, tripped = facility
    env = Environment()
    dc = spec.build(env)
    plant = dc.cluster.plant
    rows = [s._idx for s, on in zip(dc.servers, started) if on]
    if rows:
        plant.start_many(rows)
    env.run(until=spec.boot_s + 1.0)
    for row, rack in enumerate(dc.cluster.racks):
        if tripped[row]:
            dc.rack_tripped[row] = True
            failing = plant.rows_in(
                (ServerState.OFF, ServerState.ACTIVE), None,
                rack.aggregate._lo, rack.aggregate._hi)
            if failing.size:
                plant.park_many(failing, ServerState.FAILED)
    root, leaves = spec_power_tree(spec, dc.cluster.racks)
    for leaf, rack, open_ in zip(leaves, dc.cluster.racks, tripped):
        leaf.set_demand(rack.power_w())
        if open_:
            leaf.trip()
    grid_w = root.input_w()
    it_w = dc.cluster.power_w()
    loss_w = grid_w - it_w
    if loss_w < 0:
        # FAILED rows behind an open breaker still draw standby power
        # in ``it_w`` but not through the tree, so the loss can read
        # negative, and the PUE meter refuses it after the UPS update.
        with pytest.raises(ValueError, match="negative loss"):
            dc.sync_physical()
        assert dc.ups.load_w == root.find("ups").output_w()
        return
    snap = dc.sync_physical()
    assert snap["it_w"] == it_w
    assert snap["grid_w"] == grid_w
    assert snap["loss_w"] == loss_w
    assert dc.ups.load_w == root.find("ups").output_w()
    assert snap["pue"] == PUEAccountant.instantaneous(
        it_w, loss_w, snap["mechanical_w"])
    heat = [sum(r.power_w() for r in dc.cluster.racks if r.zone == z.name)
            for z in dc.room.zones]
    assert dc.room.heat_load_w.tolist() == heat


# ----------------------------------------------------------------------
# Co-simulation
# ----------------------------------------------------------------------
def diurnal_demand(spec, utilization=0.6):
    profile = DiurnalProfile()
    peak = spec.total_servers * spec.server_capacity * utilization
    return lambda t: peak * profile(t)


def small_spec():
    return DataCenterSpec(racks=4, servers_per_rack=10, zones=2, cracs=2)


def test_cosim_validation():
    spec = small_spec()
    with pytest.raises(ValueError):
        CoSimulation(spec, lambda t: 0.0, physical_step_s=0.0)
    sim = CoSimulation(spec, lambda t: 0.0, managed=False)
    with pytest.raises(ValueError):
        sim.run(0.0)


def test_cosim_static_run_is_healthy():
    spec = small_spec()
    sim = CoSimulation(spec, diurnal_demand(spec), managed=False)
    result = sim.run(6 * 3600.0)
    assert result.thermal_alarms == 0
    assert result.sla.served_fraction > 0.999
    assert 1.0 < result.energy_weighted_pue < 3.0
    assert result.mean_active_servers == pytest.approx(40.0)


def test_cosim_managed_saves_energy_with_sla(the_sla=None):
    """FIG-4 shape: coordination saves substantially vs static."""
    spec = small_spec()
    sla = SLA("svc", response_target_s=0.15)
    managed = CoSimulation(spec, diurnal_demand(spec), managed=True,
                           sla=sla)
    static = CoSimulation(spec, diurnal_demand(spec), managed=False,
                          sla=sla)
    res_m = managed.run(12 * 3600.0)
    res_s = static.run(12 * 3600.0)
    assert res_m.facility_energy_j < 0.85 * res_s.facility_energy_j
    assert res_m.sla.compliant
    assert res_m.thermal_alarms == 0


def test_cosim_pue_worse_at_low_utilization():
    """§2.2: under-utilized facilities have poor PUE — fixed fan and
    UPS losses dominate a small IT load."""
    spec = small_spec()
    low = CoSimulation(spec, lambda t: 400.0, managed=False)
    high = CoSimulation(spec, lambda t: 3600.0, managed=False)
    pue_low = low.run(6 * 3600.0).energy_weighted_pue
    pue_high = high.run(6 * 3600.0).energy_weighted_pue
    assert pue_low > pue_high


def test_cosim_manager_rides_through_demand_swing():
    spec = small_spec()
    sla = SLA("svc", response_target_s=0.15, availability=0.99)

    def swing(t):
        return 1200.0 if t < 4 * 3600.0 else 2800.0

    from repro.core import EWMAForecaster
    # A step has no daily season; react fast with EWMA and a short
    # macro period so the scale-up lag stays inside the availability
    # budget.
    sim = CoSimulation(spec, swing, managed=True, sla=sla,
                       manager_kwargs={
                           "forecaster": EWMAForecaster(alpha=0.6),
                           "period_s": 120.0,
                       })
    result = sim.run(10 * 3600.0)
    assert result.sla.availability_ok
    # Fleet grew across the step.
    assert sim.farm.active_monitor.last > sim.farm.active_monitor.minimum()


def test_cosim_peak_grid_power_tracked():
    spec = small_spec()
    sim = CoSimulation(spec, diurnal_demand(spec), managed=False)
    result = sim.run(3600.0)
    assert result.peak_grid_w > 0
    assert result.peak_grid_w < sim.dc.ups.steady_rating_w * 1.5
