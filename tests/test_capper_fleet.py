"""The power capper's fleet path against its per-load path.

On a vector fleet the capper runs on columns: the demand fold, the
fair shares and the cap and lift kernels (``VectorFleet.apply_caps``
and ``lift_caps``).  A capper with an actuator wired takes the
per-load path instead — one ``apply_cap`` / ``remove_cap`` per load.
These tests run the two on twin fleets and require the same
decisions and the same bits in every column either path touches.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.controlplane import ControlPlane, ControlPlaneProfile
from repro.core.faults import FaultKind, FaultSchedule, Incident
from repro.datacenter import CoSimulation, DataCenterSpec
from repro.fleet import VectorFleet, VectorServer
from repro.power.capping import PowerCapper, fair_shares
from repro.power.models import ServerPowerModel
from repro.power.pstates import PStateTable
from repro.sim import Environment, RandomStreams

#: Setup state of one row: what the row is driven into before the
#: capper runs.
STATES = ("active", "sleeping", "off", "booting", "waking", "failed")


def left_sum(values):
    """``sum`` as a plain left fold (Python 3.12's ``sum`` of floats
    compensates, so it is spelled out)."""
    total = 0
    for value in values:
        total += value
    return total


def list_shares(target_total, floors, draws):
    """The capper's share rule as plain list code — the oracle."""
    total_draw = left_sum(draws) or 1.0
    shares = [max(f, target_total * d / total_draw)
              for f, d in zip(floors, draws)]
    overshoot = left_sum(shares) - target_total
    if overshoot > 0:
        slack = [s - f for s, f in zip(shares, floors)]
        total_slack = left_sum(slack)
        if total_slack > 0:
            trim = min(overshoot, total_slack)
            shares = [s - trim * (sl / total_slack)
                      for s, sl in zip(shares, slack)]
    return shares


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 400.0), st.floats(0.0, 400.0)),
                min_size=1, max_size=30),
       st.floats(1.0, 12_000.0))
def test_fair_shares_match_the_list_rule(rows, target):
    floors = [min(f, d) for f, d in rows]
    draws = [d for _, d in rows]
    got = fair_shares(target, np.array(floors), np.array(draws))
    assert got.tolist() == list_shares(target, floors, draws)


def build_twin(rows, nonlinearity, tstates):
    """A racked, pooled fleet driven into the rows' setup states.

    ``rows`` holds ``(state, load, pstate, precap)`` per server;
    ``precap`` (watts or ``None``) is applied while the server is
    ACTIVE, so a capped server that is then put to sleep or failed
    keeps its cap and T-state.
    """
    table = PStateTable() if tstates else PStateTable(tstates=())
    model = ServerPowerModel(nonlinearity=nonlinearity,
                             pstate_table=table)
    env = Environment()
    n = len(rows)
    fleet = VectorFleet(env, n)
    servers = [VectorServer(fleet, env, f"s{i}", power_model=model)
               for i in range(n)]
    half = max(1, n // 2)
    fleet.make_aggregate(servers[:half], "rack")
    if half < n:
        fleet.make_aggregate(servers[half:], "rack")
    fleet.make_aggregate(servers, "pool")
    for server, (state, *_rest) in zip(servers, rows):
        if state != "off":
            server.power_on()
    env.run(until=130.0)
    for server, (state, load, pstate, precap) in zip(servers, rows):
        if state == "off":
            continue
        server.set_offered_load(load)
        server.set_pstate(pstate)
        if precap is not None:
            server.apply_cap(precap)
    env.run(until=200.0)
    for server, (state, *_rest) in zip(servers, rows):
        if state in ("sleeping", "waking"):
            server.set_offered_load(0.0)
            server.sleep()
        elif state == "failed":
            server.fail()
    env.run(until=260.0)
    for server, (state, *_rest) in zip(servers, rows):
        if state == "booting":
            server.set_offered_load(0.0)
            server.shut_down()
            server.power_on()
        elif state == "waking":
            server.wake()
    env.run(until=261.0)  # mid-transition for BOOTING / WAKING rows
    return env, fleet, servers


def passthrough(load, watts):
    """An actuator that only forces the capper's per-load path."""
    if watts is None:
        return load.remove_cap()
    return load.apply_cap(watts)


COLUMNS = ("tstate", "cap_w", "power", "eff_cap", "energy_j", "t_last",
           "state_code", "offered")


def assert_twins(fleet_a, fleet_b):
    for name in COLUMNS:
        a = getattr(fleet_a, name)
        b = getattr(fleet_b, name)
        assert a.tobytes() == b.tobytes(), name
    racks = fleet_a.n_racks
    assert fleet_a.rack_q[:racks].tolist() == \
        fleet_b.rack_q[:racks].tolist()
    assert fleet_a.pool_agg._q == fleet_b.pool_agg._q


row = st.tuples(st.sampled_from(STATES), st.floats(0.0, 140.0),
                st.integers(0, 5),
                st.one_of(st.none(), st.floats(60.0, 320.0)))


@settings(max_examples=80, deadline=None)
@given(st.lists(row, min_size=1, max_size=10),
       st.sampled_from([1.0, 1.3]), st.booleans(),
       st.lists(st.floats(0.02, 1.4), min_size=1, max_size=3))
def test_fleet_capper_matches_the_per_load_path(rows, nonlinearity,
                                                tstates, fractions):
    env_a, fleet_a, servers_a = build_twin(rows, nonlinearity, tstates)
    env_b, fleet_b, servers_b = build_twin(rows, nonlinearity, tstates)
    assert_twins(fleet_a, fleet_b)
    demand = fleet_a.total_demand_w()
    # One budget per evaluation: from far below the floor sum to
    # above demand, so throttle, floor and lift branches all run.
    budgets = [max(1.0, f * demand / 0.97) for f in fractions]
    fleet_cap = PowerCapper(env_a, budgets[0], servers_a)
    scalar_cap = PowerCapper(env_b, budgets[0], servers_b,
                             actuator=passthrough)
    assert fleet_cap._vector_fleet() is fleet_a
    assert scalar_cap._vector_fleet() is None
    t = env_a.now
    for budget in budgets:
        t += 30.0
        env_a.run(until=t)
        env_b.run(until=t)
        fleet_cap.budget_w = scalar_cap.budget_w = budget
        a = fleet_cap.evaluate()
        b = scalar_cap.evaluate()
        assert a == b
        assert_twins(fleet_a, fleet_b)
    assert (fleet_cap.delivered_monitor.values.tobytes()
            == scalar_cap.delivered_monitor.values.tobytes())


def test_table_without_tstates_keeps_today_s_behaviour():
    """With no T-states an ACTIVE server's floor is its draw, so the
    capper throttles nothing; a direct ``apply_cap`` below the draw
    falls through to T-state -1 at the T0 draw, and the cap kernel
    does the same."""
    rows = [("active", 120.0, 0, None), ("active", 90.0, 2, None),
            ("sleeping", 0.0, 0, None)]
    env_a, fleet_a, servers_a = build_twin(rows, 1.0, tstates=False)
    env_b, fleet_b, servers_b = build_twin(rows, 1.0, tstates=False)
    low = 0.3 * fleet_a.total_demand_w()
    fleet_cap = PowerCapper(env_a, low, servers_a)
    scalar_cap = PowerCapper(env_b, low, servers_b, actuator=passthrough)
    decision = fleet_cap.evaluate()
    assert decision == scalar_cap.evaluate()
    assert decision.capped and decision.throttled_loads == 0
    assert_twins(fleet_a, fleet_b)

    draws = fleet_a.demand_column()
    shares = 0.5 * draws
    delivered = fleet_a.apply_caps(shares, draws)
    scalar = [s.apply_cap(w) for s, w in zip(servers_b, shares.tolist())]
    assert delivered.tolist() == scalar
    assert fleet_a.tstate.tolist() == [-1, -1, 0]
    assert_twins(fleet_a, fleet_b)

    env_a.run(until=env_a.now + 60.0)
    env_b.run(until=env_b.now + 60.0)
    fleet_a.lift_caps(fleet_a.demand_column())
    for server in servers_b:
        server.remove_cap()
    assert fleet_a.tstate.tolist() == [0, 0, 0]
    assert np.isnan(fleet_a.cap_w).all()
    assert_twins(fleet_a, fleet_b)


def test_lift_with_no_candidate_touches_nothing():
    rows = [("active", 50.0, 1, None), ("off", 0.0, 0, None)]
    env, fleet, servers = build_twin(rows, 1.0, tstates=True)
    before = {name: getattr(fleet, name).copy() for name in COLUMNS}
    epoch = fleet.mutation_epoch
    fleet.lift_caps(fleet.demand_column())
    assert fleet.mutation_epoch == epoch
    for name, column in before.items():
        assert getattr(fleet, name).tobytes() == column.tobytes()


# ----------------------------------------------------------------------
# A perfect plane is wired nowhere
# ----------------------------------------------------------------------
VERBS = ("publish_tick", "publish_physical", "observe_demand",
         "zone_temp", "observe_status", "activate_many",
         "deactivate_many", "set_pstate", "shut_down", "cap_actuator",
         "reconcile")


def test_perfect_plane_cosim_calls_no_plane_verb(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a perfect plane was asked to act")

    for verb in VERBS:
        monkeypatch.setattr(ControlPlane, verb, refuse)
    spec = DataCenterSpec(racks=2, servers_per_rack=5, zones=2, cracs=2)
    capacity = spec.total_servers * spec.server_capacity
    faults = FaultSchedule([
        Incident(FaultKind.CRAC_FAILURE, 2 * 3600.0, 3 * 3600.0,
                 target=0),
        Incident(FaultKind.UTILITY_OUTAGE, 4 * 3600.0, 1800.0)])
    sim = CoSimulation(
        spec, lambda t: capacity * (0.4 + 0.3 * math.sin(t / 7200.0)),
        control_plane=ControlPlaneProfile(), fault_schedule=faults,
        power_budget_w=2000.0, streams=RandomStreams(17))
    assert sim.farm.control_plane is None
    assert sim.manager.control_plane is None
    assert sim.manager.capper._vector_fleet() is sim.farm.fleet.plant
    result = sim.run(6 * 3600.0)
    assert any(d.capped for d in sim.manager.decisions)
    assert result.controlplane.commands_issued == 0
    assert result.controlplane.divergent_servers == 0
