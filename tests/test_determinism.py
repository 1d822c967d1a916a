"""Determinism regressions for the fleet-aggregate fast paths.

Two guarantees the optimization work must never erode:

* the co-simulation is a pure function of (spec, demand, seed) — the
  FIG-4 managed/static pair re-run with the same seed reproduces every
  result field exactly;
* the incremental fleet power ledger (integer quanta) equals an exact
  recount, whatever order its changes were folded in.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control import DelayBasedOnOff, ServerFarm, UtilizationDVFS
from repro.datacenter import CoSimulation, DataCenterSpec
from repro.fleet import VectorFleet, VectorServer
from repro.sim import Environment, RandomStreams
from repro.workload import DiurnalProfile


def _run_fig4_pair(seed):
    """The FIG-4 shape at small scale: static vs managed, same seed."""
    spec = DataCenterSpec(racks=4, servers_per_rack=10, zones=2, cracs=2)
    profile = DiurnalProfile()
    peak = spec.total_servers * spec.server_capacity * 0.6
    results = []
    for managed in (False, True):
        sim = CoSimulation(spec, lambda t: peak * profile(t),
                           managed=managed,
                           streams=RandomStreams(seed=seed))
        results.append(sim.run(6 * 3600.0))
    return results


def test_cosim_pair_reruns_bit_identically():
    first = _run_fig4_pair(seed=42)
    second = _run_fig4_pair(seed=42)
    for a, b in zip(first, second):
        assert a.duration_s == b.duration_s
        assert a.it_energy_j == b.it_energy_j
        assert a.facility_energy_j == b.facility_energy_j
        assert a.energy_weighted_pue == b.energy_weighted_pue
        assert a.mean_active_servers == b.mean_active_servers
        assert a.thermal_alarms == b.thermal_alarms
        assert a.peak_grid_w == b.peak_grid_w
        assert a.sla.served_fraction == b.sla.served_fraction


def _run_farm(hours=8.0):
    """A farm with DVFS + On/Off churn (plenty of power deltas) on a
    vector plant of four racks."""
    env = Environment()
    fleet = VectorFleet(env, 20)
    servers = [VectorServer(fleet, env, f"s{i}", capacity=100.0,
                            boot_s=60.0) for i in range(20)]
    for lo in range(0, 20, 5):
        fleet.make_aggregate(servers[lo:lo + 5], kind="rack")
    for server in servers[:12]:
        server.power_on()
    env.run(until=61.0)
    farm = ServerFarm(env, servers,
                      demand_fn=lambda t: 700.0
                      + 300.0 * math.sin(t / 1800.0))
    env.process(farm.run())
    env.process(UtilizationDVFS(farm, period_s=60.0, low=0.6,
                                high=0.9).run())
    env.process(DelayBasedOnOff(farm, period_s=120.0,
                                high_delay_s=0.05,
                                low_delay_s=0.012).run())
    env.run(until=hours * 3600.0)
    return farm


def _active_plant(n=14, width=4):
    """A vector plant, every server ACTIVE, in racks of ``width`` (the
    last one shorter) under one pool."""
    env = Environment()
    fleet = VectorFleet(env, n)
    servers = [VectorServer(fleet, env, f"s{i}") for i in range(n)]
    for lo in range(0, n, width):
        fleet.make_aggregate(servers[lo:lo + width], kind="rack")
    pool = fleet.make_aggregate(servers, kind="pool")
    fleet.start_many(np.arange(n))
    env.run(until=121.0)
    return fleet, servers, pool


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_incremental_energy_matches_forced_recompute(seed):
    """The incremental ledger equals a forced recount in any fold order.

    The same per-row power changes go through the scalar funnel (one
    ``set_offered_load`` at a time) and through the batch fold, in
    ascending, shuffled and victim (descending) order.  Every run ends
    on identical rack and pool ledgers, and a recount finds no drift.
    """
    rng = np.random.default_rng(seed)
    n = 14
    rows = np.flatnonzero(rng.random(n) < 0.7)
    # Loads past a row's capacity saturate it: some changes are zero.
    loads = rng.random(rows.size) * 150.0
    orders = (np.arange(rows.size), rng.permutation(rows.size),
              np.arange(rows.size)[::-1])
    ledgers = set()
    for order in orders:
        fleet, servers, pool = _active_plant(n)
        for k in order.tolist():
            servers[rows[k]].set_offered_load(loads[k])
        batch, _, batch_pool = _active_plant(n)
        moved = rows[order]
        oldp = batch.power[moved].copy()
        newp = fleet.power[moved]
        batch.power[moved] = newp
        batch._fold_power(moved, oldp, newp)
        assert batch.rack_q.tolist() == fleet.rack_q.tolist()
        assert batch_pool._q == pool._q
        ledgers.add((tuple(fleet.rack_q.tolist()), pool._q))
        for aggregate in (pool, batch_pool, *fleet.rack_aggs,
                          *batch.rack_aggs):
            assert aggregate.recompute_exact() == 0.0
    assert len(ledgers) == 1


def test_aggregate_drift_stays_negligible():
    """After hours of churn the ledger still equals an exact recount,
    on the vector plant's pool and racks."""
    farm = _run_farm()
    assert farm.fleet.verify()["power_drift_w"] == 0.0
    for rack in farm.servers[0]._fleet.rack_aggs:
        assert rack.verify()["power_drift_w"] == 0.0
    assert farm.fleet.power_w == pytest.approx(
        sum(s.power_w() for s in farm.servers), rel=1e-12)


def test_aggregate_counts_match_scan():
    farm = _run_farm(hours=2.0)
    active = [s for s in farm.servers if s.is_serving]
    assert farm.fleet.active_count == len(active)
    assert farm.fleet.active_servers() == active
