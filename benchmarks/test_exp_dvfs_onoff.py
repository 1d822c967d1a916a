"""EXP-DVFSOO: the §5.1 oblivious-composition pathology (paper [29]).

    "The energy expended on keeping a larger number of machines on may
    not necessarily be offset by DVS savings ... the resulting cycle
    may lead to poor energy performance, even despite the fact that
    both the DVS and On/Off policies have the same energy saving goal."

Identical constant workload, identical fleet; only the wiring of the
controllers differs.  Shape claims: the oblivious composition turns
(nearly) every machine on at deep P-states and burns far more power
with no better delay; the coordinated controller does neither.
"""

from conftest import record

from repro.control import (
    CoordinatedController,
    DelayBasedOnOff,
    ServerFarm,
    UtilizationDVFS,
)
from repro.fleet import VectorFleet, VectorServer
from repro.sim import Environment

HOURS = 8


def build_farm():
    env = Environment()
    fleet = VectorFleet(env, 20)
    servers = [VectorServer(fleet, env, f"s{i}", capacity=100.0,
                            boot_s=120.0, wake_s=15.0) for i in range(20)]
    fleet.make_aggregate(servers, "rack")
    for server in servers[:10]:
        server.power_on()
    env.run(until=130.0)
    farm = ServerFarm(env, servers, demand_fn=lambda t: 600.0,
                      dispatch_period_s=30.0)
    env.process(farm.run())
    return env, farm


def run_uncoordinated():
    env, farm = build_farm()
    dvfs = UtilizationDVFS(farm, period_s=60.0, low=0.7, high=0.95)
    onoff = DelayBasedOnOff(farm, period_s=120.0,
                            high_delay_s=0.045, low_delay_s=0.01)
    env.process(dvfs.run())
    env.process(onoff.run())
    env.run(until=HOURS * 3600.0)
    return farm, max(s.pstate for s in farm.active_servers())


def run_coordinated():
    env, farm = build_farm()
    coordinator = CoordinatedController(farm, period_s=120.0,
                                        target_utilization=0.8,
                                        headroom=1.1)
    env.process(coordinator.run())
    env.run(until=HOURS * 3600.0)
    return farm, max(s.pstate for s in farm.active_servers())


def test_exp_dvfs_onoff(benchmark):
    farm_u, pstate_u = run_uncoordinated()
    farm_c, pstate_c = run_coordinated()

    power_u = farm_u.power_monitor.time_weighted_mean(1000.0, None)
    power_c = farm_c.power_monitor.time_weighted_mean(1000.0, None)
    delay_u = farm_u.delay_monitor.time_weighted_mean(1000.0, None)
    delay_c = farm_c.delay_monitor.time_weighted_mean(1000.0, None)

    # The spiral: all machines on, at or near the deepest P-state.
    assert len(farm_u.active_servers()) >= 18
    assert pstate_u >= 4
    # Coordination: a small fleet at (or near) full speed.
    assert len(farm_c.active_servers()) <= 10
    assert pstate_c <= 1
    # Energy verdict — and delay is no worse coordinated.
    assert power_c < 0.7 * power_u
    assert delay_c <= delay_u + 1e-9

    rows = [f"{'composition':<16}{'machines':>10}{'P-state':>9}"
            f"{'avg W':>8}{'avg delay ms':>14}",
            f"{'oblivious':<16}{len(farm_u.active_servers()):>10}"
            f"{pstate_u:>9}{power_u:>8.0f}{delay_u * 1000:>14.1f}",
            f"{'coordinated':<16}{len(farm_c.active_servers()):>10}"
            f"{pstate_c:>9}{power_c:>8.0f}{delay_c * 1000:>14.1f}",
            f"energy waste of oblivious composition: "
            f"{power_u / power_c:.2f}x"]
    record(benchmark, "EXP-DVFSOO: oblivious DVFS x On/Off vs "
           "coordination", rows,
           waste_factor=float(power_u / power_c))
    benchmark.pedantic(run_coordinated, rounds=1, iterations=1)
