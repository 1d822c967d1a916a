"""EXP-DVFS: control-based DVFS and request batching (paper §4.2,
[21], [22]).

Three policies the paper surveys, each with its defining trade-off
measured:

* control-based DVFS holds a response-time target while cutting power
  at low load (Elnozahy et al. [21]);
* request batching buys further savings at an explicit latency cost,
  shrinking as load rises;
* per-task DVFS (Vertigo, [22]) converts deadline slack into energy,
  with the V²f super-linear payoff.

The controlled and baseline farms are independent simulations, so
they run as two :class:`~repro.perf.SweepRunner` points in parallel;
each point is deterministic, so the metrics match a serial run
exactly.
"""

from conftest import record

from repro.control import (
    BatchingModel,
    PerTaskDVFS,
    ResponseTimeDVFS,
    ServerFarm,
)
from repro.fleet import VectorFleet, VectorServer
from repro.perf import SweepPoint, SweepRunner
from repro.sim import Environment


def run_rt_dvfs(demand: float, target_s: float = 0.05, hours: float = 4):
    env = Environment()
    fleet = VectorFleet(env, 10)
    servers = [VectorServer(fleet, env, f"s{i}", capacity=100.0,
                            boot_s=60.0) for i in range(10)]
    fleet.make_aggregate(servers, "rack")
    for server in servers:
        server.power_on()
    env.run(until=61.0)
    farm = ServerFarm(env, servers, demand_fn=lambda t: demand,
                      dispatch_period_s=30.0)
    env.process(farm.run())
    controller = ResponseTimeDVFS(farm, target_response_s=target_s,
                                  period_s=60.0)
    env.process(controller.run())
    env.run(until=hours * 3600.0)
    return farm


def run_baseline(demand: float, hours: float = 4):
    env = Environment()
    fleet = VectorFleet(env, 10)
    servers = [VectorServer(fleet, env, f"s{i}", capacity=100.0,
                            boot_s=60.0) for i in range(10)]
    fleet.make_aggregate(servers, "rack")
    for server in servers:
        server.power_on()
    env.run(until=61.0)
    farm = ServerFarm(env, servers, demand_fn=lambda t: demand,
                      dispatch_period_s=30.0)
    env.process(farm.run())
    env.run(until=hours * 3600.0)
    return farm


def run_policy_point(params):
    """One farm simulation as a parallel sweep point.

    Returns the steady-state means the headline rows need; the farm
    itself stays in the worker (it is not picklable and need not be).
    """
    runner = run_rt_dvfs if params["policy"] == "rt-dvfs" else run_baseline
    farm = runner(params["demand"], hours=params["hours"])
    return {
        "power_w": farm.power_monitor.time_weighted_mean(3600.0, None),
        "delay_s": farm.delay_monitor.time_weighted_mean(3600.0, None),
    }


def test_exp_dvfs_policies(benchmark):
    # --- control-based DVFS: holds the target, saves power ----------
    demand = 300.0  # 30 % load on 10 servers
    points = [
        SweepPoint("rt-dvfs", {"policy": "rt-dvfs", "demand": demand,
                               "hours": 4}),
        SweepPoint("baseline", {"policy": "baseline", "demand": demand,
                                "hours": 4}),
    ]
    report = SweepRunner(run_policy_point, points, workers=2).run()
    by_name = {r.name: r.metrics for r in report.results}
    power_dvfs = by_name["rt-dvfs"]["power_w"]
    power_base = by_name["baseline"]["power_w"]
    delay_dvfs = by_name["rt-dvfs"]["delay_s"]
    assert power_dvfs < 0.97 * power_base
    assert delay_dvfs <= 0.05 * 1.4  # holds the target within 40 %

    # --- request batching: more savings, explicit latency bill ------
    batching = BatchingModel()
    low_save = batching.savings_fraction(arrival_rate=10.0, timeout_s=0.2)
    high_save = batching.savings_fraction(arrival_rate=150.0,
                                          timeout_s=0.2)
    latency_bill = batching.added_latency_s(10.0, 0.2)
    assert low_save > 0.25
    assert high_save < low_save / 2
    best = batching.best_timeout_s(arrival_rate=10.0,
                                   latency_budget_s=0.1)
    assert batching.added_latency_s(10.0, best) <= 0.1

    # --- per-task DVFS: slack -> energy, super-linearly --------------
    per_task = PerTaskDVFS()
    energies = {slack: per_task.relative_energy(work_s=1.0,
                                                deadline_s=slack)
                for slack in (1.0, 1.5, 2.0, 3.0)}
    assert energies[1.0] == 1.0
    assert energies[3.0] < 0.7  # deep state: V² payoff
    values = [energies[s] for s in (1.0, 1.5, 2.0, 3.0)]
    assert values == sorted(values, reverse=True)

    rows = [
        f"control-based DVFS @30% load: {power_base:.0f} W -> "
        f"{power_dvfs:.0f} W ({1 - power_dvfs / power_base:.0%} saving), "
        f"delay {delay_dvfs * 1000:.0f} ms (target 50 ms)",
        f"batching @ rho=0.05: {low_save:.0%} CPU power saving for "
        f"+{latency_bill * 1000:.0f} ms latency; @ rho=0.75 saving "
        f"falls to {high_save:.0%}",
        f"best batching timeout under a 100 ms budget: {best * 1000:.0f} ms",
        "per-task DVFS energy vs deadline slack: "
        + ", ".join(f"{s}x: {e:.2f}" for s, e in energies.items()),
    ]
    record(benchmark, "EXP-DVFS: DVFS policies and batching", rows,
           dvfs_saving=float(1 - power_dvfs / power_base),
           batching_saving_low=float(low_save),
           sweep_speedup=float(report.speedup))

    short_points = [
        SweepPoint(p.name, {**p.params, "hours": 1}) for p in points
    ]

    def parallel_sweep():
        return SweepRunner(run_policy_point, short_points, workers=2).run()

    benchmark.pedantic(parallel_sweep, rounds=1, iterations=1)
