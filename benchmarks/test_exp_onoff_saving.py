"""EXP-ONOFF: energy-aware server provisioning (paper §4.3, [18]).

    "Turning these devices off is the only way to eliminate the idle
    power consumption."  And the caveat: "sometime, this wakeup
    process may consume more energy and offset the benefit of
    sleeping."

Two days of Messenger-like diurnal load on the same fleet under
three policies (static peak / reactive / forecast+hysteresis), plus
the wake-cost ablation: under a rapidly bouncing load, aggressive
cycling with a long boot pays a visible wake-energy bill that
hysteresis avoids.
"""

import numpy as np
from conftest import record

from repro.control import ForecastOnOff, ServerFarm
from repro.fleet import VectorFleet, VectorServer
from repro.sim import Environment
from repro.workload import MessengerTraceGenerator

DAYS = 2
HORIZON = DAYS * 86_400.0
CAPACITY = 20_000.0


def build_farm(demand_fn, n, boot_s=120.0):
    env = Environment()
    fleet = VectorFleet(env, n)
    servers = [VectorServer(fleet, env, f"s{i}", capacity=CAPACITY,
                            boot_s=boot_s, wake_s=15.0) for i in range(n)]
    fleet.make_aggregate(servers, "rack")
    for server in servers:
        server.power_on()
    env.run(until=boot_s + 1.0)
    farm = ServerFarm(env, servers, demand_fn=demand_fn,
                      dispatch_period_s=60.0)
    env.process(farm.run())
    return env, farm


def messenger_demand():
    trace = MessengerTraceGenerator(seed=11).generate(HORIZON, 60.0)
    trace = trace.normalized(peak_connections=1_000_000.0,
                             peak_login_rate=1_400.0)

    def demand_fn(t):
        index = min(int(t // 60.0), len(trace.connections) - 1)
        return float(trace.connections[index])

    return demand_fn


def run_policy(policy: str):
    demand_fn = messenger_demand()
    fleet = int(np.ceil(1_000_000.0 / (CAPACITY * 0.75))) + 2
    env, farm = build_farm(demand_fn, fleet)
    if policy == "forecast":
        controller = ForecastOnOff(farm, period_s=300.0,
                                   target_utilization=0.75, spare=1,
                                   scale_down_after_s=1800.0)
        env.process(controller.run())
    env.run(until=HORIZON)
    return farm


def run_bouncy(scale_down_after_s: float):
    """A load bouncing every 5 min against a 5-min boot — the trap."""
    def demand(t):
        return 900_000.0 if (t // 300) % 2 == 0 else 200_000.0

    fleet = int(np.ceil(1_000_000.0 / (CAPACITY * 0.75))) + 2
    env, farm = build_farm(demand, fleet, boot_s=300.0)
    controller = ForecastOnOff(farm, period_s=120.0,
                               target_utilization=0.75, spare=1,
                               scale_down_after_s=scale_down_after_s,
                               to_sleep=False)
    env.process(controller.run())
    env.run(until=6 * 3600.0)
    return farm


def efficiency_j_per_work(farm) -> float:
    """Energy per unit of demand actually served."""
    offered = farm.balancer.offered_monitor.integral()
    shed = farm.shed_monitor.integral()
    served = max(offered - shed, 1e-9)
    return farm.energy_j() / served


def test_exp_onoff_saving(benchmark):
    static = run_policy("static")
    forecast = run_policy("forecast")

    saving = 1.0 - forecast.energy_j() / static.energy_j()
    shed = forecast.shed_monitor.integral() / max(
        forecast.balancer.offered_monitor.integral(), 1e-9)
    assert saving > 0.15
    assert shed < 0.001

    # The wake-cost ablation (§4.3's caveat): against a load that
    # bounces as fast as a machine can boot, aggressive cycling spends
    # its energy booting (at peak power) instead of serving — machines
    # arrive as demand departs.  It sheds a large share of demand and
    # is far *less* efficient per unit of work actually served.
    aggressive = run_bouncy(scale_down_after_s=0.0)
    patient = run_bouncy(scale_down_after_s=1800.0)
    assert aggressive.active_count_switches() \
        > 3 * patient.active_count_switches()
    shed_aggressive = aggressive.shed_monitor.integral() / max(
        aggressive.balancer.offered_monitor.integral(), 1e-9)
    shed_patient = patient.shed_monitor.integral() / max(
        patient.balancer.offered_monitor.integral(), 1e-9)
    assert shed_aggressive > 0.2
    assert shed_patient < 0.05
    assert efficiency_j_per_work(aggressive) \
        > 1.2 * efficiency_j_per_work(patient)

    rows = [f"{'policy':<22}{'energy kWh':>12}{'saving':>9}"
            f"{'shed':>8}",
            f"{'static peak':<22}{static.energy_j() / 3.6e6:>12.1f}"
            f"{0.0:>9.1%}{0.0:>8.2%}",
            f"{'forecast on/off':<22}"
            f"{forecast.energy_j() / 3.6e6:>12.1f}{saving:>9.1%}"
            f"{shed:>8.2%}",
            f"bouncy-load ablation: aggressive cycling sheds "
            f"{shed_aggressive:.0%} of demand and pays "
            f"{efficiency_j_per_work(aggressive) / efficiency_j_per_work(patient):.2f}x "
            f"the energy per served unit vs hysteresis "
            f"(shed {shed_patient:.1%})"]
    record(benchmark, "EXP-ONOFF: provisioning saves; wake cost can "
           "offset", rows, saving=float(saving))
    benchmark.pedantic(run_bouncy, args=(1800.0,), rounds=1,
                       iterations=1)
