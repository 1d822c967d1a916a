#!/usr/bin/env python3
"""Energy-aware provisioning for a connection-intensive service.

Reproduces the scenario behind the paper's Figure 3 and §4.3 (Chen et
al., NSDI'08): a Windows-Live-Messenger-like service whose user count
swings ~2x between the afternoon peak and the small hours.  We
synthesize a week of logins/connections, then compare three
provisioning policies on the same trace:

* static peak provisioning (every server always on),
* reactive On/Off (delay-triggered),
* forecast On/Off with hysteresis (Chen et al. style).

The interesting output is the trade-off row by row: both On/Off
policies eliminate most of the idle-floor energy (~60 % of peak per
powered-on server, §4.3), but the reactive one briefly sheds load at
every demand ramp because machines take minutes to boot, while the
forecast policy scales ahead of the ramp and sheds nothing.

Run:  python examples/messenger_provisioning.py
"""

import math

from repro.control import DelayBasedOnOff, ForecastOnOff, ServerFarm
from repro.fleet import VectorFleet, VectorServer
from repro.sim import Environment
from repro.workload import MessengerTraceGenerator

WEEK_S = 7 * 86_400.0
CONNECTIONS_PER_SERVER = 20_000.0  # Chen et al. report O(10^4)/server


def build_farm(demand_fn, n_servers, initially_on):
    env = Environment()
    fleet = VectorFleet(env, n_servers)
    servers = [VectorServer(fleet, env, f"msn-{i}",
                            capacity=CONNECTIONS_PER_SERVER,
                            boot_s=120.0, wake_s=15.0)
               for i in range(n_servers)]
    fleet.make_aggregate(servers, "rack")
    for server in servers[:initially_on]:
        server.power_on()
    env.run(until=121.0)
    farm = ServerFarm(env, servers, demand_fn=demand_fn,
                      dispatch_period_s=60.0)
    env.process(farm.run())
    return env, farm


def main() -> None:
    print("Synthesizing one week of Messenger-like load (Figure 3)...")
    trace = MessengerTraceGenerator(seed=7).generate(WEEK_S, step_s=60.0)
    trace = trace.normalized(peak_connections=1_000_000.0,
                             peak_login_rate=1_400.0)
    print(f"  peak connections: {trace.connections.max():,.0f}")
    print(f"  peak login rate:  {trace.login_rate.max():,.0f}/s")
    ratio = (trace.mean_over_hours(13, 16, weekdays_only=True)
             / trace.mean_over_hours(1, 4, weekdays_only=True))
    print(f"  afternoon/midnight connection ratio: {ratio:.2f} "
          f"(paper: ~2)\n")

    def demand_fn(t):
        index = min(int(t // 60.0), len(trace.connections) - 1)
        return float(trace.connections[index])

    fleet = math.ceil(trace.connections.max() / (CONNECTIONS_PER_SERVER
                                                 * 0.75)) + 2

    runs = {}
    # Static: everything on all week.
    env, farm = build_farm(demand_fn, fleet, initially_on=fleet)
    env.run(until=WEEK_S)
    runs["static peak"] = farm

    # Reactive delay-based On/Off.
    env, farm = build_farm(demand_fn, fleet, initially_on=fleet)
    # Thresholds in per-server M/M/1 delay units: add a machine above
    # ~90 % utilization (delay 5e-4 s), drop one below ~50 % (1.2e-4 s).
    controller = DelayBasedOnOff(farm, period_s=120.0,
                                 high_delay_s=5e-4, low_delay_s=1.2e-4)
    env.process(controller.run())
    env.run(until=WEEK_S)
    runs["reactive on/off"] = farm

    # Forecast-based with hysteresis.
    env, farm = build_farm(demand_fn, fleet, initially_on=fleet)
    controller = ForecastOnOff(farm, period_s=300.0,
                               target_utilization=0.75, spare=1,
                               scale_down_after_s=1800.0)
    env.process(controller.run())
    env.run(until=WEEK_S)
    runs["forecast on/off"] = farm

    base_energy = runs["static peak"].energy_j()
    print(f"{'policy':<18}{'energy kWh':>12}{'saving':>9}"
          f"{'avg servers':>13}{'switches':>10}{'shed %':>8}")
    for label, farm in runs.items():
        energy = farm.energy_j()
        shed = farm.shed_monitor.integral() / max(
            farm.balancer.offered_monitor.integral(), 1e-9)
        print(f"{label:<18}{energy / 3.6e6:>12.1f}"
              f"{1 - energy / base_energy:>9.1%}"
              f"{farm.active_monitor.time_weighted_mean():>13.1f}"
              f"{farm.active_count_switches():>10d}"
              f"{shed:>8.3%}")

    print("\nThe §4.3 takeaway: turning idle servers off eliminates the "
          "~60% idle floor\n(~25% of weekly energy here); forecasting "
          "keeps the saving without shedding\nload at the morning ramp, "
          "which the purely reactive policy cannot avoid.")


if __name__ == "__main__":
    main()
