"""ABL-HORIZON: provisioning lead time vs boot latency (DESIGN.md §6).

The §4.3 trade-off as a dial: the On/Off controller provisions against
``demand(t + horizon)``.  Smooth diurnal ramps never outpace a 5-min
boot (any horizon works — that is itself a finding this ablation
reports), so the sweep uses the workload where lead time actually
bites: sharp demand steps (service launches, failover, flash onset).
Too little lead and machines boot *after* the step needs them (shed
demand); lead beyond boot + control period sheds nothing, and generous
lead costs almost nothing in energy.
"""

from conftest import record

from repro.control import ForecastOnOff, ServerFarm
from repro.fleet import VectorFleet, VectorServer
from repro.sim import Environment

DAY = 86_400.0
BOOT_S = 300.0


def run_with_horizon(horizon_s: float):
    env = Environment()
    fleet = VectorFleet(env, 30)
    servers = [VectorServer(fleet, env, f"s{i}", capacity=100.0,
                            boot_s=BOOT_S, wake_s=15.0) for i in range(30)]
    fleet.make_aggregate(servers, "rack")
    for server in servers:
        server.power_on()
    env.run(until=BOOT_S + 1.0)

    def demand_fn(t):
        # Sharp steps between 800 and 2000 every 4 hours.
        return 2_000.0 if (t // 14_400.0) % 2 == 1 else 800.0
    farm = ServerFarm(env, servers, demand_fn=demand_fn,
                      dispatch_period_s=60.0)
    env.process(farm.run())
    controller = ForecastOnOff(
        farm, period_s=120.0, target_utilization=0.8, spare=0,
        scale_down_after_s=900.0,
        forecast_fn=lambda t: demand_fn(t + horizon_s))
    env.process(controller.run())
    env.run(until=DAY)
    shed = farm.shed_monitor.integral() / max(
        farm.balancer.offered_monitor.integral(), 1e-9)
    return farm.energy_j() / 3.6e6, shed


def test_abl_forecast_horizon(benchmark):
    horizons = [0.0, 120.0, 300.0, 600.0, 1_800.0, 3_600.0]
    results = {h: run_with_horizon(h) for h in horizons}

    sheds = {h: shed for h, (_, shed) in results.items()}
    energies = {h: kwh for h, (kwh, _) in results.items()}

    # Under-provisioned lead (below boot latency) sheds real demand;
    # lead beyond the boot latency (plus the control period) does not.
    assert sheds[0.0] > 0.0025
    assert sheds[0.0] > 5 * max(sheds[600.0], 1e-6)
    assert sheds[600.0] < 0.002
    assert sheds[3_600.0] < 0.002
    # The price of lead is energy, paid twice per step: capacity boots
    # `horizon` early and (because scale-down follows *current*
    # demand) lingers through the down-step.  Modest lead is nearly
    # free; an hour of lead shows a visible standby bill.
    assert energies[600.0] < 1.05 * energies[0.0]
    assert energies[3_600.0] > energies[600.0]

    rows = [f"{'horizon s':>10}{'energy kWh':>12}{'shed %':>9}"]
    for h in horizons:
        rows.append(f"{h:>10.0f}{energies[h]:>12.1f}"
                    f"{sheds[h]:>9.3%}")
    rows.append(f"boot latency: {BOOT_S:.0f} s — shed collapses once "
                f"the horizon covers boot + one control period; "
                f"energy grows slowly with lead")
    record(benchmark, "ABL-HORIZON: forecast lead vs boot latency",
           rows, shed_at_zero=float(sheds[0.0]),
           shed_at_600=float(sheds[600.0]))
    benchmark.pedantic(run_with_horizon, args=(600.0,), rounds=1,
                       iterations=1)
