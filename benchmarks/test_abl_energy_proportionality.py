"""ABL-EPROP: how much elasticity does non-proportional hardware cost?
(§4.1/§4.3, citing Barroso & Hölzle's "The case for energy-proportional
computing" [9].)

The paper's whole macro-management program rests on one hardware fact:
idle servers burn ~60 % of peak.  This ablation re-runs the same
diurnal day while sweeping the idle fraction (0.6 → 0.3 → 0.0) and
asks, at each point, what On/Off provisioning still buys:

* with 2008 hardware (idle = 60 %), On/Off saves a large fraction —
  software elasticity substitutes for the missing hardware
  proportionality;
* with ideal energy-proportional hardware, always-on and On/Off
  converge — the entire §4.3 machinery becomes unnecessary.

That crossover is the cleanest statement of why the paper was written
when it was.
"""

from conftest import record

from repro.control import ForecastOnOff, ServerFarm
from repro.fleet import VectorFleet, VectorServer
from repro.power import ServerPowerModel
from repro.sim import Environment
from repro.workload import DiurnalProfile

DAY = 86_400.0


def run_day(idle_fraction: float, provisioned: bool) -> float:
    env = Environment()
    model_args = dict(peak_w=300.0, idle_fraction=idle_fraction,
                      off_w=5.0)
    fleet = VectorFleet(env, 20)
    servers = [VectorServer(fleet, env, f"s{i}",
                            power_model=ServerPowerModel(**model_args),
                            capacity=100.0, boot_s=120.0, wake_s=15.0)
               for i in range(20)]
    fleet.make_aggregate(servers, "rack")
    for server in servers:
        server.power_on()
    env.run(until=121.0)
    profile = DiurnalProfile(day_night_ratio=2.0)
    demand_fn = lambda t: 1_200.0 * profile(t)
    farm = ServerFarm(env, servers, demand_fn=demand_fn,
                      dispatch_period_s=60.0)
    env.process(farm.run())
    if provisioned:
        controller = ForecastOnOff(farm, period_s=300.0,
                                   target_utilization=0.75, spare=1,
                                   scale_down_after_s=1_800.0)
        env.process(controller.run())
    env.run(until=DAY)
    return farm.energy_j() / 3.6e6


def test_abl_energy_proportionality(benchmark):
    idle_fractions = [0.6, 0.45, 0.3, 0.15, 0.0]
    table = {}
    for idle in idle_fractions:
        always_on = run_day(idle, provisioned=False)
        onoff = run_day(idle, provisioned=True)
        table[idle] = (always_on, onoff, 1.0 - onoff / always_on)

    # 2008 hardware: On/Off buys a lot.
    assert table[0.6][2] > 0.15
    # Ideal hardware: On/Off buys almost nothing.
    assert table[0.0][2] < 0.05
    # The saving declines monotonically with proportionality.
    savings = [table[i][2] for i in idle_fractions]
    assert savings == sorted(savings, reverse=True)
    # And proportional hardware alone beats software elasticity on
    # 2008 hardware: the hardware fix dominates the software fix.
    assert table[0.0][0] < table[0.6][1]

    rows = [f"{'idle frac':>10}{'always-on kWh':>15}{'on/off kWh':>12}"
            f"{'on/off saving':>15}"]
    for idle in idle_fractions:
        always_on, onoff, saving = table[idle]
        rows.append(f"{idle:>10.2f}{always_on:>15.1f}{onoff:>12.1f}"
                    f"{saving:>15.1%}")
    rows.append("software elasticity substitutes for missing hardware "
                "proportionality; at idle=0 it is redundant")
    record(benchmark, "ABL-EPROP: idle-fraction sweep", rows,
           saving_at_60pct=float(table[0.6][2]),
           saving_at_0pct=float(table[0.0][2]))
    benchmark.pedantic(run_day, args=(0.6, True), rounds=1,
                       iterations=1)
