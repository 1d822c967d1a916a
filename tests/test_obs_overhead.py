"""The flight recorder's zero-observer-effect and overhead budgets.

Two guarantees keep the recorder shippable:

* attaching it — enabled or not — must not change a single simulation
  result (it draws no RNG, schedules no events, never touches sim
  time), so every committed experiment table stays byte-identical;
* traced-on must cost less than 10 % wall time on a 500-server
  managed day, so leaving it on in CI is viable.
"""

import time

from repro.controlplane import ControlPlaneProfile
from repro.datacenter import CoSimulation, DataCenterSpec
from repro.obs import Tracer
from repro.perf.bench import bench_spec
from repro.sim import RandomStreams
from repro.workload import DiurnalProfile

DAY = 86_400.0


def run_small_day(tracer, control_plane=None, hours=6.0):
    """A 40-server diurnal morning with a tight budget."""
    spec = DataCenterSpec(racks=4, servers_per_rack=10, zones=2,
                          cracs=2)
    peak = spec.total_servers * spec.server_capacity * 0.7
    diurnal = DiurnalProfile()
    sim = CoSimulation(spec, lambda t: peak * diurnal(t),
                       control_plane=control_plane,
                       power_budget_w=9_000.0,
                       streams=RandomStreams(7),
                       tracer=tracer)
    return sim.run(hours * 3_600.0)


def run_bench_day(tracer):
    spec = bench_spec(500)
    demand = spec.total_servers * spec.server_capacity * 0.5
    t0 = time.perf_counter()
    sim = CoSimulation(spec, lambda t: demand, tracer=tracer)
    result = sim.run(DAY)
    return result, time.perf_counter() - t0


def test_traced_off_managed_day_is_bit_identical():
    """``tracer=None`` (the default) is the uninstrumented run."""
    assert run_small_day(None) == run_small_day(tracer=None)


def test_traced_on_managed_day_is_bit_identical():
    """Attaching a live tracer changes no simulation output."""
    bare = run_small_day(None)
    traced = run_small_day(Tracer())
    assert traced == bare


def test_traced_on_is_bit_identical_with_impaired_control_plane():
    """Tracing must not perturb the RNG-drawing impaired plane either:
    the audit trail and command stamping observe, never consume."""
    profile = ControlPlaneProfile.hardened()
    bare = run_small_day(None, control_plane=profile)
    tracer = Tracer()
    traced = run_small_day(tracer, control_plane=profile)
    assert traced == bare
    # And the recorder actually recorded the day it watched.
    assert tracer.counters["kernel.timeout_fast"] > 0
    assert tracer.find_spans("macro.decide")


def test_traced_on_overhead_under_10_percent_on_500_server_day():
    """Recorder on: < 10 % wall-time overhead at fleet scale.

    Untraced and traced days alternate in one process and the minima
    of each side are compared: a host slowing down or speeding up
    mid-test then touches both sides alike, where back-to-back blocks
    of one variant measure the host's phase.  The small absolute
    epsilon keeps a sub-second baseline from flaking the ratio.
    """
    run_bench_day(None)  # warm imports and numpy kernels
    bare, traced = [], []
    for _ in range(3):
        bare.append(run_bench_day(None))
        traced.append(run_bench_day(Tracer()))
    bare_result, bare_s = min(bare, key=lambda r: r[1])
    traced_result, traced_s = min(traced, key=lambda r: r[1])
    assert traced_result == bare_result
    assert traced_s <= bare_s * 1.10 + 0.05, (
        f"traced {traced_s:.3f}s vs untraced {bare_s:.3f}s "
        f"(+{(traced_s / bare_s - 1):.1%})")
