"""PERF: throughput of the simulation substrate itself.

Not a paper artifact — engineering benchmarks that keep the library
honest about scale: the §5.3 data-volume story and the fleet-size
claims only hold if the kernel and the telemetry pipeline keep up.
"""

import numpy as np
from conftest import record

from repro.sim import Environment
from repro.telemetry import MultiScalePyramid


def kernel_events(n_processes=100, events_per_process=200):
    """Run n interleaved timers; returns events processed."""
    env = Environment()

    def ticker(env, period):
        for _ in range(events_per_process):
            yield env.timeout(period)

    for i in range(n_processes):
        env.process(ticker(env, 1.0 + i * 0.01))
    env.run()
    return n_processes * events_per_process


def telemetry_ingest(days=30):
    times = np.arange(0.0, days * 86_400.0, 15.0)
    values = np.random.default_rng(0).random(len(times))
    pyramid = MultiScalePyramid()
    pyramid.ingest_array(times, values)
    return len(times)


def test_perf_kernel_event_throughput(benchmark):
    events = benchmark(kernel_events)
    rate = events / benchmark.stats["mean"]
    record(benchmark, "PERF: kernel event throughput",
           [f"{events:,} events per run, {rate:,.0f} events/s"],
           events_per_second=rate)
    # Generous floor: a usable DES kernel does > 50k events/s.
    assert rate > 50_000


def test_perf_telemetry_ingest_rate(benchmark):
    samples = benchmark(telemetry_ingest)
    rate = samples / benchmark.stats["mean"]
    record(benchmark, "PERF: telemetry bulk ingest",
           [f"{samples:,} samples per run, {rate:,.0f} samples/s"],
           samples_per_second=rate)
    assert rate > 100_000


def test_scale_smoke_500_servers(benchmark):
    """A 500-server facility co-simulates a day in seconds."""
    from repro.datacenter import CoSimulation, DataCenterSpec

    def run():
        spec = DataCenterSpec(racks=25, servers_per_rack=20, zones=5,
                              cracs=2,
                              zone_conductance_w_per_k=20_000.0)
        demand = spec.total_servers * spec.server_capacity * 0.5
        sim = CoSimulation(spec, lambda t: demand, managed=True)
        return sim.run(86_400.0)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.thermal_alarms == 0
    assert result.sla.served_fraction > 0.99
    record(benchmark, "PERF: 500-server day",
           [f"facility energy {result.facility_kwh:.0f} kWh, "
            f"PUE {result.energy_weighted_pue:.2f}, "
            f"wall time {benchmark.stats['mean']:.1f} s"])


def test_scale_smoke_2000_servers(benchmark):
    """The vector plant co-simulates a 2000-server day in seconds.

    The structure-of-arrays fleet turns the farm tick and
    ``sync_physical`` into a handful of numpy passes (each kernel
    pinned against plain-``Server`` twins in
    tests/test_vector_fleet.py).  Budget: 4 s, a third of the 12 s
    a plain ``Server`` per machine took.
    """
    from repro.datacenter import CoSimulation, DataCenterSpec

    def run():
        spec = DataCenterSpec(racks=100, servers_per_rack=20, zones=10,
                              cracs=4,
                              zone_conductance_w_per_k=80_000.0)
        demand = spec.total_servers * spec.server_capacity * 0.5
        sim = CoSimulation(spec, lambda t: demand, managed=True)
        return sim.run(86_400.0)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.thermal_alarms == 0
    assert result.sla.served_fraction > 0.99
    assert benchmark.stats["mean"] < 4.0
    record(benchmark, "PERF: 2000-server day",
           [f"facility energy {result.facility_kwh:.0f} kWh, "
            f"PUE {result.energy_weighted_pue:.2f}, "
            f"wall time {benchmark.stats['mean']:.1f} s"])


def test_scale_smoke_20000_servers(benchmark):
    """A 20,000-server managed day stays under a minute (vector only).

    Ten times the previous scale ceiling: 1000 racks, 20 zones, 8
    CRACs.  Only feasible on the structure-of-arrays plant — a plain
    ``Server`` per machine takes minutes at this size.
    """
    from repro.datacenter import CoSimulation
    from repro.perf.bench import bench_spec

    def run():
        spec = bench_spec(20_000)
        demand = spec.total_servers * spec.server_capacity * 0.5
        sim = CoSimulation(spec, lambda t: demand, managed=True)
        return sim.run(86_400.0)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.thermal_alarms == 0
    assert result.sla.served_fraction > 0.99
    assert benchmark.stats["mean"] < 60.0
    record(benchmark, "PERF: 20000-server day",
           [f"facility energy {result.facility_kwh:.0f} kWh, "
            f"PUE {result.energy_weighted_pue:.2f}, "
            f"wall time {benchmark.stats['mean']:.1f} s"])


class _NoisyDiurnal:
    """The diurnal profile at an 85 % peak times seeded ±5 % noise,
    one uniform draw per 5-minute step: the paper's day-night swing
    with the jitter that keeps every dispatch changing every load."""

    def __init__(self, capacity: float, seed: int = 0):
        from repro.workload import DiurnalProfile

        self.profile = DiurnalProfile()
        self.scale = 0.85 * capacity
        steps = 86_400 // 300 + 13          # the day plus boot time
        rng = np.random.default_rng(seed)
        self.factor = (1.0 + rng.uniform(-0.05, 0.05, steps)).tolist()

    def __call__(self, t_s: float) -> float:
        return (self.scale * self.profile(t_s)
                * self.factor[int(t_s // 300)])


def test_scale_smoke_20000_servers_diurnal(benchmark):
    """A 20,000-server managed day under noisy diurnal demand.

    Flat demand hides the elastic cost: at a steady level every
    dispatch is a memo hit and no server changes state.  Under the
    diurnal swing every dispatch changes every active load and the
    controllers sleep and wake servers a couple of hundred times a
    day, so this row times the fleet's transition kernel and its
    contiguous-run dispatch folds.  A flat day on the same facility is
    timed alongside, and their ratio is logged.
    """
    import time

    from repro.datacenter import CoSimulation
    from repro.perf.bench import bench_spec

    spec = bench_spec(20_000)
    capacity = spec.total_servers * spec.server_capacity

    def day(demand):
        sim = CoSimulation(spec, demand, managed=True)
        return sim, sim.run(86_400.0)

    sim, result = benchmark.pedantic(
        day, args=(_NoisyDiurnal(capacity),), rounds=1, iterations=1)
    start = time.perf_counter()
    day(lambda t: capacity * 0.5)
    flat_s = time.perf_counter() - start
    diurnal_s = benchmark.stats["mean"]
    switches = sim.farm.active_count_switches()
    assert result.thermal_alarms == 0
    assert result.sla.served_fraction > 0.99
    assert switches > 100
    record(benchmark, "PERF: 20000-server diurnal day",
           [f"facility energy {result.facility_kwh:.0f} kWh, "
            f"{switches} fleet-size changes, wall time {diurnal_s:.1f} s "
            f"= {diurnal_s / flat_s:.1f}x the flat day's {flat_s:.1f} s"],
           diurnal_over_flat=diurnal_s / flat_s, fleet_switches=switches)


#: sha256 of the served day's ``result_fingerprint`` (25 racks, the
#: bench's 200k-session script, seed 0).
SERVED_DAY_SHA256 = (
    "2f13dff98222eaa9a87e2cd653382aabcd2006c4b925d8b6af3067f0d94c1565")


def test_perf_served_session_day(benchmark):
    """The served daemon's day, in process: 500 servers.

    ``SimSession`` is what the NDJSON daemon steps.  This row feeds it
    the ``served-flash-crowd`` bench workload's 200k-session script
    and steps one tick at a time, reading every telemetry stream after
    each tick — the daemon's work without the socket.  Its tail is the
    5-minute macro tick: On/Off, the coordinator and the capper.
    """
    import hashlib

    from repro.serve.loadgen import session_script
    from repro.serve.protocol import result_fingerprint
    from repro.serve.session import ServeScenario, SimSession

    scenario = ServeScenario(racks=25, seed=0)
    script, ticks = session_script(scenario, 200_000, days=1.0, seed=0)

    def day():
        session = SimSession(scenario)
        for mutation in script:
            session.submit(mutation)
        for _ in range(ticks):
            session.advance(1)
            session.telemetry()
        return session.result()

    result = benchmark.pedantic(day, rounds=1, iterations=1)
    digest = hashlib.sha256(
        result_fingerprint(result).encode()).hexdigest()
    assert digest == SERVED_DAY_SHA256
    assert result.sla.served_fraction > 0.9
    record(benchmark, "PERF: served session day",
           [f"served {result.sla.served_fraction:.2%} over {ticks} "
            f"ticks, wall time {benchmark.stats['mean']:.1f} s"])


def test_scale_smoke_100000_servers(benchmark):
    """A 100,000-server managed day on the zone-sharded plant.

    Five times the 20k ceiling: 5000 racks, 100 zones, 40 CRACs, cut
    into 4 zone-shards co-simulated in macro-period lockstep
    (``datacenter.sharded``).  Worker processes divide the wall time
    on multi-core runners; the result is bit-identical to the
    in-process reference either way (tests/test_sharded_plant.py).
    """
    from repro.datacenter import ShardedCoSimulation
    from repro.perf.bench import bench_spec

    def run():
        spec = bench_spec(100_000)
        sim = ShardedCoSimulation(
            spec, {"kind": "constant", "fraction": 0.5},
            shards=4, workers=4)
        return sim.run(86_400.0)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.thermal_alarms == 0
    assert result.sla.served_fraction > 0.99
    assert benchmark.stats["mean"] < 300.0
    record(benchmark, "PERF: 100000-server day",
           [f"facility energy {result.facility_kwh:.0f} kWh, "
            f"PUE {result.energy_weighted_pue:.2f}, "
            f"wall time {benchmark.stats['mean']:.1f} s"])


def test_scale_smoke_1000000_servers(benchmark):
    """A million-server managed day over supervised shard workers.

    Fifty thousand racks, 1000 zones, 400 CRACs, cut into 16
    zone-shards over 4 pipe worker processes
    (``repro.datacenter.workers``).  Roughly 10x the 100k
    row's wall time, so it only runs when ``REPRO_BIG_BENCH=1`` (the
    nightly job sets it; the default suite stays fast).
    """
    import os

    import pytest

    if not os.environ.get("REPRO_BIG_BENCH"):
        pytest.skip("set REPRO_BIG_BENCH=1 for the 1M-server day")

    from repro.datacenter import ShardedCoSimulation
    from repro.perf.bench import bench_spec

    def run():
        spec = bench_spec(1_000_000)
        sim = ShardedCoSimulation(
            spec, {"kind": "constant", "fraction": 0.5},
            shards=16, workers=4)
        return sim.run(86_400.0)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.thermal_alarms == 0
    assert result.sla.served_fraction > 0.99
    assert benchmark.stats["mean"] < 1800.0
    record(benchmark, "PERF: 1000000-server day",
           [f"facility energy {result.facility_kwh:.0f} kWh, "
            f"PUE {result.energy_weighted_pue:.2f}, "
            f"wall time {benchmark.stats['mean']:.1f} s"])


def test_perf_federated_day(benchmark):
    """A 5-site federated day (quiet geography) in seconds.

    The canonical EXP-FED scenario without its outage: five vector
    plants advancing in macro-period lockstep under the global
    router, in-process.  This is the federation layer's throughput
    floor — worker processes only change wall time, never results
    (tests/test_federation.py), so the in-process run is the one
    worth gating.
    """
    from repro.perf.bench import run_federation_bench

    metrics = benchmark.pedantic(
        lambda: run_federation_bench(days=1.0, outage=False),
        rounds=1, iterations=1)
    assert metrics["served_fraction"] > 0.999
    assert metrics["router_shed_unit_s"] == 0.0
    assert benchmark.stats["mean"] < 30.0
    record(benchmark, "PERF: 5-site federated day",
           [f"served {metrics['served_fraction']:.2%}, "
            f"{metrics['failovers']} failovers, "
            f"wall time {benchmark.stats['mean']:.1f} s"])


def test_perf_20k_consolidation_pass(benchmark):
    """One Γ-robust consolidation pass over a 20,000-host fleet.

    30,000 uncertain-interval VMs first-fit-decreasing packed under
    the Γ=2 robustness constraint.  The block-scanned vectorized
    feasibility is what keeps this interactive — a per-host python
    loop would take minutes.
    """
    from repro.placement import GammaRobustPacker, UncertainDemand

    def run():
        rng = np.random.default_rng(42)
        n_vms = 30_000
        demand = UncertainDemand(rng.uniform(0.05, 0.45, n_vms),
                                 rng.uniform(0.0, 0.15, n_vms))
        packer = GammaRobustPacker(np.ones(20_000), gamma=2)
        return packer.pack(demand)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert not result.unplaced
    assert result.hosts_used < 10_000  # really consolidates
    assert benchmark.stats["mean"] < 30.0
    record(benchmark, "PERF: 20k-server consolidation pass",
           [f"{len(result.demand):,} VMs onto {result.n_hosts:,} "
            f"hosts, {result.hosts_used:,} used, wall time "
            f"{benchmark.stats['mean']:.1f} s"],
           hosts_used=int(result.hosts_used))
