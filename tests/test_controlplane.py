"""Tests for ``repro.controlplane``: buses, watchdog, reconciliation.

The load-bearing guarantee is the first section: a *perfect* control
plane wired into the co-simulation must be bit-identical to no control
plane at all — same decisions, same monitors, same energies.  The
rest covers the impaired behaviours: estimator staleness semantics,
dropout/noise/partition, retry-with-backoff convergence, idempotent
re-delivery, watchdog debouncing, and the reconciliation self-heal.
"""

import dataclasses
import math

import pytest

from repro.cluster.server import Server, ServerState, quanta
from repro.control.farm import ServerFarm
from repro.controlplane import (
    ActuationBus,
    ActuationProfile,
    CommandKind,
    ControlPlane,
    ControlPlaneProfile,
    StateEstimator,
    TelemetryBus,
    TelemetryProfile,
    Watchdog,
    WatchdogProfile,
    apply_command,
    settled_state,
)
from repro.core.faults import FaultKind, FaultSchedule, Incident
from repro.datacenter.cosim import CoSimulation
from repro.datacenter.spec import DataCenterSpec
from repro.fleet import VectorFleet, VectorServer
from repro.serve.protocol import result_fingerprint
from repro.sim import Environment, RandomStreams


# ----------------------------------------------------------------------
# Profiles
# ----------------------------------------------------------------------
def test_profile_validation():
    with pytest.raises(ValueError):
        TelemetryProfile(dropout_probability=1.0)
    with pytest.raises(ValueError):
        TelemetryProfile(staleness_s=-1.0)
    with pytest.raises(ValueError):
        ActuationProfile(loss_probability=-0.1)
    with pytest.raises(ValueError):
        ActuationProfile(latency_s=20.0, ack_timeout_s=30.0,
                         loss_probability=0.1)
    with pytest.raises(ValueError):
        WatchdogProfile(miss_threshold=0)
    with pytest.raises(ValueError):
        ControlPlaneProfile(reconcile_period_s=-1.0)


def test_default_profiles_are_perfect():
    assert TelemetryProfile().perfect
    assert ActuationProfile().perfect
    assert ControlPlaneProfile().perfect
    assert not ControlPlaneProfile.naive().perfect
    assert not ControlPlaneProfile.hardened().perfect
    # Optimism alone breaks perfection: believed state stops tracking.
    assert not ControlPlaneProfile(optimistic=True).perfect


# ----------------------------------------------------------------------
# StateEstimator
# ----------------------------------------------------------------------
def test_estimator_last_known_good_and_age():
    env = Environment()
    est = StateEstimator(env)
    missing = est.read("power")
    assert missing.missing and math.isinf(missing.age_s)
    est.observe("power", 100.0)
    env.run(until=50.0)
    reading = est.read("power")
    assert reading.value == 100.0
    assert reading.age_s == pytest.approx(50.0)
    assert reading.stale(30.0) and not reading.stale(60.0)
    assert est.age_s("power") == pytest.approx(50.0)


def test_estimator_delayed_read_and_fallback():
    env = Environment()
    est = StateEstimator(env)
    est.observe("t", 1.0, time_s=0.0)
    env.run(until=100.0)
    est.observe("t", 2.0)
    # A 60 s-delayed read must not see the fresh sample.
    assert est.read("t", delay_s=60.0).value == 1.0
    assert est.read("t").value == 2.0
    # Everything newer than the horizon: fall back to oldest retained.
    env2 = Environment()
    est2 = StateEstimator(env2)
    est2.observe("t", 7.0)
    assert est2.read("t", delay_s=60.0).value == 7.0


def test_estimator_prunes_history_but_keeps_newest():
    env = Environment()
    est = StateEstimator(env, history_s=100.0)
    for t in range(0, 1000, 10):
        est.observe("x", float(t), time_s=float(t))
    hist = est._hist["x"]
    assert len(hist) <= 12
    assert hist[-1] == (990.0, 990.0)
    with pytest.raises(ValueError):
        est.observe("x", 0.0, time_s=10.0)  # precedes newest


# ----------------------------------------------------------------------
# TelemetryBus
# ----------------------------------------------------------------------
def test_perfect_bus_passes_through_bit_for_bit():
    env = Environment()
    bus = TelemetryBus(env)
    value = 123.456789
    assert bus.observe("p", value) is value
    assert bus.read("p").value == value
    assert bus.samples_dropped == 0
    assert bus._rng is None  # no RNG even constructed


def test_dropout_and_noise_are_seeded():
    def run():
        env = Environment()
        bus = TelemetryBus(
            env, TelemetryProfile(dropout_probability=0.3,
                                  noise_fraction=0.05),
            streams=RandomStreams(42))
        delivered = [bus.sense("w", float(i)) for i in range(200)]
        return delivered, bus.read("w").value, bus.samples_dropped

    a, b = run(), run()
    assert a == b
    assert 0 < a[2] < 200
    # Non-float payloads cross un-noised.
    env = Environment()
    bus = TelemetryBus(env, TelemetryProfile(noise_fraction=0.5),
                       streams=RandomStreams(1))
    bus.sense("state", ServerState.ACTIVE)
    assert bus.read("state").value is ServerState.ACTIVE


def test_partition_by_rack_blacks_out_tagged_channels():
    env = Environment()
    # Partitions only matter on an impaired bus (a perfect one
    # short-circuits), so give it a vanishingly small dropout.
    bus = TelemetryBus(env, TelemetryProfile(dropout_probability=1e-12),
                       streams=RandomStreams(3))
    bus.partition(["rack0"])
    assert not bus.sense("p0", 1.0, rack="rack0")
    assert bus.sense("p1", 1.0, rack="rack1")
    assert bus.partition_drops == 1
    bus.heal()
    assert bus.sense("p0", 2.0, rack="rack0")
    assert bus.read("p0").value == 2.0


def test_staleness_delays_reads():
    env = Environment()
    bus = TelemetryBus(env, TelemetryProfile(staleness_s=60.0),
                       streams=RandomStreams(0))
    bus.sense("d", 10.0)
    env.run(until=30.0)
    bus.sense("d", 20.0)
    env.run(until=45.0)
    # Newest sample at least 60 s old... nothing qualifies yet, so the
    # oldest retained sample answers.
    assert bus.read("d").value == 10.0
    env.run(until=95.0)
    assert bus.read("d").value == 20.0  # 65 s old now


# ----------------------------------------------------------------------
# Idempotent command application
# ----------------------------------------------------------------------
def test_apply_command_is_idempotent():
    env = Environment()
    server = Server(env, "s0", initial_state=ServerState.SLEEPING)
    outcome, state = apply_command(server, CommandKind.WAKE)
    assert outcome == "applied" and state is ServerState.ACTIVE
    # Duplicate delivery while WAKING: a harmless no-op.
    outcome, state = apply_command(server, CommandKind.WAKE)
    assert outcome == "noop" and state is ServerState.ACTIVE
    env.run(until=server.wake_s + 1.0)
    assert server.state is ServerState.ACTIVE
    outcome, _ = apply_command(server, CommandKind.SLEEP)
    assert outcome == "applied" and server.state is ServerState.SLEEPING
    outcome, _ = apply_command(server, CommandKind.SLEEP)
    assert outcome == "noop"
    server.wake()
    # Mid-wake shutdown is "busy" — ask again once settled.
    outcome, _ = apply_command(server, CommandKind.SHUT_DOWN)
    assert outcome == "busy"
    server.fail()
    outcome, _ = apply_command(server, CommandKind.WAKE)
    assert outcome == "unreachable"
    assert settled_state(ServerState.BOOTING) is ServerState.ACTIVE
    assert settled_state(ServerState.OFF) is ServerState.OFF


# ----------------------------------------------------------------------
# ActuationBus
# ----------------------------------------------------------------------
def _bus(env, servers, **profile_kwargs):
    profile = ActuationProfile(**profile_kwargs)
    return ActuationBus(env, servers, profile,
                        streams=RandomStreams(11))


def test_perfect_bus_is_synchronous_and_recordless():
    env = Environment()
    server = Server(env, "s0", initial_state=ServerState.SLEEPING)
    bus = ActuationBus(env, [server])
    bus.submit(server, CommandKind.WAKE)
    assert server.state is ServerState.WAKING  # applied immediately
    assert bus.records == []  # no audit overhead on the perfect path
    assert bus.believed_state(server) is ServerState.ACTIVE


def test_impaired_bus_delivers_after_latency_and_acks():
    env = Environment()
    server = Server(env, "s0", initial_state=ServerState.SLEEPING)
    bus = _bus(env, [server], latency_s=2.0)
    record = bus.submit(server, CommandKind.WAKE)
    assert server.state is ServerState.SLEEPING  # not yet delivered
    assert bus.believed_state(server) is ServerState.ACTIVE  # intent
    env.run(until=1.0)
    assert server.state is ServerState.SLEEPING
    env.run(until=2.5)
    assert server.state is ServerState.WAKING
    env.run(until=60.0)
    assert record.acked and record.result == "applied"
    assert record.attempts == 1
    assert bus.believed_state(server) is ServerState.ACTIVE


def test_duplicate_submit_dedupes_on_idempotency_key():
    env = Environment()
    server = Server(env, "s0", initial_state=ServerState.SLEEPING)
    bus = _bus(env, [server], latency_s=5.0)
    first = bus.submit(server, CommandKind.WAKE)
    second = bus.submit(server, CommandKind.WAKE)
    assert first is second
    assert len(bus.records) == 1


def test_newer_command_supersedes_open_one():
    env = Environment()
    server = Server(env, "s0", initial_state=ServerState.SLEEPING)
    bus = _bus(env, [server], latency_s=5.0)
    wake = bus.submit(server, CommandKind.WAKE)
    sleep = bus.submit(server, CommandKind.SLEEP)
    assert wake is not sleep
    env.run(until=120.0)
    assert wake.result == "superseded" and not wake.acked
    # The SLEEP found the server already asleep (wake never executed).
    assert sleep.result in ("applied", "noop")
    assert bus.believed_state(server) is ServerState.SLEEPING


def test_retry_with_backoff_converges_under_loss():
    random_streams = RandomStreams(1)
    env = Environment()
    server = Server(env, "s0", initial_state=ServerState.SLEEPING)
    profile = ActuationProfile(loss_probability=0.6, latency_s=1.0,
                               ack_timeout_s=10.0, max_retries=6,
                               backoff_base_s=2.0)
    bus = ActuationBus(env, [server], profile, streams=random_streams)
    record = bus.submit(server, CommandKind.WAKE)
    env.run(until=600.0)
    assert record.acked
    assert record.attempts > 1  # seed 1 loses at least one attempt
    assert record.lost_deliveries == record.attempts - 1
    assert server.state is ServerState.ACTIVE


def test_fire_and_forget_gives_up_and_optimism_lies():
    env = Environment()
    server = Server(env, "s0", initial_state=ServerState.SLEEPING)
    profile = ActuationProfile(loss_probability=0.95, latency_s=1.0,
                               max_retries=0)
    bus = ActuationBus(env, [server], profile,
                       streams=RandomStreams(2), optimistic=True)
    record = bus.submit(server, CommandKind.WAKE)
    env.run(until=300.0)
    assert record.gave_up and not record.acked
    assert server.state is ServerState.SLEEPING  # truth
    assert bus.believed_state(server) is ServerState.ACTIVE  # the lie


def test_unreachable_server_fails_fast():
    env = Environment()
    server = Server(env, "s0", initial_state=ServerState.SLEEPING)
    server.fail()
    bus = _bus(env, [server], latency_s=1.0, max_retries=3)
    record = bus.submit(server, CommandKind.WAKE)
    env.run(until=300.0)
    assert record.gave_up and record.result == "unreachable"
    assert record.attempts == 1


def test_probe_ordering_rejects_stale_probes():
    env = Environment()
    server = Server(env, "s0", initial_state=ServerState.SLEEPING)
    bus = _bus(env, [server], latency_s=1.0)
    record = bus.submit(server, CommandKind.WAKE)
    env.run(until=60.0)
    assert record.acked
    # A probe measured before the ack must not roll believed state back.
    assert not bus.accept_probe("s0", ServerState.SLEEPING,
                                measured_s=record.acked_s - 5.0)
    assert bus.believed_state(server) is ServerState.ACTIVE
    assert bus.accept_probe("s0", ServerState.OFF,
                            measured_s=env.now)
    assert bus.believed_state(server) is ServerState.OFF


# ----------------------------------------------------------------------
# Watchdog
# ----------------------------------------------------------------------
def test_watchdog_suspects_silent_server_and_clears_on_return():
    env = Environment()
    telemetry = TelemetryBus(env, TelemetryProfile(dropout_probability=1e-9),
                             streams=RandomStreams(0))
    wd = Watchdog(env, telemetry, WatchdogProfile(check_period_s=60.0,
                                                  miss_threshold=3,
                                                  heartbeat_timeout_s=90.0))
    wd.monitor(["s0"])
    wd.beat("s0")
    wd.check()
    assert not wd.suspected
    # Silence: three consecutive missed checks are needed.
    env.run(until=150.0)
    wd.check()
    assert not wd.suspected
    env.run(until=210.0)
    wd.check()
    env.run(until=270.0)
    wd.check()
    assert "s0" in wd.suspected
    # Heartbeat returns: suspicion clears.
    wd.beat("s0")
    wd.check()
    assert not wd.suspected and wd.clears == 1
    assert wd.false_positives == 0


def test_watchdog_false_positives_with_naive_threshold():
    env = Environment()
    telemetry = TelemetryBus(env, TelemetryProfile(dropout_probability=1e-9),
                             streams=RandomStreams(0))
    wd = Watchdog(env, telemetry,
                  WatchdogProfile(miss_threshold=1,
                                  false_miss_probability=0.5),
                  streams=RandomStreams(9))
    wd.monitor(["s0", "s1"])
    for _ in range(20):
        wd.beat("s0")
        wd.beat("s1")
        wd.check()
    assert wd.false_positives > 0
    assert wd.false_positives == wd.suspicions


def test_watchdog_exempts_expected_down_servers():
    env = Environment()
    telemetry = TelemetryBus(env, TelemetryProfile(dropout_probability=1e-9),
                             streams=RandomStreams(0))
    wd = Watchdog(env, telemetry, WatchdogProfile(miss_threshold=1))
    wd.monitor(["s0"])
    wd.expected_down = lambda name: True  # commanded asleep
    wd.check()
    wd.check()
    assert not wd.suspected


# ----------------------------------------------------------------------
# Reconciliation
# ----------------------------------------------------------------------
def racked_sleepers(env, n):
    """``n`` SLEEPING vector servers in one rack: a farm's pool."""
    fleet = VectorFleet(env, n)
    servers = [VectorServer(fleet, env, f"dc-r0-s{i}",
                            initial_state=ServerState.SLEEPING)
               for i in range(n)]
    fleet.make_aggregate(servers, "rack")
    return servers


def test_reconciler_reissues_divergent_command():
    env = Environment()
    servers = racked_sleepers(env, 3)
    farm = ServerFarm(env, servers, demand_fn=lambda t: 0.0)
    profile = ControlPlaneProfile(
        actuation=ActuationProfile(latency_s=1.0, max_retries=0,
                                   loss_probability=1e-9),
        reconcile_period_s=60.0)
    plane = ControlPlane(env, servers, profile,
                         streams=RandomStreams(4))
    plane.attach(farm=farm)

    # Command a wake against a FAILED machine: unreachable, gave up.
    servers[0].fail()
    plane.actuation.submit(servers[0], CommandKind.WAKE)
    env.run(until=30.0)
    assert plane.actuation.gave_up_commands()
    assert plane.divergence() == 1

    # The machine comes back asleep; telemetry publishes its state;
    # the next reconcile pass diffs intent vs truth and re-issues.
    servers[0].repair()
    servers[0].power_on()
    env.run(until=env.now + servers[0].boot_s + 10.0)
    assert servers[0].state is ServerState.ACTIVE
    servers[0].sleep()
    plane.telemetry.sense("state.dc-r0-s0", servers[0].state)
    reissued = plane.reconcile()
    assert reissued == 1
    assert plane.actuation.reissues == 1
    env.run(until=env.now + 120.0)
    assert servers[0].state is ServerState.ACTIVE
    assert plane.divergence() == 0


def test_reconcile_calls_fleet_verify():
    env = Environment()
    servers = racked_sleepers(env, 3)
    farm = ServerFarm(env, servers, demand_fn=lambda t: 0.0)
    plane = ControlPlane(
        env, servers,
        ControlPlaneProfile(
            actuation=ActuationProfile(latency_s=1.0,
                                       loss_probability=1e-9)),
        streams=RandomStreams(4))
    plane.attach(farm=farm)
    # Corrupt the cached aggregate; reconcile must self-heal it.
    farm.fleet._q += quanta(123.0)
    plane.reconcile()
    assert plane.aggregate_power_drift_w == pytest.approx(123.0)
    fresh = sum(s._power_w for s in servers)
    assert farm.fleet.power_w == pytest.approx(fresh)


# ----------------------------------------------------------------------
# Batch picks on an impaired plane vs the one-at-a-time loop
# ----------------------------------------------------------------------
def _mediated_farm():
    """A hardened plane over 12 servers in three zones: ACTIVE,
    SLEEPING and OFF rows, plus two open commands that make believed
    state differ from the plant (a SLEEP and a WAKE in flight)."""
    env = Environment()
    fleet = VectorFleet(env, 12)
    servers = [VectorServer(fleet, env, f"dc-r{i // 6}-s{i}",
                            zone=f"z{i % 3}") for i in range(12)]
    fleet.make_aggregate(servers[:6], "rack")
    fleet.make_aggregate(servers[6:], "rack")
    farm = ServerFarm(env, servers, demand_fn=lambda t: 0.0)
    for server in servers[:8]:
        server.power_on()
    env.run(until=130.0)
    for server in servers[2:5]:
        server.sleep()
    plane = ControlPlane(env, servers, ControlPlaneProfile.hardened(),
                         streams=RandomStreams(5))
    plane.attach(farm=farm)
    plane.actuation.submit(servers[6], CommandKind.SLEEP)
    plane.actuation.submit(servers[3], CommandKind.WAKE)
    return env, plane


def _activate_one(plane, quarantined):
    """The one-at-a-time pick ``activate_many`` replaces: the first
    believed-SLEEPING server, else the first believed-OFF one."""
    for target, kind in ((ServerState.SLEEPING, CommandKind.WAKE),
                         (ServerState.OFF, CommandKind.POWER_ON)):
        for server in plane.farm.servers:
            if (plane.believed_state(server) is target
                    and server.zone not in quarantined):
                plane.actuation.submit(server, kind)
                return server
    return None


def _deactivate_one(plane, to_sleep):
    """The one-at-a-time pick ``deactivate_many`` replaces."""
    active = plane.believed_active(plane.farm)
    if len(active) <= 1:
        return None
    plane.actuation.submit(active[-1], CommandKind.SLEEP if to_sleep
                           else CommandKind.SHUT_DOWN)
    return active[-1]


def _assert_same_plane(env_a, a, env_b, b):
    env_a.run(until=env_a.now + 600.0)
    env_b.run(until=env_b.now + 600.0)
    assert a.actuation.records == b.actuation.records
    assert (a.actuation._rng.bit_generator.state
            == b.actuation._rng.bit_generator.state)
    assert ([s.state for s in a.servers]
            == [s.state for s in b.servers])


@pytest.mark.parametrize("count", [0, 1, 3, 6, 20])
@pytest.mark.parametrize("quarantined", [set(), {"z1"}, {"z0", "z2"}])
def test_activate_many_equals_single_picks(count, quarantined):
    env_a, batch = _mediated_farm()
    env_b, single = _mediated_farm()
    picked = batch.activate_many(quarantined, count)
    oracle = []
    while len(oracle) < count:
        server = _activate_one(single, quarantined)
        if server is None:
            break
        oracle.append(server)
    assert [s.name for s in picked] == [s.name for s in oracle]
    _assert_same_plane(env_a, batch, env_b, single)


@pytest.mark.parametrize("count", [0, 1, 4, 20])
@pytest.mark.parametrize("to_sleep", [True, False])
def test_deactivate_many_equals_single_picks(count, to_sleep):
    env_a, batch = _mediated_farm()
    env_b, single = _mediated_farm()
    stopped = batch.deactivate_many(to_sleep, count)
    oracle = []
    while len(oracle) < count:
        server = _deactivate_one(single, to_sleep)
        if server is None:
            break
        oracle.append(server)
    assert [s.name for s in stopped] == [s.name for s in oracle]
    _assert_same_plane(env_a, batch, env_b, single)


# ----------------------------------------------------------------------
# FleetAggregate.verify
# ----------------------------------------------------------------------
def test_fleet_verify_repairs_all_cached_aggregates():
    env = Environment()
    servers = [Server(env, f"s{i}", initial_state=ServerState.OFF)
               for i in range(4)]
    from repro.cluster.aggregates import FleetAggregate
    agg = FleetAggregate(servers)
    for s in servers[:2]:
        s.power_on()
    env.run(until=200.0)
    _ = agg.active_servers()
    # Corrupt every cache the hard way.
    agg._q += quanta(7.5)
    agg._active_count = 99
    agg._active_cache = list(servers)
    repair = agg.verify()
    assert repair["power_drift_w"] == pytest.approx(7.5)
    assert repair["active_count_corrected"] == 97
    assert repair["roster_repaired"]
    assert agg.active_count == 2
    assert agg.active_servers() == servers[:2]
    # A clean aggregate verifies clean.
    repair = agg.verify()
    assert repair["active_count_corrected"] == 0
    assert not repair["roster_repaired"]


# ----------------------------------------------------------------------
# Perfect-plane equivalence: the byte-identity guarantee
# ----------------------------------------------------------------------
def _cosim(control_plane, faulted=False):
    spec = DataCenterSpec(racks=2, servers_per_rack=5, zones=2, cracs=2)
    capacity = spec.total_servers * spec.server_capacity

    def demand(t):
        return capacity * (0.4 + 0.3 * math.sin(t / 7200.0))

    if not faulted:
        return CoSimulation(spec, demand, control_plane=control_plane,
                            streams=RandomStreams(17))
    faults = FaultSchedule([
        Incident(FaultKind.CRAC_FAILURE, 2 * 3600.0, 3 * 3600.0,
                 target=0),
        Incident(FaultKind.UTILITY_OUTAGE, 4 * 3600.0, 1800.0)])
    return CoSimulation(spec, demand, control_plane=control_plane,
                        streams=RandomStreams(17), fault_schedule=faults,
                        power_budget_w=2000.0)


def test_perfect_plane_is_bit_identical_to_no_plane():
    bare = _cosim(None)
    mediated = _cosim(ControlPlaneProfile())
    r0 = bare.run(6 * 3600.0)
    r1 = mediated.run(6 * 3600.0)
    assert r0.it_energy_j == r1.it_energy_j
    assert r0.facility_energy_j == r1.facility_energy_j
    assert r0.mean_active_servers == r1.mean_active_servers
    assert r0.sla.served_fraction == r1.sla.served_fraction
    assert list(bare.farm.power_monitor.values) \
        == list(mediated.farm.power_monitor.values)
    assert list(bare.farm.active_monitor.values) \
        == list(mediated.farm.active_monitor.values)
    d0 = [(d.target_fleet, d.pstate, d.capped) for d in
          bare.manager.decisions]
    d1 = [(d.target_fleet, d.pstate, d.capped) for d in
          mediated.manager.decisions]
    assert d0 == d1
    # And the perfect plane really did stay out of the way.
    report = r1.controlplane
    assert report.telemetry_published == 0
    assert report.watchdog_checks == 0


def test_perfect_plane_is_bit_identical_on_a_capped_faulted_day():
    bare = _cosim(None, faulted=True)
    mediated = _cosim(ControlPlaneProfile(), faulted=True)
    r0 = bare.run(6 * 3600.0)
    r1 = mediated.run(6 * 3600.0)
    assert any(d.throttled_loads for d in mediated.manager.capper.decisions)
    assert r1.resilience.incident_count == 2
    assert result_fingerprint(r0) == result_fingerprint(
        dataclasses.replace(r1, controlplane=None))
    assert r1.controlplane.commands_issued == 0


def test_hardened_plane_converges_with_zero_divergence():
    sim = _cosim(ControlPlaneProfile.hardened())
    result = sim.run(6 * 3600.0)
    report = result.controlplane
    assert report.commands_gave_up == 0
    assert report.max_attempts <= 4  # within 3 retries
    assert report.divergent_servers == 0
    assert report.watchdog_suspicions == report.watchdog_false_positives


# ----------------------------------------------------------------------
# Decorrelated retry jitter (opt-in; default backoff is unchanged)
# ----------------------------------------------------------------------
def test_default_backoff_is_exponential_and_jitter_free():
    from repro.controlplane import CommandRecord

    env = Environment()
    server = Server(env, "s0", initial_state=ServerState.SLEEPING)
    bus = _bus(env, [server], latency_s=1.0, backoff_base_s=5.0,
               backoff_cap_s=120.0)
    assert bus._jitter_rng is None
    record = CommandRecord("k", "s0", CommandKind.WAKE, None, 0.0)
    for attempt, expected in ((1, 5.0), (2, 10.0), (3, 20.0),
                              (6, 120.0)):
        record.attempts = attempt
        assert bus._backoff(record) == expected
    assert record.backoff_s == 0.0  # deterministic path never writes


def test_jitter_backoff_bounded_and_decorrelated():
    from repro.controlplane import CommandRecord

    env = Environment()
    server = Server(env, "s0", initial_state=ServerState.SLEEPING)
    bus = ActuationBus(
        env, [server],
        ActuationProfile(loss_probability=0.5, latency_s=1.0,
                         backoff_base_s=5.0, backoff_cap_s=120.0,
                         backoff_jitter=True),
        streams=RandomStreams(11))
    assert bus._jitter_rng is not None
    record = CommandRecord("k", "s0", CommandKind.WAKE, None, 0.0)
    record.attempts = 1
    sleeps = [bus._backoff(record) for _ in range(40)]
    assert all(5.0 <= s <= 120.0 for s in sleeps)
    assert len(set(sleeps)) > 10  # actually random, not a ladder
    # Decorrelated: each sleep feeds the next draw's upper bound.
    assert record.backoff_s == sleeps[-1]
    # Two records drift apart even on the same attempt schedule.
    other = CommandRecord("k2", "s1", CommandKind.WAKE, None, 0.0)
    other.attempts = 1
    assert bus._backoff(other) not in sleeps


def test_jitter_does_not_perturb_loss_stream():
    """Jitter draws from its own substream: a single command sees the
    exact same loss pattern either way — only the retry *timing*
    moves."""
    def run(jitter):
        env = Environment()
        server = Server(env, "s0", initial_state=ServerState.SLEEPING)
        profile = ActuationProfile(loss_probability=0.6, latency_s=1.0,
                                   ack_timeout_s=10.0, max_retries=6,
                                   backoff_base_s=2.0,
                                   backoff_jitter=jitter)
        bus = ActuationBus(env, [server], profile,
                           streams=RandomStreams(1))
        record = bus.submit(server, CommandKind.WAKE)
        env.run(until=1_000.0)
        return record

    plain = run(False)
    jittered = run(True)
    assert plain.attempts == jittered.attempts
    assert plain.lost_deliveries == jittered.lost_deliveries
    assert plain.acked and jittered.acked
    assert plain.acked_s != jittered.acked_s  # timing did move
    assert jittered.backoff_s > 0.0


def test_jitter_is_deterministic_per_seed():
    def ack_times(seed):
        env = Environment()
        servers = [Server(env, f"s{i}",
                          initial_state=ServerState.SLEEPING)
                   for i in range(4)]
        profile = ActuationProfile(loss_probability=0.5, latency_s=1.0,
                                   ack_timeout_s=10.0, max_retries=8,
                                   backoff_base_s=4.0,
                                   backoff_jitter=True)
        bus = ActuationBus(env, servers, profile,
                           streams=RandomStreams(seed))
        records = [bus.submit(s, CommandKind.WAKE) for s in servers]
        env.run(until=3_000.0)
        return [r.acked_s for r in records]

    assert ack_times(21) == ack_times(21)
    assert ack_times(21) != ack_times(22)
