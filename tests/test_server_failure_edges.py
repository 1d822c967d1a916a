"""Edge cases of the Server fail()/repair() state machine.

A protective shutdown (§2.2) can land at any point in a server's
lifecycle — mid-boot, mid-wake, while asleep — and the state machine
must neither resurrect the machine via a stale transition timer nor
let the load balancer route work to a corpse.
"""

import pytest

from repro.cluster import (
    EvenSplit,
    InvalidTransition,
    LoadBalancer,
    Server,
    ServerState,
)
from repro.cluster.server import POWERED_STATES
from repro.control.farm import ServerFarm
from repro.core.chaos import FailureInjector
from repro.fleet import VectorFleet, VectorServer
from repro.sim import Environment, RandomStreams


def make_server(env, name="s0", **kwargs):
    kwargs.setdefault("boot_s", 120.0)
    kwargs.setdefault("wake_s", 15.0)
    return Server(env, name, **kwargs)


def make_pool(env, n, **kwargs):
    """``n`` vector servers with ``make_server``'s defaults, in one
    rack: a balancer's pool."""
    kwargs.setdefault("boot_s", 120.0)
    kwargs.setdefault("wake_s", 15.0)
    fleet = VectorFleet(env, n)
    servers = [VectorServer(fleet, env, f"s{i}", **kwargs)
               for i in range(n)]
    fleet.make_aggregate(servers, "rack")
    return servers


def test_fail_during_boot_is_not_resurrected():
    env = Environment()
    server = make_server(env)
    server.power_on()
    env.run(until=60.0)
    assert server.state is ServerState.BOOTING
    server.fail()
    # The boot timer fires at t=120 but must see the preempted state.
    env.run(until=200.0)
    assert server.state is ServerState.FAILED
    assert server.offered_load == 0.0


def test_fail_during_waking_is_not_resurrected():
    env = Environment()
    server = make_server(env)
    server.power_on()
    env.run(until=121.0)
    server.sleep()
    server.wake()
    env.run(until=126.0)
    assert server.state is ServerState.WAKING
    server.fail()
    env.run(until=300.0)
    assert server.state is ServerState.FAILED


def test_repair_then_boot_completes_normally():
    env = Environment()
    server = make_server(env)
    server.power_on()
    env.run(until=121.0)
    server.fail()
    server.repair()
    assert server.state is ServerState.OFF
    server.power_on()
    assert server.state is ServerState.BOOTING
    env.run(until=env.now + 121.0)
    assert server.state is ServerState.ACTIVE
    assert server.effective_capacity > 0


def test_double_fail_is_idempotent():
    env = Environment()
    server = make_server(env)
    server.power_on()
    env.run(until=121.0)
    server.fail()
    server.fail()  # a second trip on a dead machine is a no-op
    assert server.state is ServerState.FAILED
    assert sum(1 for _, s in server.state_log
               if s is ServerState.FAILED) == 2


def test_repair_from_non_failed_raises():
    env = Environment()
    server = make_server(env)
    with pytest.raises(InvalidTransition):
        server.repair()  # OFF
    server.power_on()
    env.run(until=121.0)
    with pytest.raises(InvalidTransition):
        server.repair()  # ACTIVE


def test_failed_server_draws_off_power_and_sheds_load():
    env = Environment()
    server = make_server(env)
    server.power_on()
    env.run(until=121.0)
    server.set_offered_load(50.0)
    assert server.power_w() > server.model.idle_w
    server.fail()
    assert server.offered_load == 0.0
    assert server.power_w() == server.model.off_w
    assert server.effective_capacity == 0.0


def test_balancer_never_routes_to_failed_server():
    env = Environment()
    servers = make_pool(env, 4)
    for s in servers:
        s.power_on()
    env.run(until=121.0)
    balancer = LoadBalancer(servers, policy=EvenSplit())
    balancer.dispatch(200.0)
    assert all(s.offered_load == 50.0 for s in servers)
    servers[0].fail()
    served = balancer.dispatch(200.0)
    assert servers[0].offered_load == 0.0
    assert servers[0] not in balancer.active_servers()
    # Survivors absorb the redistributed share.
    assert all(s.offered_load == pytest.approx(200.0 / 3)
               for s in servers[1:])
    assert served == pytest.approx(200.0)


def test_farm_loop_excludes_failed_servers():
    env = Environment()
    servers = make_pool(env, 4, capacity=100.0)
    for s in servers:
        s.power_on()
    env.run(until=121.0)
    farm = ServerFarm(env, servers, demand_fn=lambda t: 120.0,
                      dispatch_period_s=30.0)
    env.process(farm.run())
    env.run(until=200.0)
    assert len(farm.shed_monitor) == 0 or farm.shed_monitor.values[-1] == 0.0
    for s in servers[:3]:
        s.fail()
    env.run(until=300.0)
    survivor = servers[3]
    assert farm.active_servers() == [survivor]
    # All admitted demand lands on the survivor, saturating it; the
    # overflow is shed rather than routed to the dead machines.
    assert survivor.offered_load == pytest.approx(120.0)
    assert all(s.offered_load == 0.0 for s in servers[:3])
    assert farm.shed_monitor.values[-1] == pytest.approx(20.0)


def test_injector_targets_any_powered_state_by_default():
    env = Environment()
    streams = RandomStreams(3)
    servers = [make_server(env, f"s{i}") for i in range(8)]
    for s in servers[:4]:
        s.power_on()
    env.run(until=121.0)
    for s in servers[2:4]:
        s.sleep()
    # s0-s1 ACTIVE, s2-s3 SLEEPING, s4-s7 OFF.
    injector = FailureInjector(env, servers, mtbf_s=50.0, repair_s=None,
                               streams=streams)
    assert injector.states == POWERED_STATES
    env.process(injector.run())
    env.run(until=3_000.0)
    victims = {name for _, name in injector.failures}
    assert victims == {"s0", "s1", "s2", "s3"}  # OFF servers untouched
    assert all(s.state is ServerState.OFF for s in servers[4:])


def test_injector_states_parameter_restores_legacy_behaviour():
    env = Environment()
    servers = [make_server(env, f"s{i}") for i in range(4)]
    for s in servers:
        s.power_on()
    env.run(until=121.0)
    for s in servers[2:]:
        s.sleep()
    injector = FailureInjector(env, servers, mtbf_s=50.0, repair_s=None,
                               streams=RandomStreams(3),
                               states=(ServerState.ACTIVE,))
    env.process(injector.run())
    env.run(until=3_000.0)
    victims = {name for _, name in injector.failures}
    assert victims <= {"s0", "s1"}
    assert all(s.state is ServerState.SLEEPING for s in servers[2:])


def test_injector_rng_reproducible_from_streams():
    def failures_for(seed):
        env = Environment()
        servers = [make_server(env, f"s{i}") for i in range(6)]
        for s in servers:
            s.power_on()
        env.run(until=121.0)
        injector = FailureInjector(env, servers, mtbf_s=200.0,
                                   repair_s=600.0,
                                   streams=RandomStreams(seed))
        env.process(injector.run())
        env.run(until=10_000.0)
        return injector.failures

    assert failures_for(5) == failures_for(5)
    assert failures_for(5) != failures_for(6)
