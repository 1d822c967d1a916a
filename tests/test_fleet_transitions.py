"""The vector fleet's transition kernels and run-shaped dispatch folds.

``VectorFleet.start_many`` / ``park_many`` replace per-server
``power_on()`` / ``wake()`` / drain + ``sleep()`` / ``shut_down()`` /
``fail()`` / ``repair()`` walks, ``rows_in`` selects their rows, and a
contiguous active set dispatches through slices.  Each is
pinned against a twin plant that takes the scalar path, down to the
rack and pool power ledgers (integer quanta, equal bit for bit).  The
stale-timer guard is pinned on ``Server``, ``VectorServer`` and the
kernel.
"""

import numpy as np
import pytest

from repro.cluster.loadbalancer import EvenSplit, WeightedSplit
from repro.cluster.server import POWERED_STATES, Server, ServerState
from repro.fleet import VectorFleet, VectorServer
from repro.fleet.plant import C_ACTIVE, C_OFF, C_SLEEPING, run_rows
from repro.sim import Environment


class Plant:
    """A fleet of ``n`` vector servers in racks of ``width``."""

    def __init__(self, n=24, width=4, pool=True):
        self.env = Environment()
        self.fleet = VectorFleet(self.env, n)
        self.servers = [VectorServer(self.fleet, self.env, f"s{i}")
                        for i in range(n)]
        for lo in range(0, n, width):
            self.fleet.make_aggregate(self.servers[lo:lo + width],
                                      kind="rack")
        self.pool = self.attach_pool() if pool else None

    def attach_pool(self):
        self.pool = self.fleet.make_aggregate(self.servers, kind="pool")
        return self.pool

    def run(self, until):
        self.env.run(until=until)

    # -- the scalar path the kernel replaces ---------------------------
    def start_scalar(self, rows):
        for i in rows:
            s = self.servers[i]
            if s.state is ServerState.SLEEPING:
                s.wake()
            else:
                s.power_on()

    def stop_scalar(self, rows, to_sleep):
        for i in rows:
            s = self.servers[i]
            s.set_offered_load(0.0)
            if to_sleep:
                s.sleep()
            else:
                s.shut_down()

    def park_scalar(self, rows, state):
        for i in rows:
            s = self.servers[i]
            if state is ServerState.FAILED:
                s.fail()
            elif state is ServerState.SLEEPING:
                s.set_offered_load(0.0)
                s.sleep()
            elif s.state is ServerState.FAILED:
                s.repair()
            else:
                s.shut_down()


def assert_twins(a: Plant, b: Plant):
    fa, fb = a.fleet, b.fleet
    for col in ("state_code", "power", "offered", "eff_cap", "energy_j",
                "t_last", "pstate"):
        assert getattr(fa, col).tolist() == getattr(fb, col).tolist(), col
    r = fa.n_racks
    for col in ("rack_q", "rack_active"):
        assert (getattr(fa, col)[:r].tolist()
                == getattr(fb, col)[:r].tolist()), col
    if a.pool is not None:
        assert a.pool._q == b.pool._q
        assert a.pool._active_count == b.pool._active_count
        assert a.pool.active_servers() == [a.servers[i] for i in
                                           b.pool.active_indices()]
    for sa, sb in zip(a.servers, b.servers):
        assert sa.state_log == sb.state_log
        assert (sa._transition is None) == (sb._transition is None)


def twins_all_active(rng, n=24, width=4):
    """Twin plants, every server ACTIVE with random loads/P-states."""
    plants = (Plant(n, width), Plant(n, width))
    for p in plants:
        p.fleet.start_many(np.arange(n))
        p.run(121.0)
    loads = np.where(rng.random(n) < 0.2, 0.0, rng.random(n) * 120.0)
    pstates = rng.integers(0, 3, n)
    for p in plants:
        for s, load, ps in zip(p.servers, loads.tolist(),
                               pstates.tolist()):
            s.set_offered_load(load)
            s.set_pstate(ps)
    return plants


# ----------------------------------------------------------------------
# stop_tail: park_many drains + sleeps / shuts down, back to front
# ----------------------------------------------------------------------
@pytest.mark.parametrize("case", range(40))
def test_stop_many_matches_scalar_drain_and_stop(case):
    rng = np.random.default_rng(case)
    a, b = twins_all_active(rng)
    for p in (a, b):
        p.run(200.0)
    # Move a few loads first, so not every row starts the batch alike.
    kick = int(rng.integers(0, 4))
    for p in (a, b):
        for s in p.servers[:kick]:
            s.set_offered_load(7.0)
    count = int(rng.integers(1, 20))
    to_sleep = bool(rng.integers(0, 2))
    victims = a.pool.stop_tail(count, to_sleep)
    assert victims.tolist() == list(range(23, 23 - count, -1))
    b.stop_scalar(victims.tolist(), to_sleep)
    assert_twins(a, b)
    # The ledgers stay exact: a cold recount finds no drift.
    assert a.pool.recompute_exact() == b.pool.recompute_exact() == 0.0


def test_stop_tail_keeps_one_server():
    rng = np.random.default_rng(7)
    a, b = twins_all_active(rng, n=8)
    assert a.pool.stop_tail(50, True).size == 7
    b.stop_scalar(range(7, 0, -1), True)
    assert_twins(a, b)
    assert a.pool.stop_tail(1, True).size == 0


# ----------------------------------------------------------------------
# park_many: every resting transition, against per-row scalar calls
# ----------------------------------------------------------------------
ACTIVE, OFF, FAILED = ServerState.ACTIVE, ServerState.OFF, ServerState.FAILED
SLEEPING = ServerState.SLEEPING

#: (source states, target) for every pair the scalar calls accept,
#: then the two mixed batches the fault engine and the repair sweep
#: make.
PARKS = ([((ACTIVE,), SLEEPING), ((ACTIVE,), OFF), ((SLEEPING,), OFF),
          ((FAILED,), OFF)]
         + [((source,), FAILED) for source in ServerState]
         + [((ACTIVE, SLEEPING, FAILED), OFF),
            (tuple(ServerState), FAILED)])


def twins_in_every_state(rng):
    """Twin plants at t=265 s with rows in all six states, every meter
    mid-segment: 23, 19 WAKING; 22, 18 BOOTING; 15, 11 SLEEPING;
    14, 10 OFF; 21, 17, 3 FAILED; the rest ACTIVE."""
    a, b = twins_all_active(rng)
    for p in (a, b):
        p.run(200.0)
        p.stop_scalar([23, 19, 15, 11], True)
        p.stop_scalar([22, 18, 14, 10], False)
        for i in (21, 17, 3):
            p.servers[i].fail()
        p.run(260.0)
        for i in (23, 19):
            p.servers[i].wake()
        for i in (22, 18):
            p.servers[i].power_on()
        p.run(265.0)
    return a, b


@pytest.mark.parametrize(
    "sources, state", PARKS,
    ids=["+".join(s.value for s in src) + "->" + dst.value
         for src, dst in PARKS])
def test_park_many_matches_scalar_calls(sources, state):
    a, b = twins_in_every_state(np.random.default_rng(21))
    rows = a.fleet.rows_in(sources)
    assert rows.size
    a.fleet.park_many(rows, state)
    b.park_scalar(rows.tolist(), state)
    assert_twins(a, b)
    # Past every timer started before the park: none finishes a row
    # that left its interim state.
    for until in (281.0, 400.0, 900.0):
        a.run(until), b.run(until)
        assert_twins(a, b)
    assert a.pool.recompute_exact() == b.pool.recompute_exact() == 0.0
    assert ([s.energy_j() for s in a.servers]
            == [s.energy_j() for s in b.servers])


def test_failed_repaired_restarted_row_outlives_its_old_timer():
    """A WAKING and a BOOTING row failed, repaired and powered on
    belong to their new boot: the shared timers they started under
    finish their neighbours and leave them."""
    a, b = twins_with_sleepers(np.random.default_rng(22))   # t=121 s
    rows = [14, 15, 16, 11, 12, 13]       # wake 14..16, boot 11..13
    a.fleet.start_many(rows)
    b.start_scalar(rows)
    a.run(126.0), b.run(126.0)
    a.fleet.park_many([15, 12], FAILED)
    a.fleet.park_many([15, 12], OFF)
    a.fleet.start_many([12, 15])
    b.park_scalar([15, 12], FAILED)
    b.park_scalar([15, 12], OFF)
    b.start_scalar([12, 15])
    assert_twins(a, b)
    booting = ServerState.BOOTING
    for until, expected in ((137.0, {14: ACTIVE, 15: booting}),
                            (242.0, {11: ACTIVE, 12: booting,
                                     15: booting}),
                            (247.0, {12: ACTIVE, 15: ACTIVE})):
        a.run(until), b.run(until)
        assert_twins(a, b)
        assert {i: a.servers[i].state for i in expected} == expected
    assert a.servers[15]._transition is None


def _plant_state(fleet, servers):
    return ([getattr(fleet, col).tolist() for col in
             ("state_code", "power", "offered", "eff_cap", "energy_j",
              "t_last", "rack_q", "rack_active")]
            + [fleet.pool_agg._q, fleet.pool_agg._active_count,
               fleet.mutation_epoch, [len(s.state_log) for s in servers]])


@pytest.mark.parametrize("state", [SLEEPING, OFF, FAILED])
def test_park_many_refuses_before_any_change(state):
    a, _ = twins_in_every_state(np.random.default_rng(23))
    fleet = a.fleet
    before = _plant_state(fleet, a.servers)
    sources = [s for src, dst in PARKS[:-2] if dst is state for s in src]
    first = int(fleet.rows_in(sources)[0])
    for refused in ServerState:
        if refused not in sources:
            other = int(fleet.rows_in((refused,))[0])
            with pytest.raises(ValueError):
                fleet.park_many(sorted([first, other], reverse=True),
                                state)
    pair = fleet.rows_in(sources)[:2].tolist()
    with pytest.raises(ValueError):
        fleet.park_many(pair[::-1], state)          # ascending
    with pytest.raises(ValueError):
        fleet.park_many([first, first], state)      # a row twice
    with pytest.raises(ValueError):
        fleet.park_many([], state)
    with pytest.raises(ValueError):
        fleet.park_many([24], state)                # not this fleet's
    for unresting in (ACTIVE, ServerState.BOOTING, ServerState.WAKING):
        with pytest.raises(ValueError):
            fleet.park_many([first], unresting)
    assert _plant_state(fleet, a.servers) == before


def test_rows_in_matches_a_python_filter():
    a, _ = twins_in_every_state(np.random.default_rng(25))
    for i, s in enumerate(a.servers):
        s.zone = f"z{i // 4 % 3}"           # one zone per rack
    for states in ((ACTIVE,), (FAILED,), POWERED_STATES,
                   tuple(ServerState)):
        for zone in (None, "z0", "z2", "no-such-zone"):
            for lo, hi in ((0, None), (4, 12), (20, 24)):
                top = 24 if hi is None else hi
                expected = [i for i in range(top - 1, lo - 1, -1)
                            if a.servers[i].state in states
                            and zone in (None, a.servers[i].zone)]
                assert (a.fleet.rows_in(states, zone, lo, hi).tolist()
                        == expected)
    assert a.fleet.rows_in(tuple(ServerState), "no-such-zone").size == 0


def test_rows_in_skips_unclaimed_rows():
    env = Environment()
    fleet = VectorFleet(env, 10)
    for i in range(6):
        VectorServer(fleet, env, f"s{i}")
    assert fleet.state_code[6:].tolist() == [C_OFF] * 4   # reads as OFF
    assert fleet.rows_in((OFF,)).tolist() == [5, 4, 3, 2, 1, 0]


# ----------------------------------------------------------------------
# start_many: wake and boot with shared timers
# ----------------------------------------------------------------------
def twins_with_sleepers(rng):
    a, b = twins_all_active(rng)
    # Sleep the top and shut down a few just below the sleepers, so the
    # startable rows mix SLEEPING and OFF inside one rack.
    for p in (a, b):
        p.stop_scalar(range(23, 13, -1), True)
        p.stop_scalar([13, 12, 11], False)
    return a, b


@pytest.mark.parametrize("case", range(10))
def test_start_many_matches_scalar_wake_and_boot(case):
    rng = np.random.default_rng(100 + case)
    a, b = twins_with_sleepers(rng)
    for p in (a, b):
        p.run(300.0)
    count = int(rng.integers(1, 14))
    rows = a.fleet.startable_rows(None, count)
    a.fleet.start_many(rows)
    b.start_scalar(rows.tolist())
    assert_twins(a, b)
    for until in (300.0 + 15.0, 300.0 + 16.0, 300.0 + 121.0):
        a.run(until), b.run(until)
        assert_twins(a, b)


def test_mixed_sleeping_and_off_start_within_one_rack():
    a, b = twins_with_sleepers(np.random.default_rng(3))
    # Rows 11..13 are OFF, 14..23 SLEEPING: rack 3 (rows 12..15) holds
    # both, so its deltas arrive in two separate runs.
    rows = a.fleet.startable_rows(None, 12)
    assert rows.tolist() == list(range(14, 24)) + [11, 12]
    assert a.fleet.state_code[12] == C_OFF
    assert a.fleet.state_code[14] == C_SLEEPING
    timers = a.fleet.start_many(rows)
    assert len(timers) == 2                     # one per source state
    b.start_scalar(rows.tolist())
    assert_twins(a, b)
    a.run(1_000.0), b.run(1_000.0)
    assert_twins(a, b)
    assert a.fleet.state_code[11:24].tolist() == (
        [C_ACTIVE] * 2 + [C_OFF] + [C_ACTIVE] * 10)


def test_start_before_pool_folds_into_pool_once_attached():
    a, b = Plant(pool=False), Plant(pool=False)
    a.fleet.start_many(np.arange(20))
    b.start_scalar(range(20))
    a.run(60.0), b.run(60.0)
    a.attach_pool(), b.attach_pool()            # mid-boot
    a.run(121.0), b.run(121.0)
    assert_twins(a, b)
    assert a.pool.active_count == 20


def test_row_failed_mid_wake_keeps_its_state():
    a, b = twins_with_sleepers(np.random.default_rng(5))
    rows = a.fleet.startable_rows(None, 4)
    a.fleet.start_many(rows)
    b.start_scalar(rows.tolist())
    for p in (a, b):
        p.run(p.env.now + 5.0)
        p.servers[15].fail()
    a.run(1_000.0), b.run(1_000.0)
    assert_twins(a, b)
    assert a.servers[15].state is ServerState.FAILED
    assert a.servers[15]._transition is None
    assert [a.servers[i].state for i in (14, 16, 17)] == [
        ServerState.ACTIVE] * 3


def test_wake_on_waking_row_returns_the_shared_timer():
    a, _ = twins_with_sleepers(np.random.default_rng(6))
    (timer,) = a.fleet.start_many([14, 15, 16])
    assert a.servers[15].state is ServerState.WAKING
    assert a.servers[15].wake() is timer
    assert a.servers[16]._transition is timer
    a.run(a.env.now + 20.0)
    assert a.servers[15].state is ServerState.ACTIVE
    assert a.servers[15]._transition is None


def test_start_many_groups_rows_by_delay():
    a, b = twins_with_sleepers(np.random.default_rng(8))
    for p in (a, b):
        p.servers[15].wake_s = 40.0
    rows = [14, 15, 16]
    assert len(a.fleet.start_many(rows)) == 2
    b.start_scalar(rows)
    for until in (a.env.now + 16.0, a.env.now + 41.0):
        a.run(until), b.run(until)
        assert_twins(a, b)


# ----------------------------------------------------------------------
# Dispatch: slices for a contiguous active run, gathers otherwise
# ----------------------------------------------------------------------
def dispatch_scalar(plant, policy, total):
    active = plant.pool.active_servers()
    for s in plant.servers:
        if s.state is not ServerState.ACTIVE and s.offered_load:
            s.set_offered_load(0.0)
    for s, share in zip(active, policy.split(total, active)):
        s.set_offered_load(share)


@pytest.mark.parametrize("scattered", [False, True],
                         ids=["run", "scattered"])
def test_dispatch_matches_scalar_on_runs_and_scattered_sets(scattered):
    rng = np.random.default_rng(11)
    a, b = twins_all_active(rng)
    for p in (a, b):
        p.stop_scalar(range(23, 17, -1), True)
        if scattered:
            p.stop_scalar([9], True)
    idx = a.pool.active_indices()
    assert isinstance(run_rows(idx), slice) is not scattered
    for k, total in enumerate((900.0, 1_300.0, 1_700.0, 400.0, 2_500.0)):
        policy = WeightedSplit() if k % 2 else EvenSplit()
        for p in (a, b):
            p.run(300.0 + 60.0 * k)
        a.pool.fused_dispatch(policy, total)
        dispatch_scalar(b, policy, total)
        assert_twins(a, b)


def test_run_fold_handles_a_short_last_rack():
    rng = np.random.default_rng(12)
    a, b = twins_all_active(rng, n=22, width=4)   # last rack: 2 rows
    for total in (700.0, 1_900.0, 300.0):
        a.pool.fused_dispatch(EvenSplit(), total)
        dispatch_scalar(b, EvenSplit(), total)
        assert_twins(a, b)


# ----------------------------------------------------------------------
# A stale timer never completes a newer transition
# ----------------------------------------------------------------------
def _fail_repair_restart(server, env, restart):
    server.power_on()
    env.run(until=10.0)
    server.fail()
    server.repair()
    env.run(until=20.0)
    restart()
    env.run(until=121.0)
    assert server.state is ServerState.BOOTING   # the stale timer's time
    env.run(until=141.0)
    assert server.state is ServerState.ACTIVE    # 20 s + boot_s
    assert server._transition is None


def test_stale_timer_does_not_finish_a_newer_boot_server():
    env = Environment()
    server = Server(env, "s")
    _fail_repair_restart(server, env, server.power_on)


def test_stale_timer_does_not_finish_a_newer_boot_vector_server():
    plant = Plant(n=4, width=4)
    server = plant.servers[2]
    _fail_repair_restart(server, plant.env, server.power_on)
    assert plant.pool.active_count == 1


def test_stale_timer_does_not_finish_a_newer_boot_kernel():
    plant = Plant(n=4, width=4)
    env, fleet = plant.env, plant.fleet
    fleet.start_many([1, 2])
    env.run(until=10.0)
    plant.servers[2].fail()
    plant.servers[2].repair()
    env.run(until=20.0)
    fleet.start_many([2])
    env.run(until=121.0)
    assert fleet.state_code[1:3].tolist() == [C_ACTIVE, 1]   # BOOTING
    env.run(until=141.0)
    assert fleet.state_code[1:3].tolist() == [C_ACTIVE, C_ACTIVE]
    assert plant.pool.active_count == 2
    # A scalar restart of a kernel-started row is owned the same way.
    fleet.start_many([3])
    env.run(until=150.0)
    plant.servers[3].fail()
    plant.servers[3].repair()
    env.run(until=160.0)
    plant.servers[3].power_on()
    env.run(until=262.0)
    assert plant.servers[3].state is ServerState.BOOTING
    env.run(until=281.0)
    assert plant.servers[3].state is ServerState.ACTIVE


def test_run_fold_skips_rows_whose_power_held():
    """Saturated rows keep their power when their load moves: their
    zero changes inside a run leave the ledgers as the scalar funnel,
    which pushes nothing for them, leaves them."""
    a, b = twins_all_active(np.random.default_rng(13))
    eff = a.fleet.eff_cap
    low, high = float(eff.min()), float(eff.max())
    assert low < high
    for k, share in enumerate((0.5 * (low + high), 0.5 * (low + high) + 1.0,
                               high + 5.0, high + 9.0)):
        for p in (a, b):
            p.run(300.0 + 60.0 * k)
        before = a.fleet.power.copy()
        a.pool.fused_dispatch(EvenSplit(), 24 * share)
        dispatch_scalar(b, EvenSplit(), 24 * share)
        held = a.fleet.power == before
        if k == 1:
            assert held.any() and not held.all()
        elif k == 3:
            assert held.all()
        assert_twins(a, b)


# ----------------------------------------------------------------------
# Re-commanding the current P-state changes nothing
# ----------------------------------------------------------------------
def test_recommanding_the_current_pstate_is_a_no_op():
    plant = Plant(n=8, width=4)
    fleet, pool = plant.fleet, plant.pool
    fleet.start_many(np.arange(8))
    plant.run(121.0)
    pool.batch_set_pstate(1)
    plant.run(200.0)
    frozen = (fleet.mutation_epoch, fleet.energy_j.tolist(),
              fleet.t_last.tolist())
    pool.batch_set_pstate(1)
    plant.servers[3].set_pstate(1)
    assert (fleet.mutation_epoch, fleet.energy_j.tolist(),
            fleet.t_last.tolist()) == frozen
    with pytest.raises(ValueError):
        plant.servers[3].set_pstate(99)     # still range-checked
    pool.batch_set_pstate(2)
    assert fleet.mutation_epoch > frozen[0]
    assert fleet.pstate.tolist() == [2] * 8


def test_batch_pstate_skips_rows_already_there_like_the_scalar_path():
    a, b = twins_all_active(np.random.default_rng(14))  # P-states 0..2
    for p in (a, b):
        p.run(300.0)
    a.pool.batch_set_pstate(1)
    for s in b.pool.active_servers():
        s.set_pstate(1)
    assert_twins(a, b)
