"""Hysteresis edge cases of the manager's degraded-ops mode machine.

The detect → degrade → recover loop (``MacroResourceManager
._apply_degradation``) has three knife edges worth pinning exactly:
the *enter* threshold (a zone at precisely ``alarm − drain_margin``),
the *exit* threshold (healthy for precisely ``recovery_hold_s``), and
the clock-reset rule (a threat re-appearing inside the hold window
must restart the hold from zero, not resume it).  These tests drive
the mode machine directly with synthetic :class:`FacilityStatus`
values and hand-set zone temperatures, with no fault engine and no
simulation processes, so each edge is hit at an exact timestamp.
"""

from repro.cluster.server import ServerState
from repro.control.farm import ServerFarm
from repro.cooling import CRACUnit, MachineRoom, ThermalZone
from repro.core import FaultKind
from repro.core.faults import FacilityStatus, IncidentRecord
from repro.core.manager import DegradedOpsPolicy, MacroResourceManager
from repro.fleet import VectorFleet, VectorServer
from repro.sim import Environment


BUDGET_W = 50_000.0


def make_manager(env, **policy_kwargs):
    """Two-zone plant with five ACTIVE servers per zone, no engine."""
    zones = [ThermalZone("zone-0", 5e5), ThermalZone("zone-1", 5e5)]
    cracs = [CRACUnit("crac-0"), CRACUnit("crac-1")]
    room = MachineRoom(env, zones, cracs,
                       conductance_w_per_k=[[4000.0, 200.0],
                                            [200.0, 4000.0]])
    fleet = VectorFleet(env, 10)
    servers = [VectorServer(fleet, env, f"dc-r{r}-s{s}", zone=f"zone-{r}",
                            initial_state=ServerState.ACTIVE)
               for r in range(2) for s in range(5)]
    for r in range(2):
        fleet.make_aggregate(servers[5 * r:5 * r + 5], "rack")
    farm = ServerFarm(env, servers, demand_fn=lambda t: 0.0)
    policy = DegradedOpsPolicy(recovery_hold_s=600.0, drain_margin_c=3.0,
                               **policy_kwargs)
    manager = MacroResourceManager(farm, power_budget_w=BUDGET_W,
                                   room=room, degraded_policy=policy)
    return manager, room, farm


def healthy_status(now, capacity_w=BUDGET_W, on_battery=False,
                   incidents=(), impaired=()):
    return FacilityStatus(time_s=now,
                          active_incidents=tuple(incidents),
                          power_capacity_w=capacity_w,
                          on_battery=on_battery,
                          impaired_zones=frozenset(impaired),
                          failed_servers=0)


def modes(manager):
    return [(f, t) for _, f, t, _ in manager.mode_transitions]


# ----------------------------------------------------------------------
# Enter edge: the drain-margin threshold is inclusive
# ----------------------------------------------------------------------
def test_thermal_entry_at_exact_drain_margin():
    env = Environment()
    manager, room, farm = make_manager(env)
    zone = room.zones[0]
    threshold = zone.alarm_temp_c - manager.degraded_policy.drain_margin_c

    # An epsilon below the threshold: not endangered, mode holds.
    zone.temp_c = threshold - 1e-9
    manager._apply_degradation(healthy_status(0.0))
    assert manager.mode == "normal" and not manager.mode_transitions

    # Exactly at the threshold: endangered (>= is inclusive) — the
    # zone is quarantined and its ACTIVE servers drained in one cycle.
    zone.temp_c = threshold
    incidents, drained = manager._apply_degradation(healthy_status(0.0))
    assert manager.mode == "degraded"
    assert incidents == 0 and drained == 5
    assert manager.mode_transitions[-1][3] == "thermal:zone-0"
    assert farm.quarantined_zones == {"zone-0"}
    assert all(s.state is ServerState.OFF for s in farm.servers[:5])
    assert all(s.state is ServerState.ACTIVE for s in farm.servers[5:])
    assert farm.admission_fraction \
        == manager.degraded_policy.admission_fraction


# ----------------------------------------------------------------------
# Exit edge: the recovery hold is inclusive
# ----------------------------------------------------------------------
def test_recovery_exit_at_exact_hold():
    env = Environment()
    manager, room, farm = make_manager(env)
    manager._apply_degradation(healthy_status(0.0, on_battery=True))
    assert manager.mode == "degraded"
    # Battery ride-through tightens the cap budget.
    policy = manager.degraded_policy
    assert manager.capper.budget_w == BUDGET_W \
        * policy.battery_cap_fraction * policy.cap_margin

    # Healthy again: the hold clock starts at the first clean cycle.
    env.run(until=100.0)
    manager._apply_degradation(healthy_status(100.0))
    assert manager.mode == "degraded"

    # One tick short of the hold: still degraded.
    env.run(until=100.0 + policy.recovery_hold_s - 1.0)
    manager._apply_degradation(healthy_status(env.now))
    assert manager.mode == "degraded"

    # Exactly at the hold boundary: exit, with everything restored.
    env.run(until=100.0 + policy.recovery_hold_s)
    manager._apply_degradation(healthy_status(env.now))
    assert manager.mode == "normal"
    assert modes(manager) == [("normal", "degraded"),
                              ("degraded", "normal")]
    assert farm.admission_fraction == 1.0
    assert farm.quarantined_zones == set()
    assert manager.capper.budget_w == BUDGET_W


def test_reentry_within_hold_window_resets_the_clock():
    env = Environment()
    manager, room, farm = make_manager(env)
    hold = manager.degraded_policy.recovery_hold_s
    manager._apply_degradation(healthy_status(0.0, on_battery=True))

    env.run(until=100.0)
    manager._apply_degradation(healthy_status(env.now))  # clock @ 100

    # The threat returns inside the window: no second transition (the
    # mode never left degraded), but the hold clock must reset.
    env.run(until=300.0)
    manager._apply_degradation(healthy_status(env.now, on_battery=True))
    assert manager.mode == "degraded"
    assert len(manager.mode_transitions) == 1

    env.run(until=400.0)
    manager._apply_degradation(healthy_status(env.now))  # clock @ 400

    # 100 + hold has long passed; 400 + hold has not.  A manager that
    # failed to reset the clock would exit here.
    env.run(until=400.0 + hold - 1.0)
    manager._apply_degradation(healthy_status(env.now))
    assert manager.mode == "degraded"

    env.run(until=400.0 + hold)
    manager._apply_degradation(healthy_status(env.now))
    assert manager.mode == "normal"


# ----------------------------------------------------------------------
# Overlapping triggers
# ----------------------------------------------------------------------
def test_overlapping_thermal_and_power_triggers():
    env = Environment()
    manager, room, farm = make_manager(env)
    room.zones[1].temp_c = room.zones[1].alarm_temp_c  # past the margin
    derate = IncidentRecord(kind=FaultKind.UPS_DERATE, target=None,
                            start_s=0.0)
    status = healthy_status(0.0, capacity_w=BUDGET_W * 0.6,
                            on_battery=True, incidents=(derate,),
                            impaired=("zone-0",))
    incidents, drained = manager._apply_degradation(status)
    assert manager.mode == "degraded"
    assert incidents == 1 and drained == 5
    reason = manager.mode_transitions[-1][3]
    assert "ups-derate" in reason and "thermal:zone-1" in reason
    # Quarantine is the union of impaired and endangered zones — the
    # whole plant, in this overlap.
    assert farm.quarantined_zones == {"zone-0", "zone-1"}
    policy = manager.degraded_policy
    assert manager.capper.budget_w == BUDGET_W * 0.6 \
        * policy.battery_cap_fraction * policy.cap_margin

    # Power recovers but the zone stays hot: still degraded, and the
    # hold clock must not start while any threat is live.
    env.run(until=1000.0)
    manager._apply_degradation(healthy_status(env.now))
    assert manager.mode == "degraded"
    assert manager._clear_since is None

    # Zone cools: now the clock starts; the hold runs from here.
    room.zones[1].temp_c = 24.0
    env.run(until=2000.0)
    manager._apply_degradation(healthy_status(env.now))
    assert manager._clear_since == 2000.0
    env.run(until=2000.0 + policy.recovery_hold_s)
    manager._apply_degradation(healthy_status(env.now))
    assert manager.mode == "normal"


# ----------------------------------------------------------------------
# Watchdog quorum trigger
# ----------------------------------------------------------------------
class _StubPlane:
    """Just enough control plane for the threat calculus."""

    perfect = False

    def __init__(self, suspects):
        self.suspects = suspects

    def suspect_count(self):
        return self.suspects

    def zone_temp(self, zone):
        return zone.temp_c

    def cap_actuator(self, load, watts):  # pragma: no cover
        if watts is None:
            return load.remove_cap()
        return load.apply_cap(watts)


def test_watchdog_quorum_gates_the_suspicion_threat():
    env = Environment()
    manager, room, farm = make_manager(env, watchdog_quorum=2)
    plane = _StubPlane(suspects=1)
    manager.control_plane = plane

    # One suspect is below the quorum of two: no threat.
    manager._apply_degradation(healthy_status(0.0))
    assert manager.mode == "normal"

    plane.suspects = 2
    manager._apply_degradation(healthy_status(0.0))
    assert manager.mode == "degraded"
    assert manager.mode_transitions[-1][3] == "watchdog:2"

    # Suspicion clears: hold, then recover.
    plane.suspects = 0
    env.run(until=50.0)
    manager._apply_degradation(healthy_status(env.now))
    env.run(until=50.0 + manager.degraded_policy.recovery_hold_s)
    manager._apply_degradation(healthy_status(env.now))
    assert manager.mode == "normal"
