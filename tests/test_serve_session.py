"""SimSession: quantized mutations, pure telemetry, bit-identity.

The determinism contract under test: the daemon and the in-process
golden replay drive the *same* SimSession stepping loop, mutations
land at quantized tick boundaries in ``(at_s, seq)`` order, and
telemetry reads are observer-effect-free — so a watched, chunked,
served run fingerprints identically to one straight run.
"""

import collections
import gc
import hashlib
import math
import weakref

import pytest

from repro.serve.protocol import (
    InjectFault,
    ProtocolError,
    SetCap,
    SetDemand,
    SwapPolicy,
    result_fingerprint,
)
from repro.serve.loadgen import session_script
from repro.serve.session import MutableDemand, ServeScenario, SimSession

SMALL = ServeScenario(racks=2, servers_per_rack=5, zones=2, cracs=1,
                      seed=3)


# ----------------------------------------------------------------------
# MutableDemand
# ----------------------------------------------------------------------
def test_mutable_demand_step_semantics():
    demand = MutableDemand(10.0)
    assert demand(0.0) == 10.0
    demand.set(100.0, 25.0)
    assert demand(99.9) == 10.0
    assert demand(100.0) == 25.0
    assert demand(1e9) == 25.0


def test_mutable_demand_out_of_order_insert():
    demand = MutableDemand(1.0)
    demand.set(200.0, 3.0)
    demand.set(100.0, 2.0)  # scripted schedules arrive unsorted
    assert demand(150.0) == 2.0
    assert demand(250.0) == 3.0


def test_mutable_demand_rejects_negative_and_adds_base():
    demand = MutableDemand(5.0, base_fn=lambda t: 0.5 * t)
    assert demand(10.0) == 5.0 + 5.0
    with pytest.raises(ValueError):
        demand.set(0.0, -1.0)


# ----------------------------------------------------------------------
# ServeScenario
# ----------------------------------------------------------------------
def test_scenario_round_trips_through_dict():
    assert ServeScenario.from_dict(SMALL.to_dict()) == SMALL


def test_scenario_rejects_unknown_fields():
    payload = SMALL.to_dict() | {"gpu_racks": 3}
    with pytest.raises(ProtocolError) as exc:
        ServeScenario.from_dict(payload)
    assert exc.value.code == "bad-scenario"


def test_scenario_validates_shape():
    with pytest.raises(ValueError):
        ServeScenario(tick_s=0.0)
    with pytest.raises(ValueError):
        ServeScenario(initial_work_fraction=1.5)


def test_torn_down_sessions_free_their_plants():
    """A finished session's co-simulation is freed by the cycle
    collector, so a long-lived daemon does not grow per session."""
    refs = []
    for seed in range(3):
        session = SimSession(ServeScenario(
            racks=2, servers_per_rack=5, zones=2, cracs=1, seed=seed))
        session.submit(SetDemand(at_s=60.0, work=120.0))
        session.advance(5)
        session.result()
        refs.append(weakref.ref(session.sim))
        del session
    gc.collect()
    assert [r() for r in refs] == [None, None, None]


# ----------------------------------------------------------------------
# Mutation quantization + validation
# ----------------------------------------------------------------------
def test_future_mutation_quantizes_to_next_tick_boundary():
    session = SimSession(SMALL)
    seq, applied_at, decision = session.submit(
        SetDemand(at_s=90.0, work=1.0))
    # tick_s=60: first boundary ≥ 90 s is 120 s after session start.
    assert applied_at == session.start_s + 120.0
    assert decision is None  # minted when it lands
    assert seq == 1


def test_immediate_mutation_applies_with_decision_id():
    session = SimSession(SMALL)
    seq, applied_at, decision = session.submit(
        SetDemand(at_s=0.0, work=2.0))
    assert applied_at == session.now_s
    assert decision is not None
    assert session.applied[0]["op"] == "set_demand"
    assert session.applied[0]["decision_id"] == decision


def test_pending_mutation_lands_during_advance():
    session = SimSession(SMALL)
    session.submit(SetDemand(at_s=120.0, work=3.0))
    assert session.applied == []
    session.advance(3)
    assert [entry["t_s"] for entry in session.applied] == [120.0]
    assert session.demand(session.now_s) == 3.0


@pytest.mark.parametrize("msg", [
    SetDemand(at_s=0.0, work=-1.0),
    InjectFault(at_s=0.0, kind="sharknado", duration_s=60.0),
    InjectFault(at_s=0.0, kind="ups-derate", duration_s=60.0,
                severity=1.5),
    SetCap(at_s=0.0, budget_w=0.0),
    SwapPolicy(at_s=0.0, forecaster="oracle"),
    SwapPolicy(at_s=0.0, forecaster="ewma", params={"alpha": 7.0}),
])
def test_bad_mutations_rejected_before_ack(msg):
    session = SimSession(SMALL)
    with pytest.raises(ProtocolError) as exc:
        session.submit(msg)
    assert exc.value.code == "bad-mutation"
    assert session.applied == []  # nothing half-applied


@pytest.mark.parametrize("at_s", [-1.0, math.inf, math.nan])
def test_bad_times_rejected(at_s):
    session = SimSession(SMALL)
    with pytest.raises(ProtocolError) as exc:
        session.submit(SetDemand(at_s=at_s, work=1.0))
    assert exc.value.code == "bad-time"


def test_advance_rejects_non_positive_ticks():
    session = SimSession(SMALL)
    with pytest.raises(ProtocolError):
        session.advance(0)


# ----------------------------------------------------------------------
# Mutations actually actuate
# ----------------------------------------------------------------------
def test_set_cap_retargets_the_capper():
    session = SimSession(SMALL)
    session.submit(SetCap(at_s=0.0, budget_w=1_000.0))
    assert session.sim.manager.capper.budget_w == 1_000.0


def test_swap_policy_replaces_the_forecaster():
    session = SimSession(SMALL)
    session.submit(SwapPolicy(at_s=0.0, forecaster="reactive"))
    assert type(session.sim.manager.forecaster).__name__ == \
        "ReactiveForecaster"


def test_inject_fault_raises_an_incident():
    session = SimSession(SMALL)
    session.submit(InjectFault(at_s=60.0, kind="utility-outage",
                               duration_s=300.0))
    session.advance(3)  # now at 180 s, inside the outage window
    health = session.telemetry(["health"])["health"]
    assert health["active_incidents"] >= 1
    injected = session.sim.fault_engine.injected
    assert [i.kind.value for i in injected] == ["utility-outage"]


# ----------------------------------------------------------------------
# Bit-identity: the tentpole contract
# ----------------------------------------------------------------------
SCRIPT = [
    SetDemand(at_s=0.0, work=8.0),
    SetCap(at_s=600.0, budget_w=3_000.0),
    SwapPolicy(at_s=1_200.0, forecaster="ewma",
               params={"alpha": 0.35}),
    InjectFault(at_s=1_800.0, kind="crac-failure", duration_s=900.0,
                target=0),
    SetDemand(at_s=2_400.0, work=4.0),
]


def test_scripted_run_matches_tickwise_replay():
    golden = SimSession(SMALL).run_script(SCRIPT, ticks=90)
    live = SimSession(SMALL)
    for msg in SCRIPT:
        live.submit(msg)
    for _ in range(90):  # the daemon's shape: one tick at a time
        live.advance(1)
    assert result_fingerprint(live.result()) == \
        result_fingerprint(golden)


def test_telemetry_reads_leave_no_observer_effect():
    """Reading every stream on every tick leaves the fingerprint of
    the unwatched golden run."""
    golden = SimSession(SMALL).run_script(SCRIPT, ticks=90)
    watched = SimSession(SMALL)
    for msg in SCRIPT:
        watched.submit(msg)
    for _ in range(90):
        watched.advance(1)
        watched.telemetry()  # every stream, every tick
    assert result_fingerprint(watched.result()) == \
        result_fingerprint(golden)


def test_decision_ids_are_distinct_and_audited():
    session = SimSession(SMALL)
    for msg in SCRIPT:
        session.submit(msg)
    session.advance(90)
    ids = [entry["decision_id"] for entry in session.applied]
    assert len(ids) == len(SCRIPT)
    assert all(d is not None for d in ids)
    assert len(set(ids)) == len(ids)
    external = [r for r in session.sim.manager.audit.records
                if r.outputs.get("origin") == "external"]
    assert {r.decision_id for r in external} == set(ids)


# ----------------------------------------------------------------------
# The served result, pinned across commits
# ----------------------------------------------------------------------
#: sha256 of the pinned day's ``result_fingerprint``.  The served vs
#: replay gates compare two runs of the same code, so they cannot see
#: a drift both share; this digest can.  Change it only with a change
#: that is meant to move served results, and say so.
PINNED_DAY_SHA256 = (
    "03460037600ef43c2b059099812c402064b48bb645bc92e83b93c05ef19c6674")


def run_pinned_day():
    """A 5-rack served day: a 20k-session flash-crowd script, a tight
    ``SetCap``, then a CRAC failure and a utility outage.  Returns the
    session, its result and a count of every tracer event name."""
    scenario = ServeScenario(racks=5)
    script, ticks = session_script(scenario, 20_000, days=1.0)
    script += [
        SetCap(at_s=14 * 3600.0, budget_w=20_000.0),
        InjectFault(at_s=16 * 3600.0, kind="crac-failure",
                    duration_s=3 * 3600.0, target=0),
        InjectFault(at_s=20 * 3600.0, kind="utility-outage",
                    duration_s=1800.0),
    ]
    session = SimSession(scenario)
    names = collections.Counter()
    session.tracer.sinks.append(lambda event: names.update([event.name]))
    return session, session.run_script(script, ticks), names


def test_pinned_served_day_keeps_its_fingerprint():
    session, result, names = run_pinned_day()
    digest = hashlib.sha256(
        result_fingerprint(result).encode()).hexdigest()
    assert digest == PINNED_DAY_SHA256
    # The day exercises every macro lever the digest pins.
    manager = session.sim.manager
    assert any(d.throttled_loads for d in manager.capper.decisions)
    assert manager.drains
    assert names["dvfs.floor"] >= 1
    assert names["onoff.activate"] and names["onoff.deactivate"]
    assert result.resilience.incident_count == 2


# ----------------------------------------------------------------------
# Telemetry content
# ----------------------------------------------------------------------
def test_telemetry_frame_shape():
    session = SimSession(SMALL)
    session.submit(SetDemand(at_s=0.0, work=6.0))
    session.advance(30)
    data = session.telemetry()
    power = data["power"]
    assert power["it_w"] == pytest.approx(
        sum(power["zones_w"].values()))
    assert power["it_w"] > 0
    # Tiny facilities have terrible PUE (CRAC fan floor dominates);
    # just require a physical value: finite and > 1.
    assert data["pue"] > 1.0 and math.isfinite(data["pue"])
    assert 0.0 <= data["served"] <= 1.0
    assert data["health"]["active_servers"] > 0
    assert data["health"]["mode"] == "normal"


def test_telemetry_stream_filter():
    session = SimSession(SMALL)
    session.advance(1)
    assert set(session.telemetry(["pue", "served"])) == \
        {"pue", "served"}


def test_every_tick_reads_keep_the_unread_fingerprint_under_churn():
    """Telemetry integrals go through Monitor.integral, extending its
    prefix cache once per tick; the session must still fingerprint
    like an unread one.  The same frames report the live fleet count,
    which must track the server roster through sleep/wake churn."""
    scenario = ServeScenario(seed=23)
    script, _ = session_script(scenario, sessions=150_000, days=0.25)
    ticks = 360
    golden = SimSession(scenario).run_script(script, ticks)
    watched = SimSession(scenario)
    for msg in script:
        watched.submit(msg)
    seen = set()
    for _ in range(ticks):
        watched.advance(1)
        active = watched.telemetry()["health"]["active_servers"]
        assert type(active) is int
        assert active == len(watched.sim.farm.active_servers())
        seen.add(active)
    assert len(seen) > 1, "the script caused no sleep/wake churn"
    assert result_fingerprint(watched.result()) == \
        result_fingerprint(golden)
