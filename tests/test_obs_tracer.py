"""Unit tests for the flight recorder's tracer and audit trail."""

import pytest

from repro.obs import AuditTrail, Observation, Tracer
from repro.obs.report import format_causal_chain
from repro.sim import Environment


def bound_tracer(**kwargs):
    env = Environment()
    tracer = Tracer(**kwargs).bind(env)
    return env, tracer


class TestTracer:
    def test_bind_installs_on_environment(self):
        env, tracer = bound_tracer()
        assert env.tracer is tracer
        assert tracer.now == env.now == 0.0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_span_records_sim_time_interval(self):
        env, tracer = bound_tracer()

        def proc():
            with tracer.span("work", "test", size=3):
                yield env.timeout(10.0)

        env.process(proc())
        env.run()
        (span,) = tracer.find_spans("work")
        assert span.start_s == 0.0
        assert span.end_s == 10.0
        assert span.duration_s == 10.0
        assert span.category == "test"
        assert span.attrs == {"size": 3}

    def test_nested_spans_carry_parent_causality(self):
        _, tracer = bound_tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert tracer.current_span is inner
            assert tracer.current_span is outer
        assert inner.parent_sid == outer.sid
        assert outer.parent_sid is None
        assert tracer.span_children(outer.sid) == [inner]
        # Children close before parents, so the ring is inner-first.
        assert [s.name for s in tracer.spans] == ["inner", "outer"]

    def test_events_attach_to_innermost_open_span(self):
        _, tracer = bound_tracer()
        orphan = tracer.event("outside")
        with tracer.span("cycle") as span:
            inside = tracer.event("actuate", "actuation", n=1)
        assert orphan.span_sid is None
        assert inside.span_sid == span.sid
        assert tracer.events_in_span(span.sid) == [inside]
        assert inside.attrs == {"n": 1}

    def test_rings_evict_oldest_and_count_drops(self):
        _, tracer = bound_tracer(capacity=3)
        for i in range(5):
            tracer.event(f"e{i}")
        assert [e.name for e in tracer.events] == ["e2", "e3", "e4"]
        assert tracer.events_dropped == 2
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert [s.name for s in tracer.spans] == ["s2", "s3", "s4"]
        assert tracer.spans_dropped == 2

    def test_counters_and_timers_accumulate(self):
        _, tracer = bound_tracer()
        tracer.count("hits")
        tracer.count("hits", 4)
        with tracer.timer("bucket"):
            pass
        with tracer.timer("bucket"):
            pass
        assert tracer.counters["hits"] == 5
        assert tracer.wall_s["bucket"] >= 0.0
        summary = tracer.summary()
        assert summary["counters"]["hits"] == 5
        assert "bucket" in summary["wall_s"]

    def test_sinks_receive_every_event(self):
        _, tracer = bound_tracer()
        seen = []
        tracer.sinks.append(seen.append)
        record = tracer.event("ping", "control")
        assert seen == [record]

    def test_kernel_counts_event_mix_when_traced(self):
        env, tracer = bound_tracer()

        def ticker():
            for _ in range(10):
                yield env.timeout(1.0)

        env.process(ticker())
        env.run(until=20.0)
        assert tracer.counters["kernel.timeout_fast"] == 10
        assert tracer.counters["kernel.processes_completed"] == 1
        (span,) = tracer.find_spans("kernel.run")
        assert span.category == "kernel"
        assert tracer.wall_s["kernel"] > 0.0

    def test_kernel_traced_event_sentinel_form(self):
        env, tracer = bound_tracer()

        def worker():
            yield env.timeout(5.0)
            return 42

        proc = env.process(worker())
        assert env.run(until=proc) == 42
        assert env.now == 5.0
        assert tracer.counters["kernel.dispatched"] >= 1

    def test_kernel_counts_failed_processes_when_traced(self):
        env, tracer = bound_tracer()

        def crasher():
            yield env.timeout(1.0)
            raise KeyError("boom")

        env.process(crasher())
        # Nobody waits on the crashed process, so run() re-raises; the
        # counts and the span still land on the way out.
        with pytest.raises(KeyError):
            env.run()
        assert tracer.counters["kernel.processes_failed"] == 1
        assert tracer.counters["kernel.timeout_fast"] == 1
        assert tracer.current_span is None
        assert len(tracer.find_spans("kernel.run")) == 1

    def test_kernel_rejects_a_past_horizon_before_opening_a_span(self):
        env, tracer = bound_tracer()
        env.run(until=5.0)
        with pytest.raises(ValueError):
            env.run(until=1.0)
        assert tracer.current_span is None
        assert len(tracer.find_spans("kernel.run")) == 1
        assert env.now == 5.0

    def test_kernel_traced_matches_untraced_schedule(self):
        def build(tracer):
            env = Environment()
            if tracer is not None:
                tracer.bind(env)
            log = []

            def a():
                while env.now < 50.0:
                    log.append(("a", env.now))
                    yield env.timeout(3.0)

            def b():
                while env.now < 50.0:
                    log.append(("b", env.now))
                    yield env.timeout(7.0)

            env.process(a())
            env.process(b())
            env.run(until=60.0)
            return log

        assert build(None) == build(Tracer())


class TestAuditTrail:
    def test_capacity_must_be_positive(self):
        _, tracer = bound_tracer()
        with pytest.raises(ValueError):
            AuditTrail(tracer, capacity=0)

    def test_decision_lifecycle_links_actuations(self):
        _, tracer = bound_tracer()
        trail = AuditTrail(tracer)
        record = trail.begin(100.0)
        assert tracer.decision_id == record.decision_id == 1
        trail.observe("farm.demand", 42.0, measured_s=70.0, age_s=30.0,
                      source="telemetry")
        trail.context(mode="degraded", active_incidents=1,
                      fault_domains=["crac"], watchdog_suspects=2)
        tracer.event("onoff.activate", "actuation", server="s1")
        tracer.event("bus.submit", "control", key="k")  # not an actuation
        committed = trail.commit(target_fleet=5)
        assert committed is record
        assert tracer.decision_id is None
        assert record.actuation_kinds() == {"onoff.activate"}
        assert record.observations == [Observation(
            "farm.demand", 42.0, 70.0, 30.0, "telemetry")]
        assert record.mode == "degraded"
        assert record.fault_domains == ["crac"]
        assert record.outputs == {"target_fleet": 5}
        assert trail.decisions_with("onoff.activate") == [record]
        assert trail.decisions_with("cap.tighten") == []
        assert trail.actuation_totals() == {"onoff.activate": 1}

    def test_events_outside_open_cycle_are_ignored(self):
        _, tracer = bound_tracer()
        trail = AuditTrail(tracer)
        tracer.event("cap.tighten", "actuation")
        assert len(trail.records) == 0
        trail.begin(0.0)
        trail.commit()
        (record,) = trail.records
        assert record.actuations == []

    def test_observation_category_events_become_observations(self):
        _, tracer = bound_tracer()
        trail = AuditTrail(tracer)
        trail.begin(10.0)
        tracer.event("sample", "observation", channel="zone.temp",
                     value=31.5, measured_s=4.0, age_s=6.0,
                     source="telemetry")
        record = trail.commit()
        assert record.observations == [Observation(
            "zone.temp", 31.5, 4.0, 6.0, "telemetry")]

    def test_to_dict_is_json_shaped(self):
        import json

        _, tracer = bound_tracer()
        trail = AuditTrail(tracer)
        trail.begin(1.0)
        trail.observe("x", object(), measured_s=0.0, age_s=1.0)
        tracer.event("cap.tighten", "actuation", demand_w=9.0)
        trail.commit(capped=True)
        payload = json.loads(json.dumps(trail.to_dict()))
        (decision,) = payload["decisions"]
        assert decision["actuations"][0]["name"] == "cap.tighten"
        assert isinstance(decision["observations"][0]["value"], str)
        assert payload["actuation_totals"] == {"cap.tighten": 1}

    def test_ring_drops_oldest_decisions(self):
        _, tracer = bound_tracer()
        trail = AuditTrail(tracer, capacity=2)
        for i in range(4):
            trail.begin(float(i))
            trail.commit()
        assert [r.time_s for r in trail.records] == [2.0, 3.0]
        assert trail.records_dropped == 2


def test_format_causal_chain_without_audit_lists_spans():
    _, tracer = bound_tracer()
    with tracer.span("coordinator.decide", "control"):
        tracer.event("dvfs.set", "actuation", index=2)
    text = format_causal_chain(tracer, audit=None)
    assert "coordinator.decide" in text
    assert "dvfs.set" in text


def test_format_causal_chain_renders_decisions():
    _, tracer = bound_tracer()
    trail = AuditTrail(tracer)
    trail.begin(60.0)
    trail.observe("farm.demand", 12.5, measured_s=30.0, age_s=30.0,
                  source="telemetry")
    tracer.event("onoff.activate", "actuation", server="s0")
    trail.commit(target_fleet=3)
    trail.begin(120.0)  # quiet cycle, skipped by default
    trail.commit()
    text = format_causal_chain(tracer, trail)
    assert "decision #1" in text
    assert "decision #2" not in text
    assert "farm.demand=12.5" in text
    assert "onoff.activate" in text
    assert "target_fleet=3" in text
