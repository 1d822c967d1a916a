"""Harness tests: ``pytest bench/tests`` (tier-1 does not collect them)."""

import json
import shutil
import subprocess
import sys
import time
import types

import pytest

import compare
import layers
import run
from workloads import WORKLOADS


def _metrics(kind):
    return [m["name"] for m in run.benchmark_spec()[kind]]


def test_quick_sizing_runs_every_workload_correctly_in_30s():
    start = time.perf_counter()
    for name in WORKLOADS:
        report = run.run_workload(name, 0, 0.0, quick=True)
        assert report["failures"] == [], name
        assert report["attempted"] > 0
        for metric in _metrics("end_to_end"):
            assert report["values"][metric] > 0, (name, metric)
    assert time.perf_counter() - start < 30.0


def test_traced_pass_reports_only_listed_layer_metrics():
    report = run.run_workload("federated-outage-1d", 1, 0.0, trace=True,
                              quick=True)
    assert report["failures"] == []
    assert set(report["values"]) <= set(_metrics("per_layer"))
    assert report["values"]["federation.calls"] == 12
    assert report["values"]["unattributed_s"] >= 0.0


def test_perturbed_reference_counts_as_failed():
    reference = dict(run.load_reference("federated-outage-1d", True))
    reference["facility_kwh"] *= 1.0 + 1e-6
    report = run.run_workload("federated-outage-1d", 0, 0.0, quick=True,
                              reference=reference)
    line = run.result_line(report, [])
    assert line["failed"] / line["attempted"] > 0
    assert not line["correct"]
    assert any(f.startswith("facility_kwh") for f in report["failures"])


def test_self_time_on_a_synthetic_call_tree():
    sim, control, cluster = (layers.LAYERS.index(n)
                             for n in ("sim", "control", "cluster"))
    spans = [
        (sim, -1, 0.0, 10.0),
        (control, 0, 1.0, 5.0),
        (cluster, 1, 2.0, 4.0),
        (control, 0, 6.0, 7.0),
        (control, 3, 6.25, 6.5),   # re-entrant: one call, no double time
    ]
    out = layers.layer_metrics(spans, wall_s=12.0)
    assert out["sim.self_s"] == 5.0
    assert out["control.self_s"] == 3.0
    assert out["cluster.self_s"] == 2.0
    assert (out["sim.calls"], out["control.calls"],
            out["cluster.calls"]) == (1, 2, 1)
    assert out["unattributed_s"] == 2.0
    assert out["control.share"] == 0.25


def test_recorder_wraps_nested_calls_and_restores(monkeypatch):
    class Outer:
        def run(self, inner):
            return inner.step() + 1

    class Inner:
        def step(self):
            return 1

    toy = types.ModuleType("toy_layers")
    toy.Outer, toy.Inner = Outer, Inner
    monkeypatch.setitem(sys.modules, "toy_layers", toy)
    monkeypatch.setattr(layers, "BOUNDARIES", (
        ("sim", "toy_layers", "Outer", "run"),
        ("control", "toy_layers", "Inner", "step"),
        ("cooling", "toy_layers", "Missing", "step_once"),
    ))
    ticks = iter(range(100))
    original = Outer.run
    recorder = layers.SpanRecorder(clock=lambda: next(ticks))
    recorder.install()
    try:
        assert Outer().run(Inner()) == 2       # off: not recorded
        recorder.on = True
        assert Outer().run(Inner()) == 2
    finally:
        recorder.uninstall()
    assert Outer.run is original and "step" in Inner.__dict__
    assert recorder.absent == ["toy_layers.Missing.step_once"]
    sim, control = layers.LAYERS.index("sim"), layers.LAYERS.index("control")
    assert recorder.spans == [(sim, -1, 0, 3), (control, 0, 1, 2)]
    out = layers.layer_metrics(recorder.spans, wall_s=3.0)
    assert out["sim.self_s"] == 2 and out["control.self_s"] == 1


@pytest.mark.parametrize("a, b, better, expect", [
    ([10, 10.2, 9.9], [12, 12.1, 11.9], "higher", "improved"),
    ([10, 10.2, 9.9], [8, 8.1, 7.9], "higher", "regressed"),
    ([10, 10.2, 9.9], [9.8, 10.1, 10.0], "higher", "unchanged"),
    ([10, 13, 9], [9.5, 12.5, 10.5], "lower", "unresolved"),
])
def test_compare_verdicts(a, b, better, expect):
    assert compare.verdict(a, b, better, 0.1)[0] == expect


def test_setup_floor_absorbs_millisecond_noise():
    assert compare.verdict([0.010, 0.011], [0.020, 0.021], "lower", 0.25,
                           floor=compare.SETUP_FLOOR_S)[0] == "unchanged"


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fleet-diurnal-5k",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
