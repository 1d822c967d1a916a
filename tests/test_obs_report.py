"""RunReport assembly, the trace/report CLI verbs, decision-id
stamping on the actuation bus, and the CI gate scripts."""

import importlib.util
import json
import pathlib

import pytest

from repro.cli import main
from repro.cluster import Server
from repro.controlplane import ControlPlaneProfile
from repro.controlplane.actuation import (
    ActuationBus,
    ActuationProfile,
    CommandKind,
)
from repro.datacenter import CoSimulation, DataCenterSpec
from repro.obs import Tracer, build_run_report
from repro.sim import Environment, RandomStreams
from repro.workload import DiurnalProfile

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_script(name):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "benchmarks" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def flight_run():
    """One traced morning with capping and fleet moves engaged."""
    spec = DataCenterSpec(racks=4, servers_per_rack=10, zones=2,
                          cracs=2)
    peak = spec.total_servers * spec.server_capacity * 0.7
    diurnal = DiurnalProfile()
    tracer = Tracer()
    sim = CoSimulation(spec, lambda t: peak * diurnal(t),
                       control_plane=ControlPlaneProfile.hardened(),
                       power_budget_w=8_000.0,
                       streams=RandomStreams(11),
                       tracer=tracer)
    result = sim.run(4 * 3_600.0)
    return sim, result, tracer


class TestRunReport:
    def test_audit_links_capping_and_onoff_to_observations(
            self, flight_run):
        sim, result, _ = flight_run
        report = build_run_report(sim, result)
        assert report.linked("cap.tighten")
        assert (report.linked("onoff.activate")
                or report.linked("onoff.deactivate"))
        for decision in report.decisions_with("cap.tighten"):
            channels = {o["channel"] for o in decision["observations"]}
            assert "farm.demand" in channels

    def test_report_is_json_round_trippable(self, flight_run, tmp_path):
        sim, result, _ = flight_run
        report = build_run_report(sim, result, meta={"k": "v"})
        payload = json.loads(report.to_json())
        assert payload["meta"] == {"k": "v"}
        assert set(payload) == {"meta", "metrics", "recorder", "audit",
                                "commands"}
        assert payload["metrics"]["controlplane"]["commands_issued"] > 0
        out = tmp_path / "report.json"
        report.write(out)
        assert json.loads(out.read_text()) == payload

    def test_every_command_is_stamped_with_its_decision(
            self, flight_run):
        sim, result, _ = flight_run
        report = build_run_report(sim, result)
        assert report.commands
        decision_ids = {d["decision_id"]
                        for d in report.audit["decisions"]}
        for command in report.commands:
            assert command["decision_id"] in decision_ids

    def test_recorder_section_has_profile_counters(self, flight_run):
        sim, result, tracer = flight_run
        report = build_run_report(sim, result)
        counters = report.recorder["counters"]
        assert counters["kernel.timeout_fast"] > 0
        assert "kernel" in report.recorder["wall_s"]
        assert "macro" in report.recorder["wall_s"]
        assert tracer.find_spans("coordinator.decide")


class TestDecisionStamping:
    def make_bus(self):
        env = Environment()
        tracer = Tracer().bind(env)
        server = Server(env, "s0", capacity=100.0)
        server.power_on()
        env.run(until=500.0)
        profile = ActuationProfile(loss_probability=0.2, latency_s=1.0,
                                   ack_timeout_s=10.0, max_retries=3)
        bus = ActuationBus(env, [server], profile=profile,
                           streams=RandomStreams(3))
        return env, tracer, server, bus

    def test_controller_command_takes_open_decision_id(self):
        env, tracer, server, bus = self.make_bus()
        tracer.decision_id = 7
        record = bus.submit(server, CommandKind.SLEEP)
        assert record.decision_id == 7

    def test_reconciler_reissue_inherits_originating_decision(self):
        env, tracer, server, bus = self.make_bus()
        tracer.decision_id = 7
        first = bus.submit(server, CommandKind.SLEEP)
        env.run(until=env.now + 200.0)
        tracer.decision_id = None  # reconciler runs between decisions
        reissue = bus.submit(server, CommandKind.SLEEP,
                             origin="reconciler")
        assert reissue is not first
        assert reissue.origin == "reconciler"
        assert reissue.decision_id == 7

    def test_command_without_open_decision_is_unstamped(self):
        env, tracer, server, bus = self.make_bus()
        record = bus.submit(server, CommandKind.SET_PSTATE, value=1)
        assert record.decision_id is None


class TestCLI:
    def test_report_verb_meets_acceptance(self, tmp_path):
        out = tmp_path / "runreport.json"
        assert main(["report", "--hours", "4", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())

        def linked(actuation):
            return any(
                d["observations"]
                and any(a["name"] == actuation for a in d["actuations"])
                for d in payload["audit"]["decisions"])

        assert linked("cap.tighten")
        assert linked("onoff.activate") or linked("onoff.deactivate")
        assert payload["commands"]
        assert all(c["decision_id"] is not None
                   for c in payload["commands"])

    def test_report_verb_prints_json_without_out(self, capsys):
        assert main(["report", "--hours", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["audit"]["decisions"]

    def test_trace_verb_prints_causal_chain(self, capsys):
        assert main(["trace", "--hours", "2",
                     "--max-decisions", "4"]) == 0
        out = capsys.readouterr().out
        assert "counters:" in out
        assert "decision #" in out
        assert "observed farm.demand" in out

    def test_bench_json_row_matches_perf_schema(self, tmp_path):
        out = tmp_path / "perf.json"
        assert main(["bench", "--servers", "100", "--hours", "1",
                     "--json", str(out)]) == 0
        (row,) = json.loads(out.read_text())
        assert row["name"] == "PERF: 100-server day"
        assert row["mean_s"] > 0
        assert row["metrics"]["servers"] == 100


class TestCheckPerfRegression:
    def write(self, path, rows):
        path.write_text(json.dumps(rows))
        return path

    def rows(self, **names):
        return [{"name": k, "metrics": {}, "mean_s": v}
                for k, v in names.items()]

    def test_missing_baseline_row_is_distinct_error(self, tmp_path,
                                                    capsys):
        script = load_script("check_perf_regression")
        base = self.write(tmp_path / "base.json",
                          self.rows(**{"PERF: a": 1.0, "PERF: b": 2.0}))
        cur = self.write(tmp_path / "cur.json",
                         self.rows(**{"PERF: a": 1.0}))
        code = script.main(["--baseline", str(base),
                            "--current", str(cur)])
        assert code == script.EXIT_MISSING_ROW == 2
        assert "MISS" in capsys.readouterr().out

    def test_allow_missing_downgrades_to_warning(self, tmp_path):
        script = load_script("check_perf_regression")
        base = self.write(tmp_path / "base.json",
                          self.rows(**{"PERF: a": 1.0, "PERF: b": 2.0}))
        cur = self.write(tmp_path / "cur.json",
                         self.rows(**{"PERF: a": 1.0}))
        assert script.main(["--baseline", str(base),
                            "--current", str(cur),
                            "--allow-missing"]) == 0

    def test_regression_still_exits_one(self, tmp_path):
        script = load_script("check_perf_regression")
        base = self.write(tmp_path / "base.json",
                          self.rows(**{"PERF: a": 1.0}))
        cur = self.write(tmp_path / "cur.json",
                         self.rows(**{"PERF: a": 2.0}))
        assert script.main(["--baseline", str(base),
                            "--current", str(cur)]) == 1

    def test_rows_filter_gates_named_rows_only(self, tmp_path):
        script = load_script("check_perf_regression")
        base = self.write(tmp_path / "base.json",
                          self.rows(**{"PERF: a": 1.0, "PERF: b": 2.0}))
        cur = self.write(tmp_path / "cur.json",
                         self.rows(**{"PERF: a": 1.0}))
        # Row b is missing, but only row a is gated.
        assert script.main(["--baseline", str(base),
                            "--current", str(cur),
                            "--rows", "PERF: a"]) == 0

    def test_skip_rows_excludes_named_row_from_gate(self, tmp_path):
        script = load_script("check_perf_regression")
        base = self.write(tmp_path / "base.json",
                          self.rows(**{"PERF: a": 1.0, "PERF: b": 2.0}))
        cur = self.write(tmp_path / "cur.json",
                         self.rows(**{"PERF: a": 1.0}))
        # Row b (nightly-only) is skipped, so its absence passes …
        assert script.main(["--baseline", str(base),
                            "--current", str(cur),
                            "--skip-rows", "PERF: b"]) == 0
        # … but a row dropped from an un-skipped gate still fails.
        short = self.write(tmp_path / "short.json", self.rows())
        assert script.main(["--baseline", str(base),
                            "--current", str(short),
                            "--skip-rows", "PERF: b"]) == 2

    HOST_A = {"cpu_count": 2, "machine": "x86_64", "python": "3.11.7",
              "numpy": "2.4.6"}
    HOST_B = {"cpu_count": 16, "machine": "x86_64", "python": "3.12.1",
              "numpy": "2.4.6"}

    def hosted(self, host, **names):
        return [dict(row, host=host) for row in self.rows(**names)]

    def test_prints_both_hosts_and_names_a_host_change(self, tmp_path,
                                                       capsys):
        script = load_script("check_perf_regression")
        base = self.write(tmp_path / "base.json",
                          self.hosted(self.HOST_B, **{"PERF: a": 1.0}))
        cur = self.write(tmp_path / "cur.json",
                         self.hosted(self.HOST_A, **{"PERF: a": 2.0}))
        assert script.main(["--baseline", str(base),
                            "--current", str(cur)]) == 1
        out = capsys.readouterr().out
        assert "baseline host: 16 CPUs x86_64, Python 3.12.1" in out
        assert "current host:  2 CPUs x86_64, Python 3.11.7" in out
        assert "compare hosts as well as code" in out

    def test_same_host_failure_does_not_blame_the_host(self, tmp_path,
                                                       capsys):
        script = load_script("check_perf_regression")
        base = self.write(tmp_path / "base.json",
                          self.hosted(self.HOST_A, **{"PERF: a": 1.0}))
        cur = self.write(tmp_path / "cur.json",
                         self.hosted(self.HOST_A, **{"PERF: a": 2.0}))
        assert script.main(["--baseline", str(base),
                            "--current", str(cur)]) == 1
        assert "compare hosts" not in capsys.readouterr().out

    def test_unrecorded_baseline_host_is_named(self, tmp_path, capsys):
        script = load_script("check_perf_regression")
        base = self.write(tmp_path / "base.json",
                          self.rows(**{"PERF: a": 1.0}))
        cur = self.write(tmp_path / "cur.json",
                         self.hosted(self.HOST_A, **{"PERF: a": 2.0}))
        assert script.main(["--baseline", str(base),
                            "--current", str(cur)]) == 1
        out = capsys.readouterr().out
        assert "baseline host: unrecorded" in out
        assert "compare hosts as well as code" in out

    def test_benchmark_session_stamps_perf_rows_with_the_host(
            self, tmp_path, monkeypatch):
        conftest = load_script("conftest")
        monkeypatch.setattr(conftest, "_PERF_PATH", tmp_path / "perf.json")
        monkeypatch.delenv("GOLDEN_TABLES_PATH", raising=False)
        bench = type("Bench", (), {"extra_info": {}, "stats": None})()
        conftest.record(bench, "PERF: a", [])
        conftest.record(bench, "EXP-X: thing", ["row"])
        conftest.pytest_sessionfinish(None, 0)
        rows = {r["name"]: r
                for r in json.loads((tmp_path / "perf.json").read_text())}
        assert rows["PERF: a"]["host"] == conftest.host_record()
        assert set(conftest.host_record()) == {"cpu_count", "machine",
                                               "python", "numpy"}
        assert "host" not in rows["EXP-X: thing"]

    def test_skip_rows_rejects_unknown_name(self, tmp_path):
        script = load_script("check_perf_regression")
        base = self.write(tmp_path / "base.json",
                          self.rows(**{"PERF: a": 1.0}))
        cur = self.write(tmp_path / "cur.json",
                         self.rows(**{"PERF: a": 1.0}))
        with pytest.raises(SystemExit):
            script.main(["--baseline", str(base),
                         "--current", str(cur),
                         "--skip-rows", "PERF: nope"])


class TestCheckGoldenTables:
    BLOCK = "=== EXP-X: thing ===\nrow one\nrow two\n"

    def test_identical_files_pass(self, tmp_path):
        script = load_script("check_golden_tables")
        golden = tmp_path / "golden.txt"
        current = tmp_path / "current.txt"
        golden.write_text(self.BLOCK)
        current.write_text(self.BLOCK)
        assert script.main(["--golden", str(golden),
                            "--current", str(current),
                            "--min-blocks", "1"]) == 0

    def test_any_byte_difference_fails_with_diff(self, tmp_path,
                                                 capsys):
        script = load_script("check_golden_tables")
        golden = tmp_path / "golden.txt"
        current = tmp_path / "current.txt"
        golden.write_text(self.BLOCK)
        current.write_text(self.BLOCK.replace("row one", "row 0ne"))
        assert script.main(["--golden", str(golden),
                            "--current", str(current),
                            "--min-blocks", "1"]) == 1
        out = capsys.readouterr().out
        assert "-row one" in out and "+row 0ne" in out

    def test_too_few_blocks_breaks_the_gate(self, tmp_path):
        script = load_script("check_golden_tables")
        golden = tmp_path / "golden.txt"
        current = tmp_path / "current.txt"
        golden.write_text(self.BLOCK)
        current.write_text(self.BLOCK)
        assert script.main(["--golden", str(golden),
                            "--current", str(current),
                            "--min-blocks", "5"]) == 2

    def test_missing_file_breaks_the_gate(self, tmp_path):
        script = load_script("check_golden_tables")
        golden = tmp_path / "golden.txt"
        golden.write_text(self.BLOCK)
        assert script.main(["--golden", str(golden),
                            "--current", str(tmp_path / "nope.txt")]) == 2

    def test_committed_golden_file_has_all_blocks(self):
        script = load_script("check_golden_tables")
        golden = ROOT / "benchmarks" / "GOLDEN_TABLES.txt"
        assert golden.exists(), "golden tables not committed"
        assert script.count_blocks(golden.read_text()) >= 25
