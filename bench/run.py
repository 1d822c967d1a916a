"""Benchmark runner: five co-simulation workloads, end to end and by layer.

One workload::

    python3 bench/run.py --workload fleet-diurnal-5k --seed 0 \\
        --seconds 15 --trace 0

prints each metric by name with its unit and, as its last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` the run makes one untraced and one traced episode
and reports the per-layer ones.

Every episode runs in a fresh process (``--episode``), so no episode
inherits another's heap, caches or garbage-collector state.  A run
replays the same episode at least three times and keeps each tick's
fastest time: the work of a tick is identical in every replay, and
other tenants of a shared host only ever add time to it.

The whole suite::

    python3 bench/run.py --seed 0 --repeat 3 [--json OUT]

runs every workload ``--repeat`` times with tracing off, one run at a
time, then one traced run per workload, and prints every metric's
median and range.  ``bench/compare.py`` compares two ``--json`` files.
``--write-reference`` regenerates the seed-0 outputs the correctness
checks compare against.

The program is imported from ``src/`` next to this directory; no
install or ``PYTHONPATH`` is needed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from multiprocessing import resource_tracker
from pathlib import Path

import numpy as np

from layers import SpanRecorder, layer_metrics
from workloads import RUN_DIR, WORKLOADS, Meter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference.json"
#: Relative tolerance of the seed-0 reference comparison.
REL_TOL = 1e-9
#: Replays per untraced run, whatever ``--seconds`` allows.
MIN_EPISODES = 3
#: Wall-clock limit on one episode process.
EPISODE_TIMEOUT_S = 150.0


def use_repo_source() -> None:
    """Import ``repro`` from this checkout's ``src/`` or raise."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise ImportError(f"repro imported from {repro.__file__}, "
                          f"not from {src}")


def benchmark_spec() -> dict:
    """``BENCHMARK.json``: the workloads, metrics, units and bounds."""
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def load_reference(name: str, quick: bool) -> dict | None:
    with open(REFERENCE) as f:
        return json.load(f)["quick" if quick else "full"].get(name)


def check_outputs(outputs: dict, reference: dict | None
                  ) -> tuple[int, list[str]]:
    """Invariants always; the seed-0 reference when one is given."""
    checks = [
        (0.0 <= outputs["served_fraction"] <= 1.0,
         f"served_fraction {outputs['served_fraction']!r} outside [0, 1]"),
        (outputs["facility_kwh"] >= outputs["it_kwh"],
         "facility energy below IT energy"),
        (outputs["pue"] >= 1.0, f"PUE {outputs['pue']!r} below 1"),
    ]
    for key, want in (reference or {}).items():
        got = outputs.get(key)
        checks.append((got is not None
                       and math.isclose(got, want, rel_tol=REL_TOL),
                       f"{key} = {got!r}, reference {want!r}"))
    return len(checks), [message for ok, message in checks if not ok]


def peak_rss_mb() -> float:
    """Peak resident set of the largest process so far (this one, a
    shard worker or the daemon)."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
               ) / 1024.0


def run_episode(name: str, seed: int, quick: bool = False,
                traced: bool = False) -> dict:
    """Set up once and run one episode; the body of an episode process."""
    workload = WORKLOADS[name](seed, quick)
    recorder = SpanRecorder() if traced else None
    if recorder is not None:
        recorder.install()
    try:
        gc.collect()
        start = time.perf_counter()
        handle = workload.setup()
        setup_s = time.perf_counter() - start
        meter = Meter(recorder)
        episode = workload.episode(handle, meter)
    finally:
        if recorder is not None:
            recorder.uninstall()
        # Shared memory makes multiprocessing start a resource-tracker
        # process; stop it and wait for it, so no process outlives the
        # episode.
        stop_tracker = getattr(resource_tracker._resource_tracker,
                               "_stop", None)
        if stop_tracker is not None:
            stop_tracker()
    layer = dict(episode.layer)
    absent = list(episode.absent)
    if recorder is not None:
        layer.update(layer_metrics(recorder.spans, meter.wall_s))
        absent += recorder.absent
        RUN_DIR.mkdir(exist_ok=True)
        recorder.write_jsonl(RUN_DIR / f"spans-{name}.jsonl",
                             origin=meter.marks[0])
    return {"setup_s": setup_s, "ticks_s": meter.ticks_s.tolist(),
            "wall_s": meter.wall_s, "sim_s": episode.sim_s,
            "peak_rss_mb": peak_rss_mb(), "outputs": episode.outputs,
            "layer": layer, "ops": episode.ops,
            "failures": episode.failures, "absent": absent}


def _child(*args: str, quick: bool, timeout: float | None = None) -> dict:
    """Run ``run.py args`` in a fresh process; its last line, parsed."""
    cmd = [sys.executable, str(BENCH / "run.py"), *args]
    if quick:
        cmd.append("--quick")
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True,
                         timeout=timeout).stdout
    return json.loads(out.strip().splitlines()[-1])


def _spawn_episode(name: str, seed: int, quick: bool,
                   traced: bool) -> dict:
    return _child("--workload", name, "--seed", str(seed), "--episode",
                  "traced" if traced else "plain", quick=quick,
                  timeout=EPISODE_TIMEOUT_S)


def _end_to_end(episodes: list[dict]) -> tuple[dict, list[str]]:
    """Per-tick fastest replay, then the end-to-end metrics."""
    lengths = {len(e["ticks_s"]) for e in episodes}
    failures = [] if len(lengths) == 1 else [
        f"replays disagree on the tick count: {sorted(lengths)}"]
    n = min(lengths)
    ticks = np.min([e["ticks_s"][:n] for e in episodes], axis=0)
    values = {
        "sim_s_per_wall_s": episodes[0]["sim_s"] / float(ticks.sum()),
        "setup_s": statistics.median(e["setup_s"] for e in episodes),
        "peak_rss_mb": statistics.median(e["peak_rss_mb"]
                                         for e in episodes),
        "tick_p50_ms": float(np.percentile(ticks, 50)) * 1e3,
    }
    return values, failures


_FROM_FILE = object()


def run_workload(name: str, seed: int, seconds: float, trace: bool = False,
                 quick: bool = False, reference=_FROM_FILE) -> dict:
    """Run one workload and check it; the report the CLI prints.

    ``reference`` defaults to the committed seed-0 outputs for seed 0
    and to none (invariants only) for any other seed.
    """
    if reference is _FROM_FILE:
        reference = load_reference(name, quick) if seed == 0 else None
    began = time.perf_counter()
    if trace:
        episodes = [_spawn_episode(name, seed, quick, traced)
                    for traced in (False, True)]
    else:
        episodes = []
        while (len(episodes) < MIN_EPISODES
               or (time.perf_counter() - began) * (len(episodes) + 1)
               / len(episodes) <= seconds):
            episodes.append(_spawn_episode(name, seed, quick, False))
    attempted = 0
    failures = []
    for episode in episodes:
        attempted += episode["ops"]
        failures += episode["failures"]
        n, failed = check_outputs(episode["outputs"], reference)
        attempted += n
        failures += failed
    first = json.dumps(episodes[0]["outputs"], sort_keys=True)
    for episode in episodes[1:]:
        attempted += 1
        if json.dumps(episode["outputs"], sort_keys=True) != first:
            failures.append("traced outputs differ from untraced" if trace
                            else "replay outputs differ from the first")
    if trace:
        plain, traced = episodes
        values = dict(traced["layer"])
        values["trace_overhead"] = traced["wall_s"] / plain["wall_s"]
        values["tick_p95_ms"] = float(
            np.percentile(plain["ticks_s"], 95)) * 1e3
    else:
        values, disagree = _end_to_end(episodes)
        failures += disagree
    notes = (f"{len(episodes)} episode(s) in "
             f"{time.perf_counter() - began:.1f} s")
    return {"workload": name, "seed": seed, "trace": trace,
            "values": values, "outputs": episodes[0]["outputs"],
            "attempted": attempted, "failures": failures,
            "absent": sorted({a for e in episodes for a in e["absent"]}),
            "notes": notes}


def result_line(report: dict, metrics: list[dict]) -> dict:
    """The result line: the listed metrics with their units.

    A layer the workload does not exercise reports 0.
    """
    values = report["values"]
    return {
        "correct": not report["failures"],
        "attempted": report["attempted"],
        "failed": len(report["failures"]),
        "metrics": {m["name"]: {"value": values.get(m["name"], 0),
                                "unit": m["unit"]} for m in metrics},
    }


def _print_report(report: dict, metrics: list[dict]) -> None:
    mode = "traced" if report["trace"] else "untraced"
    print(f"{report['workload']} seed {report['seed']} ({mode}): "
          f"{report['notes']}")
    for m in metrics:
        value = report["values"].get(m["name"], 0)
        print(f"  {m['name']:<28} {value:>14.6g} {m['unit']}")
    for name in report["absent"]:
        print(f"  absent: {name}")
    for failure in report["failures"]:
        print(f"  FAILED: {failure}")
    print(f"  checks: {report['attempted']} attempted, "
          f"{len(report['failures'])} failed")


def main_one(args) -> int:
    metrics = benchmark_spec()["per_layer" if args.trace else "end_to_end"]
    report = run_workload(args.workload, args.seed, args.seconds,
                          trace=bool(args.trace), quick=args.quick)
    _print_report(report, metrics)
    print(json.dumps(result_line(report, metrics)), flush=True)
    return 0


def _spread(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "values": values}


def main_suite(args) -> int:
    spec = benchmark_spec()
    seconds = (args.seconds if args.seconds is not None
               else spec["run_seconds"])
    suite = {"seed": args.seed, "repeat": args.repeat, "quick": args.quick,
             "seconds": seconds, "nproc": os.cpu_count(), "workloads": {}}
    for name in WORKLOADS:
        def run(trace: int) -> dict:
            return _child("--workload", name, "--seed", str(args.seed),
                          "--seconds", str(seconds), "--trace", str(trace),
                          quick=args.quick)

        runs = []
        for i in range(args.repeat):
            runs.append(run(0))
            print(f"{name}: run {i + 1}/{args.repeat} done", flush=True)
        traced = run(1)
        attempted = sum(r["attempted"] for r in runs + [traced])
        failed = sum(r["failed"] for r in runs + [traced])
        suite["workloads"][name] = {
            "end_to_end": {
                m["name"]: {"unit": m["unit"], **_spread(
                    [r["metrics"][m["name"]]["value"] for r in runs])}
                for m in spec["end_to_end"]},
            "per_layer": traced["metrics"],
            "attempted": attempted,
            "failed": failed,
            "fail_ratio": failed / attempted,
        }
    _print_suite(suite, spec)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(suite, f, indent=1)
        print(f"wrote {args.json}")
    return 0 if all(w["failed"] == 0
                    for w in suite["workloads"].values()) else 1


def _print_suite(suite: dict, spec: dict) -> None:
    print(f"\nend to end: median [min, max] over {suite['repeat']} runs, "
          f"seed {suite['seed']}, {suite['nproc']} CPUs")
    for name, w in suite["workloads"].items():
        print(f"{name}  (fail_ratio {w['fail_ratio']:.3g} = "
              f"{w['failed']}/{w['attempted']})")
        for metric, m in w["end_to_end"].items():
            print(f"  {metric:<20} {m['median']:>12.5g} "
                  f"[{m['min']:.5g}, {m['max']:.5g}] {m['unit']}")
    print("\nper layer (traced pass; layers a workload does not "
          "exercise omitted)")
    for name, w in suite["workloads"].items():
        print(name)
        for metric in spec["per_layer"]:
            entry = w["per_layer"][metric["name"]]
            if entry["value"]:
                print(f"  {metric['name']:<28} {entry['value']:>12.5g} "
                      f"{entry['unit']}")


def main_reference(args) -> int:
    """Rewrite this size's seed-0 reference outputs from fresh runs."""
    with open(REFERENCE) as f:
        table = json.load(f)
    size = table.setdefault("quick" if args.quick else "full", {})
    for name in WORKLOADS:
        episode = _spawn_episode(name, 0, args.quick, False)
        _, failures = check_outputs(episode["outputs"], None)
        failures += episode["failures"]
        if failures:
            print(f"{name}: {failures}", file=sys.stderr)
            return 1
        size[name] = {k: v for k, v in episode["outputs"].items()
                      if isinstance(v, (int, float))}
        print(f"{name}: {size[name]}")
    with open(REFERENCE, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="co-simulation benchmark (see bench/README.md)")
    parser.add_argument("--workload", default=None,
                        choices=sorted(WORKLOADS),
                        help="run one workload and print the result line")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=3,
                        help="untraced runs per workload (suite)")
    parser.add_argument("--json", metavar="OUT", default=None,
                        help="write the suite summary here")
    parser.add_argument("--quick", action="store_true",
                        help="1-hour horizons on tiny facilities")
    parser.add_argument("--write-reference", action="store_true",
                        help="rewrite the seed-0 reference outputs")
    parser.add_argument("--episode", choices=("plain", "traced"),
                        default=None, help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        use_repo_source()
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.write_reference:
        return main_reference(args)
    if args.workload is None:
        return main_suite(args)
    if args.episode is not None:
        print(json.dumps(run_episode(args.workload, args.seed, args.quick,
                                     traced=args.episode == "traced")))
        return 0
    if args.seconds is None:
        args.seconds = benchmark_spec()["run_seconds"]
    return main_one(args)


if __name__ == "__main__":
    sys.exit(main())
