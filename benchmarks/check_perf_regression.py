#!/usr/bin/env python
"""CI gate: fail on wall-time regressions against BENCH_PERF.json.

Usage::

    BENCH_PERF_PATH=/tmp/fresh.json PYTHONPATH=src \
        python -m pytest benchmarks/test_perf_substrate.py -q
    python benchmarks/check_perf_regression.py --current /tmp/fresh.json

Compares every ``PERF:``-prefixed row in the freshly generated results
against the committed baseline and exits non-zero when any row's mean
wall time regressed past its gate.  Thresholds are per row: the
baseline's ``"PERF gate thresholds"`` entry (a mean_s-less row, so it
is never itself gated) maps row names to allowed fractional slowdowns
— tight on stable pure-compute rows, loose on sub-100 ms rows whose
variance dominates and on worker-heavy giants at the mercy of a
shared runner.  ``--threshold`` is only the fallback for rows the
table does not name (then the table's ``"default"``, then 25 %).
Non-PERF rows (experiment artifacts) are ignored: their wall times are
incidental, and their *metrics* are guarded by the benchmarks' own
assertions.

Both files' hosts are printed first (the ``host`` record each PERF row
carries: CPU count, machine, Python and numpy versions).  When they
differ, or the baseline recorded none, the failure summary says so: a
ratio between two hosts measures the hosts as well as the code.

Exit codes: ``0`` all gated rows within threshold, ``1`` at least one
row regressed, ``2`` a baseline row is missing from the current
results (the run silently dropped a benchmark — a distinct failure
from a slowdown; pass ``--allow-missing`` to downgrade it to a
warning).  Rows present only in *current* are reported but never fail
the gate — adding a benchmark must not require a baseline edit in the
same commit to keep CI green.  ``--rows`` restricts the comparison to
the named rows (the nightly job gates only the 20k-server day);
``--skip-rows`` excludes named rows from an otherwise-full gate (the
CI perf-smoke job skips the nightly-only million-server day, whose
benchmark only runs with ``REPRO_BIG_BENCH=1``).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

EXIT_REGRESSED = 1
EXIT_MISSING_ROW = 2


def load_rows(path: pathlib.Path) -> dict[str, float]:
    """``{name: mean_s}`` for every PERF row with a recorded time."""
    rows = {}
    for row in json.loads(path.read_text()):
        if row.get("name", "").startswith("PERF") \
                and row.get("mean_s") is not None:
            rows[row["name"]] = float(row["mean_s"])
    return rows


def describe_host(path: pathlib.Path) -> str:
    """The host record(s) of a results file's PERF rows, as one line.

    Rows are merged into the file by name, so one file can hold rows
    from several hosts; each distinct record is listed once.
    """
    hosts = []
    for row in json.loads(path.read_text()):
        host = row.get("host")
        if row.get("name", "").startswith("PERF") and host:
            text = (f"{host.get('cpu_count')} CPUs {host.get('machine')}, "
                    f"Python {host.get('python')}, "
                    f"numpy {host.get('numpy')}")
            if text not in hosts:
                hosts.append(text)
    return "; ".join(hosts) if hosts else "unrecorded"


def load_thresholds(
        path: pathlib.Path) -> tuple[float | None, dict[str, float]]:
    """``(default, {name: threshold})`` from the baseline's table row.

    The table lives in the baseline itself (a ``"PERF gate
    thresholds"`` row without ``mean_s``) so threshold changes are
    reviewed alongside the timings they guard, and the pytest
    conftest's merge-by-name regeneration never touches it.
    """
    for row in json.loads(path.read_text()):
        if row.get("name") == "PERF gate thresholds":
            table = {str(k): float(v)
                     for k, v in dict(row.get("thresholds", {})).items()}
            default = row.get("default")
            return (float(default) if default is not None else None,
                    table)
    return None, {}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--baseline", type=pathlib.Path,
                        default=ROOT / "BENCH_PERF.json",
                        help="committed reference results")
    parser.add_argument("--current", type=pathlib.Path, required=True,
                        help="freshly generated results to check")
    parser.add_argument("--threshold", type=float, default=None,
                        help="fallback fractional slowdown for rows "
                             "the baseline's threshold table does not "
                             "name (default: the table's own default, "
                             "else 0.25)")
    parser.add_argument("--rows", action="append", default=None,
                        metavar="NAME",
                        help="gate only these row names (repeatable); "
                             "default: every baseline PERF row")
    parser.add_argument("--skip-rows", action="append", default=None,
                        metavar="NAME",
                        help="exclude these baseline rows from the "
                             "gate (repeatable) — for rows whose "
                             "benchmark only runs in another job, so "
                             "their absence here is expected while a "
                             "dropped row still fails")
    parser.add_argument("--allow-missing", action="store_true",
                        help="warn instead of failing when a baseline "
                             "row is absent from the current results")
    args = parser.parse_args(argv)
    if args.threshold is not None and args.threshold < 0:
        parser.error("threshold cannot be negative")

    table_default, per_row = load_thresholds(args.baseline)
    fallback = args.threshold
    if fallback is None:
        fallback = table_default if table_default is not None else 0.25

    baseline = load_rows(args.baseline)
    current = load_rows(args.current)
    if args.rows is not None:
        unknown = sorted(set(args.rows) - set(baseline))
        if unknown:
            parser.error(f"--rows not in baseline: {', '.join(unknown)}")
        baseline = {n: baseline[n] for n in args.rows}
    if args.skip_rows is not None:
        unknown = sorted(set(args.skip_rows) - set(baseline))
        if unknown:
            parser.error(
                f"--skip-rows not in baseline: {', '.join(unknown)}")
        baseline = {n: v for n, v in baseline.items()
                    if n not in set(args.skip_rows)}

    base_host = describe_host(args.baseline)
    current_host = describe_host(args.current)
    print(f"baseline host: {base_host}")
    print(f"current host:  {current_host}")

    failures = []
    missing = []
    for name in sorted(baseline):
        if name not in current:
            missing.append(name)
            tag = "WARN" if args.allow_missing else "MISS"
            print(f"{tag}  {name}: baseline row absent from current "
                  f"results")
            continue
        ref, now = baseline[name], current[name]
        ratio = now / ref if ref > 0 else float("inf")
        threshold = per_row.get(name, fallback)
        status = "FAIL" if ratio > 1.0 + threshold else "ok"
        print(f"{status:<5} {name}: {ref:.3f}s -> {now:.3f}s "
              f"({ratio:.2f}x baseline, gate +{threshold:.0%})")
        if status == "FAIL":
            failures.append(name)
    for name in sorted(set(current) - set(baseline)):
        print(f"NEW   {name}: {current[name]:.3f}s (no baseline)")

    if failures:
        print(f"\n{len(failures)} PERF row(s) regressed beyond "
              f"their gate: {', '.join(failures)}")
        if base_host == "unrecorded" or base_host != current_host:
            print(f"note: the baseline host ({base_host}) is not "
                  f"known to be the current host ({current_host}); "
                  f"these ratios compare hosts as well as code")
        return EXIT_REGRESSED
    if missing and not args.allow_missing:
        print(f"\n{len(missing)} baseline PERF row(s) missing from "
              f"current results: {', '.join(missing)} — the run "
              f"dropped a gated benchmark")
        return EXIT_MISSING_ROW
    if not baseline:
        print("no PERF rows in baseline — nothing gated")
    return 0


if __name__ == "__main__":
    sys.exit(main())
