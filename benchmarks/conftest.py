"""Shared helpers for the experiment benchmarks.

Every benchmark module reproduces one paper artifact (figure or
quantitative claim — see DESIGN.md §3).  The convention:

* compute the experiment's result table once,
* assert the paper's *shape* claims (who wins, by roughly what factor),
* attach the rows to ``benchmark.extra_info`` and echo them so
  ``pytest benchmarks/ --benchmark-only -s`` doubles as the
  reproduction report,
* time a representative kernel via the ``benchmark`` fixture
  (``pedantic`` with one round for simulation-heavy experiments).

In addition, every recorded benchmark appends one machine-readable row
to ``BENCH_PERF.json`` (in the repository root, or ``$BENCH_PERF_PATH``)
with the benchmark name, its headline metrics, and the mean wall time —
CI uploads the file as an artifact so perf history survives the run.
``PERF:`` timing rows also carry a ``host`` record (CPU count, machine,
Python and numpy versions), because a wall time means little without
the host it was taken on.

With ``$GOLDEN_TABLES_PATH`` set, the session also writes every
*deterministic* result block (title + table rows; PERF timing rows are
excluded) to that path, sorted by title.  CI regenerates the file and
byte-diffs it against the committed ``benchmarks/GOLDEN_TABLES.txt``,
so no headline number can drift without the diff showing exactly
which table moved.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform

import numpy as np

_PERF_PATH = pathlib.Path(
    os.environ.get("BENCH_PERF_PATH",
                   pathlib.Path(__file__).resolve().parent.parent
                   / "BENCH_PERF.json"))
#: ``(title, metrics, rows, benchmark_fixture)`` tuples recorded this
#: session.  The fixture's stats fill in *after* ``record()`` returns
#: (when the test body calls ``benchmark()``/``pedantic``), so wall
#: times are read at session finish, not at record time.
_SESSION_ROWS: list[tuple[str, dict, list[str], object]] = []


def record(benchmark, title: str, rows: list[str], **extra) -> None:
    """Attach a result table to the benchmark and echo it.

    ``extra`` metrics land both in ``benchmark.extra_info`` and in the
    benchmark's BENCH_PERF.json row; ``rows`` is the golden table the
    golden-tables CI job byte-compares across runs.
    """
    benchmark.extra_info["experiment"] = title
    for key, value in extra.items():
        benchmark.extra_info[key] = value
    _SESSION_ROWS.append((title, dict(extra), list(rows), benchmark))
    print(f"\n=== {title} ===")
    for row in rows:
        print(row)


def _mean_seconds(benchmark) -> float | None:
    try:
        return float(benchmark.stats.stats.mean)
    except AttributeError:
        pass
    try:
        return float(benchmark.stats["mean"])
    except (AttributeError, KeyError, TypeError):
        return None


def host_record() -> dict:
    """The facts about this host that a wall time depends on."""
    return {"cpu_count": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__}


def pytest_sessionstart(session):
    _SESSION_ROWS.clear()


def _write_golden_tables(path: pathlib.Path) -> None:
    """All deterministic result blocks, sorted by title, byte-stable.

    PERF rows are wall-time measurements and vary run to run, so they
    are excluded; everything else (FIG/CLM/EXP/ABL tables) is a pure
    function of the committed code and seeds.
    """
    blocks = []
    for title, _, rows, _ in sorted(_SESSION_ROWS, key=lambda r: r[0]):
        if title.startswith("PERF"):
            continue
        blocks.append("\n".join([f"=== {title} ===", *rows]))
    path.write_text("\n\n".join(blocks) + "\n")


def pytest_sessionfinish(session, exitstatus):
    """Merge this session's rows into BENCH_PERF.json by name."""
    if not _SESSION_ROWS:
        return
    existing: dict[str, dict] = {}
    if _PERF_PATH.exists():
        try:
            for row in json.loads(_PERF_PATH.read_text()):
                existing[row["name"]] = row
        except (ValueError, KeyError, TypeError):
            existing = {}
    host = host_record()
    for title, metrics, _, benchmark in _SESSION_ROWS:
        row = {"name": title, "metrics": metrics,
               "mean_s": _mean_seconds(benchmark)}
        if title.startswith("PERF"):
            row["host"] = host
        existing[title] = row
    _PERF_PATH.write_text(
        json.dumps(list(existing.values()), indent=2) + "\n")
    golden = os.environ.get("GOLDEN_TABLES_PATH")
    if golden:
        _write_golden_tables(pathlib.Path(golden))
