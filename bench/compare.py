"""Compare two benchmark suite summaries against the committed bounds.

    python3 bench/compare.py A.json B.json

``A`` is the parent, ``B`` the change; both are ``bench/run.py --json``
files made with the same ``--repeat`` and ``--seed``.  Every workload
and end-to-end metric is reported as

* ``improved`` — every run of B is better than every run of A;
* ``regressed`` — B's median is worse than A's by more than the
  metric's bound in ``BENCHMARK.json`` and by more than the spread;
* ``unresolved`` — otherwise, when the spread is wider than the bound;
* ``unchanged`` — otherwise.

The spread is the wider of the two sides' ``(max - min) / median``.
``setup_s`` may worsen by its bound or by 50 ms, whichever is larger,
and ``fail_ratio`` regresses on any increase.  Exits 1 when anything
regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Absolute slack for ``setup_s``: a few-millisecond set-up cannot be
#: held to a relative bound on a shared machine.
SETUP_FLOOR_S = 0.05


def _spread(values) -> float:
    return (max(values) - min(values)) / statistics.median(values)


def verdict(a: list[float], b: list[float], better: str, bound: float,
            floor: float = 0.0) -> tuple[str, float]:
    """``(verdict, relative change of B's median)`` for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    med_a = statistics.median(a)
    change = (statistics.median(b) - med_a) / med_a
    worse = sign * change
    allowed = max(bound, floor / abs(med_a))
    spread = max(_spread(a), _spread(b))
    if all(sign * (y - x) < 0 for x in a for y in b):
        return "improved", change
    if worse > allowed and worse > spread:
        return "regressed", change
    if spread > allowed:
        return "unresolved", change
    return "unchanged", change


def compare(base: dict, change: dict, metrics: list[dict]) -> list[tuple]:
    """One row per workload and metric present in both summaries."""
    rows = []
    for name, wa in base["workloads"].items():
        wb = change["workloads"].get(name)
        if wb is None:
            continue
        for m in metrics:
            ma = wa["end_to_end"].get(m["name"])
            mb = wb["end_to_end"].get(m["name"])
            if ma is None or mb is None:
                continue
            floor = SETUP_FLOOR_S if m["name"] == "setup_s" else 0.0
            result, delta = verdict(ma["values"], mb["values"],
                                    m["better"], m["bound"], floor)
            rows.append((name, m["name"], ma["median"], mb["median"],
                         delta, result, m["unit"]))
        fa, fb = wa["fail_ratio"], wb["fail_ratio"]
        rows.append((name, "fail_ratio", fa, fb, fb - fa,
                     "regressed" if fb > fa else
                     "improved" if fb < fa else "unchanged", "ratio"))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with open(argv[0]) as f:
        base = json.load(f)
    with open(argv[1]) as f:
        change = json.load(f)
    with open(ROOT / "BENCHMARK.json") as f:
        metrics = json.load(f)["end_to_end"]
    rows = compare(base, change, metrics)
    print(f"{'workload':<22} {'metric':<18} {'A':>12} {'B':>12} "
          f"{'change':>8}  verdict")
    for name, metric, a, b, delta, result, unit in rows:
        print(f"{name:<22} {metric:<18} {a:>12.5g} {b:>12.5g} "
              f"{delta:>+8.1%}  {result} ({unit})")
    return 1 if any(r[5] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
