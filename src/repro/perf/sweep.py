"""Parallel parameter sweeps over deterministic simulation points.

A *sweep point* is a named, picklable parameter dict.  A *point
function* maps that dict to a flat ``{metric: float}`` dict, building
every bit of simulation state (environment, fleet, RNG streams) from
the parameters alone.  That makes each point a pure function, so the
runner can execute points serially or across a process pool and get
identical numbers either way — the only thing parallelism changes is
wall time.

Determinism contract
--------------------
* Seeds are data.  A point that needs randomness carries its seed in
  its params (``cosim_grid`` derives one per point with
  :meth:`repro.sim.RandomStreams.fork`), never from worker identity,
  scheduling order, or time.
* Results are returned in point order regardless of completion order.
* ``workers <= 1`` (or a single point) degrades to a plain in-process
  loop, which the tests use as the reference for the parallel path.

Wall-time accounting
--------------------
Each point is timed inside the worker with ``time.perf_counter``; the
report's :attr:`SweepReport.serial_time_s` is the sum of those
per-point times (what a serial run would have cost, modulo pool
overhead) and :attr:`SweepReport.speedup` divides it by the observed
elapsed time.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import time
import typing
from concurrent.futures import ProcessPoolExecutor

__all__ = [
    "SweepPoint",
    "SweepResult",
    "SweepReport",
    "SweepRunner",
    "cosim_grid",
    "run_cosim_point",
]


@dataclasses.dataclass(frozen=True)
class SweepPoint:
    """One configuration in a sweep: a name plus picklable params."""

    name: str
    params: dict


@dataclasses.dataclass(frozen=True)
class SweepResult:
    """Outcome of one point: metrics plus in-worker wall time.

    A point that raised on every attempt carries the exception text in
    ``error`` and an empty ``metrics`` dict instead of aborting the
    whole sweep.
    """

    name: str
    params: dict
    metrics: dict
    wall_time_s: float
    worker_pid: int
    error: str | None = None
    attempts: int = 1

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclasses.dataclass(frozen=True)
class SweepReport:
    """All results of a sweep plus end-to-end wall-time accounting."""

    results: tuple[SweepResult, ...]
    elapsed_s: float
    workers: int

    @property
    def serial_time_s(self) -> float:
        """Sum of per-point in-worker wall times (the serial cost)."""
        return sum(r.wall_time_s for r in self.results)

    @property
    def speedup(self) -> float:
        """Serial cost over observed elapsed time (1.0 when serial)."""
        if self.elapsed_s <= 0.0:
            return float("inf")
        return self.serial_time_s / self.elapsed_s

    @property
    def failed(self) -> tuple[SweepResult, ...]:
        """Points that raised on every attempt (empty when clean)."""
        return tuple(r for r in self.results if r.failed)

    def rows(self, metrics: typing.Sequence[str] | None = None
             ) -> list[tuple[str, str]]:
        """``(label, text)`` pairs for tabular display.

        ``metrics`` selects and orders the metric columns; by default
        every metric of the first *successful* result is shown, in
        dict order.  Failed points render their error instead of
        metric cells, so a partially-failed sweep stays legible.
        """
        default_keys: list[str] | None = None
        if metrics is None:
            for r in self.results:
                if not r.failed:
                    default_keys = list(r.metrics)
                    break
        out: list[tuple[str, str]] = []
        for r in self.results:
            if r.failed:
                out.append((r.name, f"FAILED after {r.attempts} "
                                    f"attempts: {r.error}"))
                continue
            keys = (metrics if metrics is not None
                    else (default_keys or list(r.metrics)))
            cells = "  ".join(f"{k}={r.metrics[k]:.4g}" for k in keys
                              if k in r.metrics)
            out.append((r.name, f"{cells}  wall={r.wall_time_s:.2f}s"))
        return out


def _timed_call(fn: typing.Callable[[dict], dict],
                point: SweepPoint, max_attempts: int = 2) -> SweepResult:
    """Run one point inside the worker, retrying a failure once.

    Module-level so that it pickles for the process pool.  A point
    function that raises is retried (points are pure functions of
    their params, so a retry is safe); if every attempt raises, the
    failure is *reported* in the result rather than propagated — one
    bad point must not abort a long sweep.
    """
    start = time.perf_counter()
    error = None
    for attempt in range(1, max_attempts + 1):
        try:
            metrics = fn(point.params)
        except Exception as exc:  # noqa: BLE001 - reported, not hidden
            error = f"{type(exc).__name__}: {exc}"
            continue
        wall = time.perf_counter() - start
        return SweepResult(name=point.name, params=point.params,
                           metrics=dict(metrics), wall_time_s=wall,
                           worker_pid=os.getpid(), attempts=attempt)
    wall = time.perf_counter() - start
    return SweepResult(name=point.name, params=point.params,
                       metrics={}, wall_time_s=wall,
                       worker_pid=os.getpid(), error=error,
                       attempts=max_attempts)


class SweepRunner:
    """Fan a point function across a sweep, serially or in a pool.

    Parameters
    ----------
    fn:
        Module-level callable ``params -> {metric: float}``.  Must be
        picklable for ``workers > 1`` (a lambda or closure is not).
    points:
        The sweep points, evaluated in order.
    workers:
        Process count.  ``<= 1`` runs in-process; larger values use a
        :class:`~concurrent.futures.ProcessPoolExecutor` capped at the
        point count.
    """

    def __init__(self, fn: typing.Callable[[dict], dict],
                 points: typing.Iterable[SweepPoint],
                 workers: int = 1):
        self.fn = fn
        self.points = list(points)
        self.workers = int(workers)

    def run(self) -> SweepReport:
        """Evaluate every point and return the ordered report.

        Per-point exceptions are retried once inside the worker and
        reported in the result on repeated failure.  A worker-process
        *crash* (e.g. OOM kill breaking the pool) is caught per
        future; the affected points are re-run in the parent process
        so the sweep still returns a complete, ordered report.
        """
        points = self.points
        workers = min(self.workers, len(points))
        start = time.perf_counter()
        if workers <= 1:
            results = [_timed_call(self.fn, p) for p in points]
            workers = 1
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(_timed_call, self.fn, p)
                           for p in points]
                # Collect in submission order: the report is ordered
                # by point, not by completion.
                results = []
                for point, future in zip(points, futures):
                    try:
                        results.append(future.result())
                    except Exception:  # noqa: BLE001 - pool breakage
                        # The worker died before returning (the
                        # in-worker guard never got to report).  Fall
                        # back to an in-parent run of this point.
                        results.append(_timed_call(self.fn, point))
        elapsed = time.perf_counter() - start
        return SweepReport(results=tuple(results), elapsed_s=elapsed,
                           workers=workers)


# ----------------------------------------------------------------------
# Co-simulation grid: declarative configs for CoSimulation points
# ----------------------------------------------------------------------
def _set_path(params: dict, key: str, value) -> None:
    """Assign ``value`` at a dotted path (``"spec.racks"``) in-place."""
    node = params
    parts = key.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
    node[parts[-1]] = value


def cosim_grid(base: dict | None = None, seed: int = 0,
               **axes: typing.Sequence) -> list[SweepPoint]:
    """Cartesian product of ``axes`` over a base config.

    Axis keys may use dotted paths into the nested params dict
    (``**{"demand.fraction": [0.3, 0.7], "managed": [False, True]}``).
    Each point gets a distinct ``seed`` derived from ``seed`` via
    :meth:`repro.sim.RandomStreams.fork` semantics so that points are
    independent yet reproducible, and a name listing its coordinates.
    """
    from repro.sim.rng import RandomStreams

    root = RandomStreams(seed=seed)
    keys = list(axes)
    points: list[SweepPoint] = []
    for index, combo in enumerate(itertools.product(
            *(axes[k] for k in keys))):
        params: dict = {}
        for key, value in (base or {}).items():
            params[key] = dict(value) if isinstance(value, dict) else value
        for key, value in zip(keys, combo):
            _set_path(params, key, value)
        params["seed"] = root.fork(index).seed
        name = ",".join(f"{k.split('.')[-1]}={v}"
                        for k, v in zip(keys, combo))
        points.append(SweepPoint(name=name or f"point{index}",
                                 params=params))
    return points


def run_cosim_point(params: dict) -> dict:
    """Build and run one :class:`~repro.datacenter.CoSimulation`.

    ``params`` is fully declarative (no callables) so that it crosses
    the process boundary:

    * ``spec``: kwargs for :class:`~repro.datacenter.DataCenterSpec`.
    * ``demand``: a :func:`~repro.workload.declared_demand` block,
      ``{"kind": "constant"|"diurnal", "fraction": f}``, as a fraction
      of total fleet capacity.
    * ``managed``: run the elastic manager (default ``True``).
    * ``hours``: simulated duration (default 24).
    * ``seed``: for the point's :class:`~repro.sim.RandomStreams`.
    """
    from repro.datacenter.cosim import CoSimulation
    from repro.datacenter.spec import DataCenterSpec
    from repro.sim.rng import RandomStreams
    from repro.workload.diurnal import declared_demand

    spec = DataCenterSpec(**params.get("spec", {}))
    demand_fn = declared_demand(
        params.get("demand", {"kind": "constant", "fraction": 0.5}),
        spec.total_servers * spec.server_capacity)

    sim = CoSimulation(
        spec,
        demand_fn,
        managed=bool(params.get("managed", True)),
        streams=RandomStreams(seed=int(params.get("seed", 0))),
    )
    result = sim.run(float(params.get("hours", 24.0)) * 3600.0)
    return {
        "facility_kwh": result.facility_kwh,
        "pue": result.energy_weighted_pue,
        "mean_active_servers": result.mean_active_servers,
        "served_fraction": result.sla.served_fraction,
        "thermal_alarms": float(result.thermal_alarms),
        "peak_grid_kw": result.peak_grid_w / 1e3,
    }
