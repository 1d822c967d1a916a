"""RunReport: one JSON artifact summarizing an instrumented run.

The flight recorder's export format.  A :class:`RunReport` bundles

* the run's headline metrics (energy, PUE, SLA, alarms — the same
  fields :class:`~repro.datacenter.cosim.CoSimResult` carries),
* the tracer's profiling counters and per-subsystem wall timers
  (kernel event mix, macro/capper wall seconds),
* the full decision audit trail (observations → actuations, per
  cycle), and
* the actuation-bus command ledger with each command's originating
  ``decision_id`` — which is what lets a retry or a reconciler
  re-issue be traced back to the telemetry sample that triggered the
  original decision.

``python -m repro report`` builds one from a managed day and writes
the JSON; ``python -m repro trace`` renders the causal chain as text.
"""

from __future__ import annotations

import dataclasses
import json
import typing

from repro.obs.audit import AuditTrail
from repro.obs.tracer import Tracer

__all__ = ["RunReport", "build_run_report", "format_causal_chain"]


@dataclasses.dataclass
class RunReport:
    """Everything the flight recorder knows about one run."""

    meta: dict
    metrics: dict
    recorder: dict
    audit: dict
    commands: list[dict]
    #: Daemon-side session summary for served runs (protocol stats,
    #: subscription counters, applied mutations); empty when the run
    #: was in-process.
    serve: dict = dataclasses.field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {"meta": self.meta, "metrics": self.metrics,
               "recorder": self.recorder, "audit": self.audit,
               "commands": self.commands}
        if self.serve:
            out["serve"] = self.serve
        return out

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent,
                          sort_keys=False, default=str)

    def write(self, path) -> None:
        import pathlib
        pathlib.Path(path).write_text(self.to_json() + "\n")

    # ------------------------------------------------------------------
    # Convenience queries (used by tests and the CLI)
    # ------------------------------------------------------------------
    def decisions_with(self, actuation: str) -> list[dict]:
        """Audit decisions that caused the named actuation."""
        return [d for d in self.audit.get("decisions", ())
                if any(a["name"] == actuation
                       for a in d.get("actuations", ()))]

    def linked(self, actuation: str) -> bool:
        """True when some decision links ``actuation`` to at least one
        observation — the flight-recorder acceptance predicate."""
        return any(d.get("observations")
                   for d in self.decisions_with(actuation))


def _result_metrics(result) -> dict:
    """Flatten a CoSimResult into plain JSON-able numbers."""
    metrics = {
        "duration_s": result.duration_s,
        "it_energy_j": result.it_energy_j,
        "facility_energy_j": result.facility_energy_j,
        "facility_kwh": result.facility_kwh,
        "energy_weighted_pue": result.energy_weighted_pue,
        "mean_active_servers": result.mean_active_servers,
        "thermal_alarms": result.thermal_alarms,
        "peak_grid_w": result.peak_grid_w,
        "sla_compliant": bool(result.sla.compliant),
        "served_fraction": result.sla.served_fraction,
    }
    if result.controlplane is not None:
        cp = result.controlplane
        metrics["controlplane"] = {
            "commands_issued": cp.commands_issued,
            "commands_acked": cp.commands_acked,
            "commands_gave_up": cp.commands_gave_up,
            "retries_total": cp.retries_total,
            "reconciler_reissues": cp.reconciler_reissues,
        }
    return metrics


def _command_rows(sim) -> list[dict]:
    """Actuation-bus ledger with decision links, if a plane exists."""
    plane = getattr(sim, "control_plane", None)
    if plane is None:
        return []
    rows = []
    for record in plane.actuation.records:
        rows.append({
            "key": record.key,
            "server": record.server_name,
            "kind": record.kind.value,
            "origin": record.origin,
            "issued_s": record.issued_s,
            "attempts": record.attempts,
            "acked_s": record.acked_s,
            "result": record.result,
            "gave_up": record.gave_up,
            "decision_id": getattr(record, "decision_id", None),
        })
    return rows


def build_run_report(sim, result, tracer: Tracer | None = None,
                     audit: AuditTrail | None = None,
                     meta: dict | None = None,
                     serve: dict | None = None) -> RunReport:
    """Assemble the report from a finished co-simulation.

    ``tracer``/``audit`` default to the instances wired into ``sim``
    (``sim.tracer`` and ``sim.manager.audit``); pass them explicitly
    for bespoke harnesses.  ``serve`` attaches the daemon-side session
    summary when the run was driven over the wire.
    """
    tracer = tracer or getattr(sim, "tracer", None)
    if audit is None:
        manager = getattr(sim, "manager", None)
        audit = getattr(manager, "audit", None) if manager else None
    return RunReport(
        meta=dict(meta or {}),
        metrics=_result_metrics(result),
        recorder=tracer.summary() if tracer is not None else {},
        audit=audit.to_dict() if audit is not None else {},
        commands=_command_rows(sim),
        serve=dict(serve or {}),
    )


# ----------------------------------------------------------------------
# Text rendering (the `repro trace` view)
# ----------------------------------------------------------------------
def _fmt_attrs(attrs: dict | None) -> str:
    if not attrs:
        return ""
    parts = []
    for key, value in attrs.items():
        if isinstance(value, float):
            parts.append(f"{key}={value:.4g}")
        else:
            parts.append(f"{key}={value}")
    return " [" + " ".join(parts) + "]"


def format_causal_chain(tracer: Tracer,
                        audit: AuditTrail | None = None,
                        max_decisions: int = 12,
                        only_actuating: bool = True) -> str:
    """Render decision cycles as an indented causal tree.

    Each rendered cycle shows the observations it acted on and the
    actuations it caused, in simulated-time order — the "flash crowd
    → forecast → wake-ups → cap tighten" chain as text.  With
    ``only_actuating`` (the default) quiet hold cycles are skipped.
    """
    lines: list[str] = []
    counters = tracer.counters
    if counters:
        mix = " ".join(f"{k}={v}" for k, v in sorted(counters.items()))
        lines.append(f"counters: {mix}")
    if audit is None or not audit.records:
        for span in list(tracer.spans)[-max_decisions:]:
            lines.append(f"span {span.name} "
                         f"[{span.start_s:.0f}s..{span.end_s:.0f}s]"
                         f"{_fmt_attrs(span.attrs)}")
            for event in tracer.events_in_span(span.sid):
                lines.append(f"  + {event.name}"
                             f" @{event.time_s:.0f}s"
                             f"{_fmt_attrs(event.attrs)}")
        return "\n".join(lines)

    shown = 0
    for record in audit.records:
        if only_actuating and not record.actuations:
            continue
        if shown >= max_decisions:
            lines.append(f"... ({len(audit.records)} decisions total)")
            break
        shown += 1
        head = (f"decision #{record.decision_id} "
                f"@{record.time_s:.0f}s mode={record.mode}")
        if record.fault_domains:
            head += f" faults={','.join(record.fault_domains)}"
        lines.append(head)
        for obs in record.observations:
            value = obs.value
            value = (f"{value:.4g}" if isinstance(value, float)
                     else str(value))
            lines.append(f"  observed {obs.channel}={value} "
                         f"(measured @{obs.measured_s:.0f}s, "
                         f"age {obs.age_s:.0f}s, {obs.source})")
        for act in record.actuations:
            lines.append(f"  -> {act['name']} @{act['time_s']:.0f}s"
                         f"{_fmt_attrs(act['attrs'])}")
        if record.outputs:
            outs = " ".join(
                f"{k}={v}" for k, v in record.outputs.items())
            lines.append(f"  = {outs}")
    if shown == 0:
        lines.append("(no actuating decision cycles recorded)")
    return "\n".join(lines)
