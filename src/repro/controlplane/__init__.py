"""``repro.controlplane``: the unreliable network between manager and plant.

The macro layer is a *distributed* cyber-physical controller: every
sensor reading crosses a lossy telemetry network and every command
crosses a fallible actuation network.  This package models both —
plus the watchdog and reconciliation machinery that make a manager
operable on top of them:

* :mod:`~repro.controlplane.telemetry` — TelemetryBus (dropout, noise,
  staleness, rack partitions) + StateEstimator (last-known-good with
  age tracking).
* :mod:`~repro.controlplane.actuation` — ActuationBus (latency, loss,
  transient failures; idempotency keys, retry with exponential
  backoff, per-command timeouts, believed-state ledger).
* :mod:`~repro.controlplane.watchdog` — missed-heartbeat liveness with
  a configurable false-positive rate.
* :mod:`~repro.controlplane.plane` — the ControlPlane facade the
  managers talk to, including the periodic reconciliation loop.

A perfect profile (the default) draws no RNG, schedules no events and
records no command, so the co-simulation builds it for its report
only and wires it nowhere: the managers take the fleet kernels, as
with no plane, and every legacy experiment stays bit-identical.  Only
explicitly impaired profiles are attached, and they put the managers
on believed state.
"""

from repro.controlplane.actuation import (
    ActuationBus,
    ActuationProfile,
    CommandKind,
    CommandRecord,
    apply_command,
    settled_state,
)
from repro.controlplane.plane import (
    ControlPlane,
    ControlPlaneProfile,
    ControlPlaneReport,
)
from repro.controlplane.telemetry import (
    Reading,
    StateEstimator,
    TelemetryBus,
    TelemetryProfile,
)
from repro.controlplane.watchdog import Watchdog, WatchdogProfile

__all__ = [
    "ActuationBus",
    "ActuationProfile",
    "CommandKind",
    "CommandRecord",
    "ControlPlane",
    "ControlPlaneProfile",
    "ControlPlaneReport",
    "Reading",
    "StateEstimator",
    "TelemetryBus",
    "TelemetryProfile",
    "Watchdog",
    "WatchdogProfile",
    "apply_command",
    "settled_state",
]
