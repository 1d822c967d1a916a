"""Workload substrate: diurnal traces, flash crowds, arrival processes,
resource mixes, and scatter-gather requests (paper §3)."""

from repro.workload.arrivals import (
    MMPPArrivals,
    NonHomogeneousPoisson,
    PoissonArrivals,
)
from repro.workload.diurnal import (
    DiurnalProfile,
    MessengerTraceGenerator,
    WorkloadTrace,
    declared_demand,
)
from repro.workload.flashcrowd import (
    FlashCrowdEvent,
    animoto_demand,
    demand_trace,
)
from repro.workload.mix import (
    BALANCED,
    CPU_BOUND,
    DISK_BOUND,
    NETWORK_BOUND,
    ResourceProfile,
    peak_correlation,
)
from repro.workload.requests import FanoutModel, Request
from repro.workload.service_sim import ServiceSimulation, ServiceStats
from repro.workload.sessions import SessionTrace, flash_crowd_sessions
from repro.workload.traces import (
    load_trace,
    save_trace,
    trace_from_csv,
    trace_to_csv,
)

__all__ = [
    "BALANCED",
    "CPU_BOUND",
    "DISK_BOUND",
    "DiurnalProfile",
    "FanoutModel",
    "FlashCrowdEvent",
    "MMPPArrivals",
    "MessengerTraceGenerator",
    "NETWORK_BOUND",
    "NonHomogeneousPoisson",
    "PoissonArrivals",
    "Request",
    "ResourceProfile",
    "ServiceSimulation",
    "ServiceStats",
    "SessionTrace",
    "WorkloadTrace",
    "animoto_demand",
    "declared_demand",
    "demand_trace",
    "flash_crowd_sessions",
    "load_trace",
    "peak_correlation",
    "save_trace",
    "trace_from_csv",
    "trace_to_csv",
]
