"""Data-center assembly: tier classification, declarative specs, and
the end-to-end cyber-physical co-simulation harness."""

from repro.datacenter.availability import (
    AvailabilityEstimate,
    AvailabilityModel,
    AvailabilityParameters,
    TIER_AVAILABILITY_PARAMETERS,
)
from repro.datacenter.cosim import CoSimResult, CoSimulation
from repro.datacenter.sharded import (
    ShardedCoSimulation,
    merge_resilience,
    merge_results,
    partition_faults,
    partition_spec,
)
from repro.datacenter.spec import DataCenter, DataCenterSpec
from repro.datacenter.tiers import Tier, TIER_SPECS, TierSpec
from repro.datacenter.workers import (
    ShardWorkerDied,
    ShardWorkerPool,
    ShardWorkerTimeout,
    poll_recv,
)

__all__ = [
    "AvailabilityEstimate",
    "AvailabilityModel",
    "AvailabilityParameters",
    "CoSimResult",
    "CoSimulation",
    "DataCenter",
    "DataCenterSpec",
    "ShardedCoSimulation",
    "ShardWorkerDied",
    "ShardWorkerPool",
    "ShardWorkerTimeout",
    "merge_resilience",
    "merge_results",
    "partition_faults",
    "partition_spec",
    "poll_recv",
    "TIER_AVAILABILITY_PARAMETERS",
    "TIER_SPECS",
    "Tier",
    "TierSpec",
]
