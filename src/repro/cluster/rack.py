"""Racks and clusters: the physical aggregation of servers.

§5.2: "servers are preassembled into racks for easiness of
deployment" — physical modularity determines "the isolation of power
provision, power distribution and cooling control".  A rack binds a
group of servers to one power-tree leaf and one thermal zone, which is
how server activity becomes heat in a *specific place* (the CRAC
sensitivity story needs that locality).
"""

from __future__ import annotations

import typing

from repro.cluster.aggregates import make_pool_aggregate
from repro.cluster.server import Server, ServerState

__all__ = ["Rack", "Cluster"]


class Rack:
    """Servers sharing a PDU circuit and a thermal zone."""

    def __init__(self, name: str, servers: typing.Sequence[Server],
                 zone: str | None = None,
                 circuit_capacity_w: float | None = None):
        if not servers:
            raise ValueError("a rack needs at least one server")
        self.name = name
        self.servers = list(servers)
        self.zone = zone
        if zone is not None:
            for server in self.servers:
                server.zone = zone
        self.circuit_capacity_w = (
            float(circuit_capacity_w) if circuit_capacity_w is not None
            else sum(s.model.peak_w for s in self.servers))
        #: Servers push power deltas here; rack draw reads are O(1),
        #: which makes ``DataCenter.sync_physical`` O(racks) instead
        #: of O(servers) per physical tick.  Vector-fleet servers get
        #: a rack slot in the fleet's columns instead of object state.
        self.aggregate = make_pool_aggregate(self.servers, kind="rack")

    def power_w(self) -> float:
        """Aggregate wall draw of the rack (event-driven running sum)."""
        return self.aggregate.power_w

    def heat_w(self) -> float:
        """Heat dissipated into the rack's zone (≈ all of the power)."""
        return self.power_w()

    def load_fraction(self) -> float:
        """Draw relative to the circuit rating."""
        return self.power_w() / self.circuit_capacity_w

    def servers_in(self, state: ServerState) -> list[Server]:
        """Servers currently in ``state``."""
        return [s for s in self.servers if s.state is state]

    def __len__(self) -> int:
        return len(self.servers)


class Cluster:
    """A named group of racks operated as one resource pool."""

    def __init__(self, name: str, racks: typing.Sequence[Rack]):
        if not racks:
            raise ValueError("a cluster needs at least one rack")
        self.name = name
        self.racks = list(racks)

    @property
    def servers(self) -> list[Server]:
        """All servers across all racks."""
        return [s for rack in self.racks for s in rack.servers]

    def power_w(self) -> float:
        """Aggregate wall draw of the cluster (O(racks), not O(servers))."""
        return sum(rack.power_w() for rack in self.racks)

    def heat_by_zone(self) -> dict[str, float]:
        """Heat load per thermal zone — the cooling co-sim input."""
        heat: dict[str, float] = {}
        for rack in self.racks:
            if rack.zone is None:
                continue
            heat[rack.zone] = heat.get(rack.zone, 0.0) + rack.heat_w()
        return heat

    def count_in(self, state: ServerState) -> int:
        """Number of servers in ``state``."""
        if state is ServerState.ACTIVE:
            # The common controller query rides the exact integer
            # bookkeeping of the per-rack aggregates.
            return sum(rack.aggregate.active_count for rack in self.racks)
        return sum(1 for s in self.servers if s.state is state)

    def total_effective_capacity(self) -> float:
        """Deliverable work rate of all active servers.

        Non-active servers contribute exactly 0.0, so summing only the
        cached active rosters (in pool order) is bit-identical to the
        full scan it replaces.
        """
        return sum(s.effective_capacity
                   for rack in self.racks
                   for s in rack.aggregate.active_servers())
