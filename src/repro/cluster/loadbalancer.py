"""Load balancing across active servers.

§3: "Load balancing policies are usually updated at the scale of
minutes" — the balancer here is a fluid dispatcher invoked on that
cadence: given total offered work, it splits it over the currently
ACTIVE servers under a policy and pushes per-server offered loads.
The pool is a vector fleet's servers, so a dispatch is one batch
kernel over the fleet columns: a policy's ``split_array`` runs on the
active rows' effective capacities, and a policy with only ``split``
(:class:`PackFirst`) gets the active roster.

Policies:

* :class:`EvenSplit` — equal share to every active server.
* :class:`WeightedSplit` — shares proportional to effective capacity
  (the right thing when DVFS has made servers heterogeneous).
* :class:`PackFirst` — fill servers in order to their target
  utilization, leaving the tail idle (the shape On/Off consolidation
  wants, §4.3: "workload needs to be routed properly to remaining
  active systems to preserve application performance").
"""

from __future__ import annotations

import typing

import numpy as np

from repro.cluster.server import Server
from repro.sim import Monitor

__all__ = ["LoadBalancer", "EvenSplit", "WeightedSplit", "PackFirst"]


class DispatchPolicy(typing.Protocol):
    """Split ``total_load`` over ``servers`` (all ACTIVE)."""

    def split(self, total_load: float,
              servers: list[Server]) -> list[float]: ...


class EvenSplit:
    """Equal share per active server."""

    def split(self, total_load: float,
              servers: list[Server]) -> list[float]:
        share = total_load / len(servers)
        return [share] * len(servers)

    def split_array(self, total_load: float,
                    capacities: np.ndarray) -> np.ndarray:
        """Vector form over the active set's effective capacities."""
        share = total_load / capacities.size
        return np.full(capacities.size, share)


class WeightedSplit:
    """Shares proportional to each server's effective capacity."""

    def split(self, total_load: float,
              servers: list[Server]) -> list[float]:
        capacities = [s.effective_capacity for s in servers]
        total_capacity = sum(capacities)
        if total_capacity <= 0:
            return EvenSplit().split(total_load, servers)
        return [total_load * c / total_capacity for c in capacities]

    def split_array(self, total_load: float,
                    capacities: np.ndarray) -> np.ndarray:
        """Vector form: the same fold and per-share arithmetic.

        ``cumsum`` reproduces ``sum()``'s sequential fold and the
        share expression keeps the scalar's evaluation order
        ``(total * c) / total_capacity``, so every share is the
        bit-exact scalar result.
        """
        total_capacity = float(np.cumsum(capacities)[-1]
                               ) if capacities.size else 0.0
        if total_capacity <= 0:
            return EvenSplit().split_array(total_load, capacities)
        return (total_load * capacities) / total_capacity


class PackFirst:
    """Fill servers to ``target_utilization`` in order; spill the rest.

    Leaves a maximal idle tail for the On/Off controller to put to
    sleep.  Any overflow beyond everyone's target goes evenly on top
    (better overloaded than dropped).
    """

    def __init__(self, target_utilization: float = 0.8):
        if not 0.0 < target_utilization <= 1.0:
            raise ValueError("target utilization must be in (0, 1]")
        self.target_utilization = float(target_utilization)

    def split(self, total_load: float,
              servers: list[Server]) -> list[float]:
        shares = [0.0] * len(servers)
        remaining = total_load
        for i, server in enumerate(servers):
            room = server.effective_capacity * self.target_utilization
            take = min(remaining, room)
            shares[i] = take
            remaining -= take
            if remaining <= 0:
                break
        if remaining > 0:
            bump = remaining / len(servers)
            shares = [s + bump for s in shares]
        return shares


class LoadBalancer:
    """Dispatch total offered load across a vector-fleet server pool.

    ``servers`` are the :class:`~repro.fleet.plant.VectorServer` views
    of one :class:`~repro.fleet.plant.VectorFleet`, every row already
    in a rack aggregate; the balancer claims the fleet's pool
    aggregate (see :meth:`~repro.fleet.plant.VectorFleet
    .make_aggregate`), and every dispatch is one batch kernel call.
    Plain :class:`Server` objects raise ``TypeError``.
    """

    def __init__(self, servers: typing.Sequence[Server],
                 policy: DispatchPolicy | None = None):
        if not servers:
            raise ValueError("need at least one server")
        self.servers = list(servers)
        self.policy = policy or WeightedSplit()
        fleet = getattr(self.servers[0], "_fleet", None)
        if fleet is None:
            raise TypeError(
                f"a load balancer runs on a VectorFleet; "
                f"{type(self.servers[0]).__name__} "
                f"{self.servers[0].name} is not a fleet row")
        #: The fleet's pool aggregate (shared with the owning farm):
        #: the exact power ledger, the active roster and the batch
        #: dispatch kernels.
        self.fleet = fleet.make_aggregate(self.servers, "pool")
        env = self.servers[0].env
        self.offered_monitor = Monitor(env, "lb.offered")
        self.shed_monitor = Monitor(env, "lb.shed")

    def active_servers(self) -> list[Server]:
        """Servers currently able to take traffic (pool order)."""
        return list(self.fleet.active_servers())

    def dispatch(self, total_load: float) -> float:
        """Split ``total_load``; returns the amount actually served.

        Inactive servers are zeroed (they cannot hold traffic).  If no
        server is active the entire load is shed — the catastrophic
        outcome mis-coordinated On/Off control risks.
        """
        if total_load < 0:
            raise ValueError(f"negative load {total_load}")
        self.offered_monitor.record(total_load)
        fleet = self.fleet
        if not fleet.active_count:
            fleet.zero_inactive()
            self.shed_monitor.record(total_load)
            return 0.0
        # Fused zero→split→apply→serve step; a repeated demand level
        # against an unmutated fleet is one memo hit.
        served = fleet.fused_dispatch(self.policy, total_load)
        self.shed_monitor.record(max(0.0, total_load - served))
        return served

    def total_power_w(self) -> float:
        """Wall power of the whole pool (all states); O(1) aggregate."""
        return self.fleet.power_w
