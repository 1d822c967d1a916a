"""Event-driven fleet aggregates: O(1) power sums and active rosters.

The hot loops of a fleet-scale run used to recompute everything from
scratch: ``ServerFarm.step()`` scanned every server four times per
dispatch tick and ``DataCenter.sync_physical()`` re-evaluated every
server's power model once per rack scan and once more for the heat
map.  At 500+ servers those O(fleet) scans — not the event kernel —
dominated wall time.

:class:`FleetAggregate` inverts the flow: each :class:`~repro.cluster
.server.Server` *pushes* deltas into the aggregates watching it
(registered via ``Server.add_watcher``) at the moment it changes, so a
tick only pays for the servers that actually changed.

Invariants
----------
* ``power_w`` is an exact ledger: the aggregate holds ``_q``, the
  integer sum of the members' cached wall draw in
  :data:`~repro.cluster.server.QUANTUM_W` quanta
  (:func:`~repro.cluster.server.quanta` of ``Server._power_w``), and
  reads it out as ``_q * QUANTUM_W``.  Servers push the change in
  quanta from ``Server._record_power`` — the single funnel every
  power-relevant mutation already flows through — so the aggregate can
  never miss an update, and integer addition makes every fold exact
  whatever its order: there is nothing to drift and nothing to
  re-sum.
* ``active_count`` is maintained with exact integer arithmetic from
  ``state_changed`` notifications and therefore never drifts.
* ``active_servers()`` returns the ACTIVE members **in pool order**
  (the order controllers and balancer policies have always seen); the
  roster is cached and only rebuilt after a state change, so steady
  state queries are O(1).

:meth:`FleetAggregate.recompute_exact` and :meth:`FleetAggregate.verify`
recount from the servers and report (and repair) any difference — zero
unless something corrupted the ledger.
"""

from __future__ import annotations

import typing

from repro.cluster.server import QUANTUM_W, Server, ServerState, quanta

__all__ = ["FleetAggregate", "make_pool_aggregate"]


class FleetAggregate:
    """Incremental power/state aggregates over a fixed server pool.

    Attach one to any group of servers — a farm's pool, a rack, a load
    balancer's roster.  Construction registers the aggregate as a
    watcher on every member; there is no detach because pools live as
    long as their simulation.
    """

    __slots__ = ("servers", "_q", "_active_count", "_active_cache")

    def __init__(self, servers: typing.Sequence[Server]):
        self.servers = list(servers)
        self._active_cache: list[Server] | None = None
        count = 0
        for server in self.servers:
            server.add_watcher(self)
            count += server._state is ServerState.ACTIVE
        self._q = self._count_q()
        self._active_count = count

    # ------------------------------------------------------------------
    # Watcher protocol (called by Server on every relevant mutation)
    # ------------------------------------------------------------------
    def power_changed(self, server: Server, dq: int) -> None:
        """Fold one server's wall-power change, in quanta, into the
        ledger."""
        self._q += dq

    def state_changed(self, server: Server, old: ServerState,
                      new: ServerState) -> None:
        """Track the ACTIVE population and invalidate the roster."""
        if old is not new:
            if new is ServerState.ACTIVE:
                self._active_count += 1
            elif old is ServerState.ACTIVE:
                self._active_count -= 1
            self._active_cache = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def power_w(self) -> float:
        """Total wall draw of the pool (the exact quanta ledger)."""
        return self._q * QUANTUM_W

    @property
    def active_count(self) -> int:
        """Number of ACTIVE servers (exact integer bookkeeping)."""
        return self._active_count

    def active_servers(self) -> list[Server]:
        """ACTIVE members in pool order.

        Returns the internal cache — callers must treat it as
        read-only (public wrappers copy).  Rebuilt lazily after a
        state change, so repeated queries between transitions are
        O(1).
        """
        roster = self._active_cache
        if roster is None:
            roster = self._active_cache = [
                s for s in self.servers
                if s._state is ServerState.ACTIVE]
        return roster

    def _count_q(self) -> int:
        """The members' cached wall draw, counted afresh in quanta."""
        return sum(quanta(server._power_w) for server in self.servers)

    def recompute_exact(self) -> float:
        """Recount the ledger from the cached per-server power; returns
        the |drift| it repaired, in watts.

        The pushed changes keep the ledger exact, so the drift is 0.0
        unless something wrote the ledger behind the funnel's back.
        """
        q = self._count_q()
        drift = abs(q - self._q) * QUANTUM_W
        self._q = q
        return drift

    def verify(self) -> dict:
        """Exact-recompute *every* cached aggregate; repair and report.

        Goes beyond the :meth:`recompute_exact` ledger recount: the
        active count is recounted, and the cached roster (if one
        is materialized) is rebuilt and compared.  Any disagreement is
        repaired in place.  Designed as the control plane's
        reconciliation-loop self-heal — cheap enough to run every few
        minutes, strong enough that no caching bug or missed watcher
        notification can mislead the manager for long.

        Returns ``{"power_drift_w", "active_count_corrected",
        "roster_repaired"}``.
        """
        power_drift = self.recompute_exact()
        count = sum(1 for s in self.servers
                    if s._state is ServerState.ACTIVE)
        count_corrected = abs(count - self._active_count)
        self._active_count = count
        roster_repaired = False
        if self._active_cache is not None:
            fresh = [s for s in self.servers
                     if s._state is ServerState.ACTIVE]
            roster_repaired = fresh != self._active_cache
            self._active_cache = fresh
        return {"power_drift_w": power_drift,
                "active_count_corrected": count_corrected,
                "roster_repaired": roster_repaired}

    def __repr__(self) -> str:
        return (f"<FleetAggregate n={len(self.servers)} "
                f"active={self._active_count} {self.power_w:.0f}W>")


def make_pool_aggregate(servers: typing.Sequence[Server],
                        kind: str = "pool") -> FleetAggregate:
    """Build the aggregate for ``servers``.

    Plain servers get the classic :class:`FleetAggregate`.  Servers
    backed by a :class:`~repro.fleet.plant.VectorFleet` get the
    vectorized aggregate matching ``kind`` (``"rack"`` claims a
    contiguous rack slot, ``"pool"`` the whole fleet); a vector pool
    the fleet's wiring rule refuses raises ``ValueError`` (see
    :meth:`~repro.fleet.plant.VectorFleet.make_aggregate`).
    """
    fleet = getattr(servers[0], "_fleet", None) if servers else None
    if fleet is not None:
        return fleet.make_aggregate(servers, kind)
    return FleetAggregate(servers)
