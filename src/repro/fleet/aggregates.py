"""Vectorized fleet aggregates: batch kernels over the exact ledger.

:class:`VectorAggregate` is the farm-wide pool aggregate of a
:class:`~repro.fleet.plant.VectorFleet`; :class:`VectorRackAggregate`
is the per-rack one, its ledger and active count stored in fleet rack
columns.  Both subclass the object-path :class:`~repro.cluster
.aggregates.FleetAggregate`, so the scalar watcher protocol — one
``power_changed`` change in quanta at a time — keeps working
unchanged.

On top, the farm aggregate exposes *batch* entry points (bulk load
application, bulk P-state moves, vectorized roster/utilization/demand
queries).  Each batch lands on the state the scalar sequence reaches:

* power evaluation uses the fleet's batch kernel (see ``plant``),
  which is scalar-exact for the fleet's one power model;
* the rack and pool ledgers are integer sums of quanta, so the
  fleet's one fold (``VectorFleet._fold_power``) matches the scalar
  pushes bit for bit whatever order it adds them in;
* the served amount and the farm means are sequential left folds
  (``np.cumsum``), the scalar accumulation order.

The fleet checks its wiring as it is built (see ``plant``): every
server is watched by exactly its rack aggregate and this aggregate.
So a batch always folds into those two and nothing else.  Every
:class:`~repro.control.farm.ServerFarm` and
:class:`~repro.cluster.loadbalancer.LoadBalancer` runs on a
:class:`VectorAggregate` pool and calls its kernels directly.
"""

from __future__ import annotations

import typing

import numpy as np

from repro.cluster.aggregates import FleetAggregate
from repro.cluster.server import ServerState
from repro.fleet.plant import C_ACTIVE, VectorFleet, quanta_array, run_rows

__all__ = ["VectorAggregate", "VectorRackAggregate"]


class VectorAggregate(FleetAggregate):
    """Whole-fleet pool aggregate with batch kernels."""

    __slots__ = ("_fleet", "_active_idx", "_dispatch_memo",
                 "_util_memo", "_resp_memo")

    def __init__(self, fleet: VectorFleet, servers: typing.Sequence):
        self._fleet = fleet
        self._active_idx: np.ndarray | None = None
        # Fused sense-pipeline memos, all keyed on the fleet's
        # mutation epoch (see VectorFleet.mutation_epoch).
        self._dispatch_memo: tuple | None = None
        self._util_memo: tuple | None = None
        self._resp_memo: tuple | None = None
        # Registered first: the servers' add_watcher accepts only
        # the fleet's pool as their second watcher.
        fleet.pool_agg = self
        super().__init__(servers)

    @property
    def plant(self) -> VectorFleet:
        """The fleet whose rows this pool covers."""
        return self._fleet

    # ------------------------------------------------------------------
    # Scalar watcher protocol (roster cache gains an index twin)
    # ------------------------------------------------------------------
    def state_changed(self, server, old, new) -> None:
        super().state_changed(server, old, new)
        if old is not new:
            self._active_idx = None

    def active_indices(self) -> np.ndarray:
        """Rows of ACTIVE servers, ascending (= pool order)."""
        idx = self._active_idx
        if idx is None:
            idx = self._active_idx = np.flatnonzero(
                self._fleet.state_code == C_ACTIVE)
        return idx

    def active_servers(self) -> list:
        roster = self._active_cache
        if roster is None:
            roster = self._active_cache = self._fleet.gather(
                self.active_indices())
        return roster

    def _count_q(self) -> int:
        return int(quanta_array(self._fleet.power).sum())

    def verify(self) -> dict:
        power_drift = self.recompute_exact()
        fleet = self._fleet
        count = int(np.count_nonzero(fleet.state_code == C_ACTIVE))
        count_corrected = abs(count - self._active_count)
        self._active_count = count
        roster_repaired = False
        if self._active_cache is not None:
            fresh_idx = np.flatnonzero(fleet.state_code == C_ACTIVE)
            fresh = fleet.gather(fresh_idx)
            roster_repaired = fresh != self._active_cache
            self._active_cache = fresh
            self._active_idx = fresh_idx
        return {"power_drift_w": power_drift,
                "active_count_corrected": count_corrected,
                "roster_repaired": roster_repaired}

    # ------------------------------------------------------------------
    # Batch mutators
    # ------------------------------------------------------------------
    def start_startable(self, quarantined, count: int) -> np.ndarray:
        """Start up to ``count`` servers — the lowest SLEEPING rows,
        then the lowest OFF rows, outside quarantined zones — through
        the fleet's transition kernel; returns the rows started."""
        fleet = self._fleet
        rows = fleet.startable_rows(quarantined, count)
        if rows.size:
            fleet.start_many(rows)
        return rows

    def stop_tail(self, count: int, to_sleep: bool) -> np.ndarray:
        """Drain and sleep (or shut down) up to ``count`` of the
        highest ACTIVE rows, back to front, never the last active one;
        returns the rows stopped, in victim order."""
        idx = self.active_indices()
        victims = min(count, idx.size - 1)
        if victims <= 0:
            return idx[:0]
        rows = idx[idx.size - victims:][::-1].copy()
        self._fleet.park_many(rows, ServerState.SLEEPING if to_sleep
                              else ServerState.OFF)
        return rows

    def zero_inactive(self) -> None:
        """Zero offered load on non-ACTIVE servers, in pool order.

        Rare (a server just left ACTIVE with load still assigned), so
        the per-server work stays on the scalar path; the vector part
        is finding the rows without touching Python objects.
        """
        fleet = self._fleet
        idle = np.flatnonzero((fleet.state_code != C_ACTIVE)
                              & (fleet.offered != 0.0))
        for i in idle.tolist():
            fleet.objs[i].set_offered_load(0.0)

    def dispatch_loads(self, policy, total_load: float) -> float:
        """Split ``total_load`` over the active set and apply in bulk.

        Returns the served amount — the same left fold of
        ``delivered_load`` the scalar dispatch accumulates.  Only a
        policy without ``split_array`` needs the active roster.
        """
        fleet = self._fleet
        idx = self.active_indices()
        rows = run_rows(idx)
        split_array = getattr(policy, "split_array", None)
        if split_array is not None:
            loads = split_array(total_load, fleet.eff_cap[rows])
        else:
            active = self.active_servers()
            shares = policy.split(total_load, active)
            if len(shares) != len(active):
                raise RuntimeError(
                    "policy returned wrong number of shares")
            loads = np.asarray(shares, dtype=np.float64)
        self._apply_active_loads(idx, loads)
        delivered = np.minimum(fleet.offered[rows], fleet.eff_cap[rows])
        return float(np.cumsum(delivered)[-1])

    def fused_dispatch(self, policy, total_load: float) -> float:
        """One fused zero-inactive → split → apply → serve step.

        Keyed on ``(mutation epoch, total load, policy identity)``: an
        unchanged epoch proves no dispatch input (state, offered,
        effective capacity, P/T-state, caps) moved since the previous
        dispatch, so the previous dispatch's own writes are the
        fixpoint — re-splitting would reproduce exactly the loads
        already applied and every mutator would no-op.  The memo
        therefore returns the cached served value and skips the whole
        pipeline; constant-demand periods (the common bench and
        macro-period case) collapse to one epoch compare per tick.

        Only policies with a pure ``split_array`` are memoized —
        stateful ``split`` implementations may depend on more than
        the fleet columns.
        """
        fleet = self._fleet
        memo = self._dispatch_memo
        if (memo is not None
                and memo[0] == fleet.mutation_epoch
                and memo[1] == total_load
                and memo[2] is policy):
            return memo[3]
        self.zero_inactive()
        served = self.dispatch_loads(policy, total_load)
        if getattr(policy, "split_array", None) is not None:
            self._dispatch_memo = (fleet.mutation_epoch, total_load,
                                   policy, served)
        return served

    def batch_set_pstate(self, index: int) -> None:
        """Command ``index`` on every ACTIVE server, in pool order.

        Rows already at ``index`` are skipped, as ``Server.set_pstate``
        skips them, so re-commanding the current P-state flushes no
        meter and leaves the mutation epoch (and the memos keyed on
        it) alone.  A contiguous set of moving rows is read and
        written through slices.
        """
        fleet = self._fleet
        if not 0 <= index < fleet.n_pstates:
            raise ValueError(f"P-state {index} out of range")
        idx = self.active_indices()
        moving = fleet.pstate[run_rows(idx)] != index
        if not moving.all():
            if not moving.any():
                return
            idx = idx[moving]
        rows = run_rows(idx)
        now = fleet.env.now
        oldp = fleet._flush(rows, now)
        fleet.pstate[rows] = index
        tstates = fleet.tstate[rows]
        eff = fleet.capacity[rows] * fleet._cap_fractions(index, tstates)
        fleet.eff_cap[rows] = eff
        newp = fleet._active_power(rows, fleet.offered[rows], eff,
                                   index, tstates)
        fleet.power[rows] = newp
        fleet.mutation_epoch += 1
        fleet._fold_power(rows, oldp, newp)

    def _apply_active_loads(self, idx: np.ndarray,
                            loads: np.ndarray) -> None:
        """Bulk ``set_offered_load`` over ACTIVE rows ``idx``.

        Servers whose load is unchanged are skipped entirely: the
        scalar fast path only re-records the held power, which for an
        :class:`~repro.fleet.plant.EnergyMeter` is a lazy no-op.  The
        meter integrates the held segment in one piece when it
        closes, where a plain ``Monitor`` splits it at every
        same-value re-record, so a server's ∫P dt agrees with the
        scalar path to rounding (not bit for bit); the farm monitors
        and the quanta ledgers are exact.  When every load changes and
        ``idx`` is one contiguous run — the shape the On/Off
        controllers keep — the columns are read and written through
        slices.
        """
        fleet = self._fleet
        offered = fleet.offered
        rows = run_rows(idx)
        changed = loads != offered[rows]
        if not changed.all():
            if not changed.any():
                return
            idx = idx[changed]
            loads = loads[changed]
            rows = run_rows(idx)
        low = float(loads.min())
        if low < 0.0:
            raise ValueError(f"negative load {low}")
        oldp = fleet._flush(rows, fleet.env.now)
        offered[rows] = loads
        fleet.mutation_epoch += 1
        newp = fleet._active_power(rows, loads, fleet.eff_cap[rows],
                                   fleet.pstate[rows], fleet.tstate[rows])
        fleet.power[rows] = newp
        fleet._fold_power(rows, oldp, newp)

    # ------------------------------------------------------------------
    # Vectorized read-only queries
    # ------------------------------------------------------------------
    def committed_count(self) -> int:
        return self._fleet.committed_count()

    def mean_utilization_active(self) -> float:
        """Mean utilization over the (non-empty) active set.

        Memoized on the mutation epoch: both inputs (offered,
        effective capacity) bump it on every write, so an unchanged
        epoch returns the cached mean without touching the columns.
        """
        fleet = self._fleet
        memo = self._util_memo
        if memo is not None and memo[0] == fleet.mutation_epoch:
            return memo[1]
        idx = self.active_indices()
        rows = run_rows(idx)
        util = np.minimum(fleet.offered[rows] / fleet.eff_cap[rows], 1.0)
        value = float(np.cumsum(util)[-1]) / idx.size
        self._util_memo = (fleet.mutation_epoch, value)
        return value

    def mean_response_time_active(self, delay_cap_s: float) -> float:
        """Mean M/M/1 response time over the (non-empty) active set.

        Memoized like :meth:`mean_utilization_active`, additionally
        keyed on the delay cap.
        """
        fleet = self._fleet
        memo = self._resp_memo
        if (memo is not None and memo[0] == fleet.mutation_epoch
                and memo[1] == delay_cap_s):
            return memo[2]
        idx = self.active_indices()
        rows = run_rows(idx)
        arrival = fleet.offered[rows]
        service = np.maximum(fleet.eff_cap[rows], 1e-9)
        with np.errstate(divide="ignore"):
            inverse = 1.0 / (service - arrival)
        resp = np.where(arrival >= service, delay_cap_s,
                        np.minimum(inverse, delay_cap_s))
        value = float(np.cumsum(resp)[-1]) / idx.size
        self._resp_memo = (fleet.mutation_epoch, delay_cap_s, value)
        return value


class VectorRackAggregate(FleetAggregate):
    """Per-rack aggregate whose running state lives in fleet columns.

    The scalar watcher protocol is inherited untouched; the property
    overrides below move the ledger and active count into
    ``rack_q`` / ``rack_active`` slots so the fleet's batch fold can
    see and update every rack without touching aggregate objects.
    """

    __slots__ = ("_fleet", "_slot", "_lo", "_hi")

    def __init__(self, fleet: VectorFleet, lo: int, hi: int,
                 servers: typing.Sequence):
        self._fleet = fleet
        self._lo = lo
        self._hi = hi
        self._slot = fleet._register_rack(self, lo, hi)
        super().__init__(servers)

    @property
    def _q(self) -> int:
        return int(self._fleet.rack_q[self._slot])

    @_q.setter
    def _q(self, value: int) -> None:
        self._fleet.rack_q[self._slot] = value

    @property
    def _active_count(self) -> int:
        return int(self._fleet.rack_active[self._slot])

    @_active_count.setter
    def _active_count(self, value: int) -> None:
        self._fleet.rack_active[self._slot] = value

    def _count_q(self) -> int:
        return int(quanta_array(self._fleet.power[self._lo:self._hi]).sum())
