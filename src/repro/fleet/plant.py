"""Structure-of-arrays vector plant: the fleet as numpy columns.

A plain :class:`~repro.cluster.server.Server` per machine caps
co-simulations around a few thousand servers — every dispatch tick
walks Python objects.  The vector plant, which every facility that
``DataCenterSpec.build`` makes runs on, inverts the layout: all
per-server *hot* state (lifecycle code, P-/T-state, offered load,
capacity, wall power, cap, zone id, rack slot, energy) lives in
preallocated numpy arrays owned by a :class:`VectorFleet`, and
:class:`VectorServer` is a thin **view** whose hot attributes are
class-level properties redirecting into those columns.

Because the views redirect *storage only*, every inherited scalar code
path (state machine, capping search, power funnel) runs unchanged and
bit-identically; the batch entry points in
:mod:`repro.fleet.aggregates` replace whole loops with array passes
that replay the exact same IEEE operation sequence (left folds via
``np.cumsum``, elementwise min/clip, sequential ``np.bincount``).  The
vector-fleet tests pin each kernel against plain ``Server`` twins.

Rack and pool power are the scalar aggregates' exact ledger: integer
sums of :data:`~repro.cluster.server.QUANTUM_W` quanta, an int64
``rack_q`` column per rack and a Python int in the pool.  A batch
folds its rows' changes in quanta (:meth:`VectorFleet._fold_power`) —
one ``np.add.reduceat`` per rack group and one sum for the pool —
and integer addition gives the same bits in any row order, so a run,
a scattered set and the stop kernel's victim order share that one
fold.  The fleet refuses, when it adopts a model, a size whose
largest possible sum would overflow int64.

A fleet is wired one way, and the wiring is checked as it is built,
never at run time:

* **one power model** — every server shares the P/T-state table
  contents and nonlinearity of the first model installed (per-server
  idle/dynamic watts are columns and may differ); a model with other
  contents raises ``ValueError``;
* **contiguous racks, then one pool** — ``make_aggregate`` claims
  disjoint contiguous row ranges as racks, then one whole-fleet pool
  aggregate once every row has a rack; anything else raises
  ``ValueError``;
* **two watchers per server** — ``VectorServer.add_watcher`` accepts
  the server's rack aggregate, then the fleet's pool aggregate, and
  raises ``TypeError`` for anything else.

So every batch kernel can fold into exactly one rack and one pool —
including the transition kernel, :meth:`VectorFleet.start_many` (boot
and wake) and :meth:`VectorFleet.park_many` (sleep, shut down, fail or
repair), which the On/Off controllers, the macro manager, the fault
engine and plant bring-up call instead of walking servers one by one,
and the capping kernels :meth:`VectorFleet.apply_caps` and
:meth:`VectorFleet.lift_caps`, which the power capper calls instead.
A linear model takes one fused pass; a non-linear one evaluates its
shape with element-wise ``math.pow`` (libm) rather than ``np.power``,
because Python's ``u ** r`` and ``np.power`` differ by 1 ulp on some
inputs — the element-wise path is bit-identical to the scalar model.
"""

from __future__ import annotations

import itertools
import math
import typing

import numpy as np

from repro.cluster.server import Server, ServerState
from repro.power.models import ServerPowerModel
from repro.sim import Environment

__all__ = ["VectorFleet", "VectorServer", "EnergyMeter"]

#: Lifecycle codes, in enum declaration order (OFF=0 .. FAILED=5).
_STATES: tuple[ServerState, ...] = tuple(ServerState)
_STATE_TO_CODE: dict[ServerState, int] = {s: i for i, s in enumerate(_STATES)}
C_OFF = _STATE_TO_CODE[ServerState.OFF]
C_BOOTING = _STATE_TO_CODE[ServerState.BOOTING]
C_ACTIVE = _STATE_TO_CODE[ServerState.ACTIVE]
C_SLEEPING = _STATE_TO_CODE[ServerState.SLEEPING]
C_WAKING = _STATE_TO_CODE[ServerState.WAKING]
C_FAILED = _STATE_TO_CODE[ServerState.FAILED]

#: ``park_many``'s resting states, each with the source states the
#: scalar call (``sleep``, ``shut_down`` / ``repair``, ``fail``)
#: accepts.
_PARK_SOURCES: dict[int, tuple[int, ...]] = {
    C_SLEEPING: (C_ACTIVE,),
    C_OFF: (C_ACTIVE, C_SLEEPING, C_FAILED),
    C_FAILED: tuple(range(len(_STATES))),
}


def run_rows(idx: np.ndarray):
    """``slice(lo, hi)`` when the strictly ascending rows ``idx`` are
    one contiguous run, else ``idx`` — so a contiguous set is read and
    written through slice views instead of fancy gathers."""
    n = idx.size
    if n and int(idx[-1]) - int(idx[0]) + 1 == n:
        lo = int(idx[0])
        return slice(lo, lo + n)
    return idx


def quanta_array(watts: np.ndarray) -> np.ndarray:
    """Element-wise :func:`~repro.cluster.server.quanta`, as int64."""
    return np.rint(watts * 2.0 ** 32).astype(np.int64)


def _pow_elements(x: np.ndarray, r: float) -> np.ndarray:
    """Element-wise ``x ** r`` via libm — bit-identical to Python pow.

    ``np.power`` differs from CPython's ``float.__pow__`` by 1 ulp on
    some inputs, so the non-linear utilization shape must go through
    ``math.pow`` (the same libm call the scalar model makes) to keep
    batch evaluation bit-exact.
    """
    return np.fromiter(map(math.pow, x.tolist(), itertools.repeat(r)),
                       np.float64, count=x.size)


class EnergyMeter:
    """Constant-memory stand-in for a server's power :class:`Monitor`.

    A plain :class:`Server`'s Monitor keeps a full ``(time, value)``
    history; at 20k+ servers that is hundreds of MB nobody reads — the
    headline results only ever need ∫P dt.  The meter folds each held
    power segment into a running joule total at the moment the segment
    closes (exactly the step interpretation the Monitor integrates
    under) and holds no history.

    The *held* value is the fleet's cached power column: the power
    funnel records the new sample **before** updating the cache, so at
    ``record()`` time the column still holds the value that was in
    force since ``t_last`` — the same invariant batch mutators
    maintain when they flush energy before overwriting power.
    """

    __slots__ = ("_fleet", "_idx", "name", "_t0")

    def __init__(self, fleet: "VectorFleet", idx: int, name: str = ""):
        self._fleet = fleet
        self._idx = idx
        self.name = name
        self._t0 = float(fleet.env.now)
        fleet.t_last[idx] = self._t0

    def record(self, value: float, time: float | None = None) -> None:
        """Close the held segment at ``time`` (defaults to now)."""
        fleet = self._fleet
        i = self._idx
        t = fleet.env.now if time is None else float(time)
        last = fleet.t_last[i]
        if t < last:
            raise ValueError(
                f"sample at t={t} precedes last sample t={last}")
        fleet.energy_j[i] += fleet.power[i] * (t - last)
        fleet.t_last[i] = t

    @property
    def last(self) -> float:
        """Currently held power (the fleet's cached column)."""
        return float(self._fleet.power[self._idx])

    def integral(self, start: float | None = None,
                 end: float | None = None) -> float:
        """∫P dt from the meter's birth to ``end`` (joules).

        Only full-range queries are answered — the meter keeps no
        history, which is the point.  Windowed per-server energy needs
        a plain :class:`Server`, whose power Monitor keeps one.
        """
        if start is not None and start > self._t0:
            raise ValueError(
                "EnergyMeter keeps no history: ask for the full-range "
                "integral (start=None), or use a plain Server, whose "
                "power Monitor answers windowed integrals")
        fleet = self._fleet
        i = self._idx
        t = fleet.env.now if end is None else float(end)
        if t < fleet.t_last[i]:
            raise ValueError(
                f"end={t} precedes last sample t={fleet.t_last[i]}")
        return float(fleet.energy_j[i]
                     + fleet.power[i] * (t - fleet.t_last[i]))


class VectorFleet:
    """Preallocated per-server state columns plus batch kernels.

    Construct with the exact fleet size, then create ``n``
    :class:`VectorServer` views against it.  Aggregation objects are
    obtained through :meth:`make_aggregate` (racks claim contiguous
    slots, then the whole fleet gets one
    :class:`~repro.fleet.aggregates.VectorAggregate` pool).
    """

    def __init__(self, env: Environment, n: int):
        if n < 1:
            raise ValueError(f"fleet size must be >= 1, got {n}")
        self.env = env
        self.n = int(n)
        self.n_claimed = 0
        f8 = np.float64
        self.state_code = np.zeros(n, dtype=np.int8)
        self.offered = np.zeros(n, dtype=f8)
        self.power = np.zeros(n, dtype=f8)
        self.eff_cap = np.zeros(n, dtype=f8)
        self.capacity = np.zeros(n, dtype=f8)
        self.cap_w = np.full(n, np.nan, dtype=f8)   # NaN == uncapped
        self.energy_j = np.zeros(n, dtype=f8)
        self.t_last = np.zeros(n, dtype=f8)
        self.sleep_w = np.zeros(n, dtype=f8)
        self.idle_w = np.zeros(n, dtype=f8)
        self.cpu_dyn_w = np.zeros(n, dtype=f8)
        self.other_dyn_w = np.zeros(n, dtype=f8)
        self.off_w = np.zeros(n, dtype=f8)
        self.boot_w = np.zeros(n, dtype=f8)
        self.pstate = np.zeros(n, dtype=np.int16)
        self.tstate = np.zeros(n, dtype=np.int16)
        self.zone_id = np.full(n, -1, dtype=np.int32)
        self.rack_slot = np.full(n, -1, dtype=np.int32)
        #: Row -> server view.  A plain list, not an object array: the
        #: cycle collector cannot see through numpy object arrays, so
        #: the view -> fleet -> view cycle would never be freed.
        self.objs: list = [None] * n
        self.zone_names: list[str] = []
        self._zone_ids: dict[str, int] = {}
        #: Bumped whenever a dispatch-relevant column changes —
        #: lifecycle state, offered load, effective capacity,
        #: capacity, P/T-state, power cap.  The farm aggregate's
        #: fused-dispatch and mean-utilization/response memos key on
        #: it: an unchanged epoch proves the active set, the split
        #: inputs, and the per-server loads are all unchanged, so the
        #: whole sense pipeline for a repeated demand level is a
        #: cache hit.  Power/energy columns deliberately do *not*
        #: bump (they are outputs of dispatch, not inputs).
        self.mutation_epoch = 0
        # The fleet's one power model (see ``_adopt_model``):
        # fraction matrices of its P/T-state table as float64 arrays,
        # and its utilization-shape exponent.
        self._table = None
        self.cap_frac: np.ndarray | None = None
        self.dyn_frac: np.ndarray | None = None
        self.has_tstates = False
        self.n_pstates = 0
        self.nonlinearity = 1.0
        # Rack slots (amortized-doubling columns, like server rows):
        # each rack's power ledger in quanta and its active count.
        self.n_racks = 0
        cap = 8
        self.rack_q = np.zeros(cap, dtype=np.int64)
        self.rack_active = np.zeros(cap, dtype=np.int64)
        self.rack_aggs: list = []
        #: The whole-fleet pool aggregate, once one is made.
        self.pool_agg = None

    # ------------------------------------------------------------------
    # Row lifecycle
    # ------------------------------------------------------------------
    def _claim(self, server: "VectorServer") -> int:
        i = self.n_claimed
        if i >= self.n:
            raise ValueError(
                f"fleet is full ({self.n} rows); size it to the exact "
                f"server count at construction")
        self.n_claimed = i + 1
        self.objs[i] = server
        return i

    def build_servers(self, env: Environment,
                      names: typing.Sequence[str],
                      power_model: ServerPowerModel,
                      capacity: float = 100.0,
                      boot_s: float = 120.0,
                      wake_s: float = 15.0,
                      sleep_w: float = 10.0,
                      zone: str | None = None) -> list["VectorServer"]:
        """Bulk-construct OFF servers sharing one model on fresh rows.

        Field-for-field equivalent to constructing each
        :class:`VectorServer` in turn with the same arguments — same
        validations, same column state (held power is the model's off
        draw, energy meters zeroed at ``env.now``), same per-server
        Python objects (state log seeded with the OFF entry, empty
        watcher list, ``EnergyMeter`` monitor) — but the uniform-args
        checks are hoisted and every column write is one slice store,
        which is what makes building a 10\\ :sup:`5`-row plant cheap.
        """
        # Server.__init__'s validations, hoisted (the args are shared).
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if boot_s < 0 or wake_s < 0:
            raise ValueError("transition latencies cannot be negative")
        if sleep_w < 0 or sleep_w > power_model.peak_w:
            raise ValueError(f"sleep_w {sleep_w} outside [0, peak]")
        self._adopt_model(power_model)
        count = len(names)
        if count == 0:
            return []
        i0 = self.n_claimed
        if i0 + count > self.n:
            raise ValueError(
                f"fleet is full ({self.n} rows); size it to the exact "
                f"server count at construction")
        rows = slice(i0, i0 + count)
        now = float(env.now)
        bs = float(boot_s)
        ws = float(wake_s)
        off_state = ServerState.OFF
        objs = self.objs
        servers: list[VectorServer] = []
        append = servers.append
        new = object.__new__
        for k, name in enumerate(names):
            idx = i0 + k
            srv = new(VectorServer)
            d = srv.__dict__
            d["_fleet"] = self
            d["_idx"] = idx
            d["env"] = env
            d["name"] = name
            d["model"] = power_model
            d["boot_s"] = bs
            d["wake_s"] = ws
            d["_transition"] = None
            d["power_monitor"] = EnergyMeter(self, idx,
                                             name=f"{name}.power_w")
            d["state_log"] = [(now, off_state)]
            d["_watchers"] = []
            objs[idx] = srv
            append(srv)
        self.n_claimed = i0 + count
        # Column state after the scalar constructor chain: OFF row,
        # zeroed load/P/T/eff-cap, uncapped, meter seeded at ``now``
        # with the off draw held (the initial ``_record_power``).
        self.state_code[rows] = C_OFF
        self.capacity[rows] = float(capacity)
        self.sleep_w[rows] = float(sleep_w)
        self.zone_id[rows] = self._zone_code(zone)
        self.offered[rows] = 0.0
        self.pstate[rows] = 0
        self.tstate[rows] = 0
        self.cap_w[rows] = np.nan
        self.eff_cap[rows] = 0.0
        self.t_last[rows] = now
        self.energy_j[rows] = 0.0
        self.power[rows] = power_model.off_w
        # ``_install_model`` over the uniform model, one slice each.
        self.idle_w[rows] = power_model._idle_w
        self.cpu_dyn_w[rows] = power_model._cpu_dynamic_w
        self.other_dyn_w[rows] = power_model._other_dynamic_w
        self.off_w[rows] = power_model.off_w
        self.boot_w[rows] = power_model.boot_w
        self.mutation_epoch += 1
        return servers

    def _install_model(self, idx: int, model: ServerPowerModel) -> None:
        self._adopt_model(model)
        self.idle_w[idx] = model._idle_w
        self.cpu_dyn_w[idx] = model._cpu_dynamic_w
        self.other_dyn_w[idx] = model._other_dynamic_w
        self.off_w[idx] = model.off_w
        self.boot_w[idx] = model.boot_w

    def _adopt_model(self, model: ServerPowerModel) -> None:
        """Make ``model``'s state table the fleet's, or check it matches.

        The batch kernels read one P/T-state table and one
        nonlinearity.  A later model must match them by *contents* —
        distinct table objects with equal fraction matrices give
        bit-identical results — or the fleet refuses it.  So does a
        model whose largest draw, on every row at once, would overflow
        the int64 power ledger (2**63 quanta, about 2.1 GW).
        """
        draw = max(model.peak_w, model.boot_w)
        if self.n * draw >= 2.0 ** 31:
            raise ValueError(
                f"{self.n} rows drawing up to {draw} W overflow the "
                f"fleet's int64 power ledger (2**31 W in all)")
        table = model.pstates
        r = float(model.nonlinearity)
        known = self._table
        if known is None:
            self._table = table
            self.cap_frac = np.array(table._cap_frac, dtype=np.float64)
            self.dyn_frac = np.array(table._dyn_frac, dtype=np.float64)
            self.has_tstates = bool(table.tstates)
            self.n_pstates = len(table.pstates)
            self.nonlinearity = r
            return
        if r == self.nonlinearity and (table is known or (
                bool(table.tstates) == self.has_tstates
                and table._cap_frac == known._cap_frac
                and table._dyn_frac == known._dyn_frac)):
            return
        raise ValueError(
            "a vector fleet runs one power model: this model's P/T-state "
            "table or nonlinearity differs from the fleet's")

    def _zone_code(self, name: str | None) -> int:
        if name is None:
            return -1
        zid = self._zone_ids.get(name)
        if zid is None:
            zid = self._zone_ids[name] = len(self.zone_names)
            self.zone_names.append(name)
        return zid

    # ------------------------------------------------------------------
    # Aggregate construction
    # ------------------------------------------------------------------
    def make_aggregate(self, servers: typing.Sequence, kind: str = "pool"):
        """The vectorized aggregate of ``kind`` over ``servers``.

        ``kind="rack"`` claims a contiguous row range no other rack
        holds; ``kind="pool"`` covers the whole fleet, once, after
        every row has a rack.  Anything else — foreign or
        non-contiguous servers, overlapping racks, sub-pools, a second
        pool, a pool before the racks — raises ``ValueError``.
        """
        from repro.fleet.aggregates import (
            VectorAggregate,
            VectorRackAggregate,
        )
        if kind not in ("rack", "pool"):
            raise ValueError(f"unknown aggregate kind {kind!r}")
        idxs = [getattr(s, "_idx", -1) for s in servers]
        if not idxs:
            raise ValueError(f"a {kind} aggregate needs servers")
        lo, hi = idxs[0], idxs[-1] + 1
        objs = self.objs
        if (lo < 0 or hi > self.n or idxs != list(range(lo, hi))
                or any(objs[i] is not s for i, s in zip(idxs, servers))):
            raise ValueError(
                f"a {kind} aggregate needs a contiguous run of this "
                f"fleet's servers, in row order")
        if kind == "rack":
            if bool((self.rack_slot[lo:hi] >= 0).any()):
                raise ValueError(
                    f"rows {lo}..{hi - 1} overlap an existing rack")
            return VectorRackAggregate(self, lo, hi, servers)
        if lo != 0 or hi != self.n:
            raise ValueError(
                f"a pool aggregate covers the whole fleet ({self.n} "
                f"rows), not rows {lo}..{hi - 1}")
        if self.pool_agg is not None:
            raise ValueError("the fleet already has a pool aggregate")
        if bool((self.rack_slot < 0).any()):
            raise ValueError(
                "build every rack before the pool aggregate")
        return VectorAggregate(self, servers)

    def _register_rack(self, agg, lo: int, hi: int) -> int:
        slot = self.n_racks
        if slot == len(self.rack_q):
            cap = 2 * slot
            for attr in ("rack_q", "rack_active"):
                old = getattr(self, attr)
                new = np.zeros(cap, dtype=old.dtype)
                new[:slot] = old
                setattr(self, attr, new)
        self.rack_slot[lo:hi] = slot
        self.rack_aggs.append(agg)
        self.n_racks = slot + 1
        return slot

    # ------------------------------------------------------------------
    # Batch power kernel (bit-identical to the scalar model)
    # ------------------------------------------------------------------
    def _table_index(self, p, t) -> tuple:
        """(p, t) as indices into the fraction matrices.

        Uniform P-/T-state columns (the common case after a batch
        command) collapse to one scalar table lookup — the same entry
        every row would gather, so the broadcast result is
        element-for-element identical.  Tables without T-states read
        column 0 whatever the commanded T-state, like the scalar
        lookup.
        """
        if isinstance(p, np.ndarray) and p.size and (p == p[0]).all():
            p = int(p[0])
        if not self.has_tstates:
            t = 0
        elif isinstance(t, np.ndarray) and t.size and (t == t[0]).all():
            t = int(t[0])
        return p, t

    def _active_power(self, idx, offered: np.ndarray, eff: np.ndarray,
                      p, t) -> np.ndarray:
        """Wall power of ACTIVE rows — the scalar model, vectorized.

        Replays ``ServerPowerModel.power`` term for term: same
        divisions, same clamps, same left-to-right products, so each
        element is the bit-exact scalar result.  ``eff`` must be the
        effective capacity at the queried (p, t) — strictly positive
        for ACTIVE rows.  A linear model takes one fused pass; a
        non-linear one shapes utilization through element-wise libm
        pow.
        """
        p, t = self._table_index(p, t)
        cap = self.cap_frac[p, t]
        scale = self.dyn_frac[p, t]
        u = np.minimum(offered / eff, 1.0)
        tt = np.clip(u * cap, 0.0, 1.0)
        r = self.nonlinearity
        if r != 1.0:
            u = np.minimum(2.0 * u - _pow_elements(u, r), 1.0)
            tt = np.minimum(2.0 * tt - _pow_elements(tt, r), 1.0)
        return (self.idle_w[idx] + u * self.cpu_dyn_w[idx] * scale
                + tt * self.other_dyn_w[idx])

    def _cap_fractions(self, p, t):
        """Capacity fraction at (p, t) — the batch twin of
        ``PStateTable.capacity_fraction``."""
        p, t = self._table_index(p, t)
        return self.cap_frac[p, t]

    def _fold_power(self, rows, oldp: np.ndarray,
                    newp: np.ndarray) -> None:
        """Fold per-row power changes into the racks and, once attached,
        the pool — the watcher half of the scalar power funnel.

        Entry ``j`` says row ``rows[j]`` went from ``oldp[j]`` to
        ``newp[j]``; ``rows`` is a slice or an index array in any order
        (a run, a scattered ascending set, the stop kernel's descending
        victims).  The change in quanta is summed over each stretch of
        one rack's rows with ``np.add.reduceat`` and over the batch for
        the pool: integer sums, so the ledgers land on the bits the
        scalar funnel's one-row-at-a-time pushes reach, whatever the
        order.
        """
        dq = quanta_array(newp) - quanta_array(oldp)
        if not dq.any():
            return
        slots = self.rack_slot[rows]
        starts = np.concatenate(
            ([0], np.flatnonzero(slots[1:] != slots[:-1]) + 1))
        np.add.at(self.rack_q, slots[starts], np.add.reduceat(dq, starts))
        pool = self.pool_agg
        if pool is not None:
            pool._q += int(dq.sum())

    # ------------------------------------------------------------------
    # Read-only fleet scans
    # ------------------------------------------------------------------
    def gather(self, rows: np.ndarray) -> list:
        """The server views at ``rows``, in row order."""
        objs = self.objs
        return [objs[i] for i in rows.tolist()]

    def committed_count(self) -> int:
        """Servers committed to serving: ACTIVE | BOOTING | WAKING."""
        code = self.state_code
        return int(np.count_nonzero((code == C_ACTIVE)
                                    | (code == C_BOOTING)
                                    | (code == C_WAKING)))

    def startable_rows(self, quarantined, count: int) -> np.ndarray:
        """The first ``count`` startable rows, SLEEPING before OFF, in
        pool order, skipping quarantined zones — the On/Off scan.

        One scan equals ``count`` repeated single picks because
        starting a server only removes *it* from the candidates.
        """
        if count <= 0:
            return np.zeros(0, dtype=np.int64)
        code = self.state_code
        eligible = None
        if quarantined:
            qids = [self._zone_ids[z] for z in quarantined
                    if z in self._zone_ids]
            if qids:
                eligible = ~np.isin(self.zone_id, qids)
        picked = []
        for target in (C_SLEEPING, C_OFF):
            mask = code == target
            if eligible is not None:
                mask &= eligible
            hits = np.flatnonzero(mask)[:count]
            picked.append(hits)
            count -= hits.size
            if count <= 0:
                break
        return np.concatenate(picked)

    def demand_column(self) -> np.ndarray:
        """``demand_w()`` of every row — its draw with no cap (a
        fresh array)."""
        return self._draws_at(None)

    def total_demand_w(self) -> float:
        """Uncapped fleet demand (the capper input): ``demand_w()``
        summed over the rows in pool order."""
        return float(np.cumsum(self.demand_column())[-1])

    def uncap_candidates(self) -> np.ndarray:
        """Rows where ``remove_cap()`` is not a no-op, in pool order."""
        return np.flatnonzero(~np.isnan(self.cap_w) | (self.tstate != 0))

    # ------------------------------------------------------------------
    # Capping kernels (the capper's fleet path)
    # ------------------------------------------------------------------
    def _draws_at(self, tstate: int | None) -> np.ndarray:
        """Every row's draw with ACTIVE rows at ``tstate``: at ``None``
        (T0, uncapped) the non-ACTIVE rows draw their state's power,
        as ``demand_w()`` says; at a T-state they hold their cached
        power, as ``min_power_w()`` says."""
        code = self.state_code
        if tstate is None:
            draw = self.off_w.copy()            # OFF and FAILED rows
            mask = (code == C_BOOTING) | (code == C_WAKING)
            draw[mask] = self.boot_w[mask]
            mask = code == C_SLEEPING
            draw[mask] = self.sleep_w[mask]
            tstate = 0
        else:
            draw = self.power.copy()
        active = np.flatnonzero(code == C_ACTIVE)
        if active.size:
            # ``flatnonzero`` rows are ascending and unique, so a
            # full-coverage active set IS ``arange(n)``: slice views
            # replace every per-column gather.
            rows = slice(None) if active.size == code.size else active
            p = self.pstate[rows]
            eff = self.capacity[rows] * self._cap_fractions(p, tstate)
            draw[rows] = self._active_power(rows, self.offered[rows], eff,
                                            p, tstate)
        return draw

    def cap_floors(self) -> np.ndarray:
        """``min_power_w()`` of every row: ACTIVE rows at the deepest
        T-state (T0 for a table without T-states), the rest at their
        held draw."""
        return self._draws_at(self.cap_frac.shape[1] - 1)

    def lift_caps(self, draws: np.ndarray) -> None:
        """``remove_cap()`` on every row, in bulk.

        ``draws`` is :meth:`demand_column` as of now: each row's power
        once lifted.  Only rows with a cap or a T-state set are
        touched, as the scalar call returns early on the rest.
        """
        self._lift(self.uncap_candidates(), draws)

    def _lift(self, rows: np.ndarray, draws: np.ndarray) -> None:
        """Clear the cap and T-state of ``rows``; record them at their
        uncapped ``draws``."""
        if rows.size:
            self.cap_w[rows] = np.nan
            self._record(rows, 0, draws[rows])

    def _record(self, rows: np.ndarray, tstates, newp: np.ndarray) -> None:
        """``_record_power`` for ``rows`` moved to ``tstates`` and
        drawing ``newp``: a meter flush, fresh effective capacity,
        the new power and the ledger fold."""
        oldp = self._flush(rows, self.env.now)
        self.tstate[rows] = tstates
        eff = self.capacity[rows] * self._cap_fractions(self.pstate[rows],
                                                        tstates)
        self.eff_cap[rows] = np.where(self.state_code[rows] == C_ACTIVE,
                                      eff, 0.0)
        self.power[rows] = newp
        self.mutation_epoch += 1
        self._fold_power(rows, oldp, newp)

    def apply_caps(self, shares: np.ndarray,
                   draws: np.ndarray) -> np.ndarray:
        """``apply_cap(share)`` on every row whose draw exceeds its
        share and ``remove_cap()`` on the rest, in bulk; returns each
        row's delivered draw — ``apply_cap``'s return value on a
        throttled row, its draw on the others.

        A throttled non-ACTIVE row only records its cap.  A throttled
        ACTIVE row takes the first T-state whose draw fits under its
        share (the deepest if none does) and is recorded there.
        """
        hot = np.flatnonzero(draws > shares)
        delivered = draws.copy()
        if hot.size:
            self.cap_w[hot] = shares[hot]
            self.mutation_epoch += 1
            delivered[hot] = self.power[hot]
            run = hot[self.state_code[hot] == C_ACTIVE]
            if run.size:
                tstates, newp = self._fit_tstates(run, shares[run])
                self._record(run, tstates, newp)
                delivered[run] = newp
        lift = self.uncap_candidates()
        self._lift(lift[draws[lift] <= shares[lift]], draws)
        return delivered

    def _fit_tstates(self, rows: np.ndarray,
                     watts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``apply_cap``'s T-state search on ACTIVE ``rows``: the
        first T-state whose draw is at most ``watts``, else the
        deepest, with the draw there.  Each pass evaluates only the
        rows still searching.  A table without T-states yields -1,
        the scalar loop's fall-through value, at the T0 draw."""
        deepest = (self.cap_frac.shape[1] if self.has_tstates else 0) - 1
        tstates = np.full(rows.size, deepest, dtype=np.int64)
        power = np.empty(rows.size, dtype=np.float64)
        left = np.arange(rows.size)
        last = max(deepest, 0)
        for t in range(last + 1):
            r = rows[left]
            p = self.pstate[r]
            eff = self.capacity[r] * self._cap_fractions(p, t)
            draw = self._active_power(r, self.offered[r], eff, p, t)
            if t == last:
                power[left] = draw
                break
            fit = draw <= watts[left]
            tstates[left[fit]] = t
            power[left[fit]] = draw[fit]
            left = left[~fit]
            if not left.size:
                break
        return tstates, power

    # ------------------------------------------------------------------
    # Transition kernel: boot, wake, drain + sleep/shut down
    # ------------------------------------------------------------------
    def start_many(self, rows) -> list:
        """Start OFF and SLEEPING rows: ``power_on()`` / ``wake()`` in bulk.

        ``rows`` is the start order: ascending runs of one source state
        (the controllers pass the lowest SLEEPING rows, then the lowest
        OFF rows).  Replays exactly what ``power_on()`` on each OFF row
        and ``wake()`` on each SLEEPING row, in that order, would do —
        the state-log entries, EnergyMeter flushes, rack and pool
        ledger folds and the stale-timer guard — with
        the per-row work in column operations and one completion timer
        per run and delay instead of one process per server.  Each
        server's ``_transition`` is its timer, so ``power_on()`` or
        ``wake()`` on a row still in transition returns it.

        Every row must be this fleet's, racked, OFF or SLEEPING, with
        positive capacity at its P/T-state, and appear once, each run
        ascending; otherwise ``ValueError`` is raised before anything
        changes.  Returns the timers in the order they were started.
        """
        rows = self._check_rows(rows, "start_many")
        code = self.state_code[rows]
        if not ((code == C_OFF) | (code == C_SLEEPING)).all():
            raise ValueError("start_many starts OFF and SLEEPING rows only")
        cuts = np.flatnonzero(code[1:] != code[:-1]) + 1
        rising = np.diff(rows) > 0
        rising[cuts - 1] = True
        if not rising.all() or np.unique(rows).size != rows.size:
            raise ValueError(
                "start_many rows appear once, each run of one source "
                "state ascending")
        eff = self.capacity[rows] * self._cap_fractions(self.pstate[rows],
                                                        self.tstate[rows])
        if not (eff > 0.0).all():
            raise ValueError("start_many needs positive capacity")
        timers: list = []
        for run in np.split(rows, cuts):
            timers.extend(self._start_run(run))
        return timers

    def park_many(self, rows, state: ServerState) -> None:
        """Move rows into the resting ``state``, in bulk.

        ``rows`` is the victim order, strictly descending, as
        :meth:`rows_in` returns them.  Replays the scalar call per row
        in that order:

        ========  ==================  ==============================
        state     from                scalar call
        ========  ==================  ==============================
        SLEEPING  ACTIVE              ``set_offered_load(0.0)``, then
                                      ``sleep()``
        OFF       ACTIVE, SLEEPING    ``shut_down()``
        OFF       FAILED              ``repair()``
        FAILED    any                 ``fail()``
        ========  ==================  ==============================

        A drained row's intermediate power is held for zero seconds,
        so neither the meters nor the integer ledger can tell it was
        there, and it is never evaluated.  A row in transition keeps
        its timer, which completes only a row still in its interim
        state.  Rows that are not this fleet's, racked, in a source
        state and strictly descending raise ``ValueError`` before
        anything changes.
        """
        final = _STATE_TO_CODE[state]
        sources = _PARK_SOURCES.get(final)
        if sources is None:
            raise ValueError(f"park_many parks rows sleeping, off or "
                             f"failed, not {state.value}")
        rows = self._check_rows(rows, "park_many")
        if (np.diff(rows) >= 0).any():
            raise ValueError("park_many rows are strictly descending")
        code = self.state_code[rows]
        if not np.isin(code, sources).all():
            raise ValueError(
                f"park_many parks {state.value} rows from "
                f"{', '.join(_STATES[c].value for c in sources)} only")
        now = self.env.now
        oldp = self._flush(rows, now)
        self.offered[rows] = 0.0
        entry = (now, state)
        for s in self.gather(rows):
            s.state_log.append(entry)
        self.state_code[rows] = final
        self._note_states(rows, -(code == C_ACTIVE).astype(np.int64))
        self.eff_cap[rows] = 0.0
        newp = (self.sleep_w if final == C_SLEEPING else self.off_w)[rows]
        self.power[rows] = newp
        self._fold_power(rows, oldp, newp)

    def rows_in(self, states, zone: str | None = None, lo: int = 0,
                hi: int | None = None) -> np.ndarray:
        """Rows of ``lo:hi`` in one of ``states`` (and in ``zone``,
        when one is named), strictly descending — the order
        :meth:`park_many` takes.

        ``hi`` defaults to the claimed rows: an unclaimed row's code
        reads as OFF.  A zone no row was built in matches nothing.
        """
        hi = self.n_claimed if hi is None else hi
        mask = np.isin(self.state_code[lo:hi],
                       [_STATE_TO_CODE[s] for s in states])
        if zone is not None:
            # -2 is no row's zone id (-1 is "no zone").
            mask &= self.zone_id[lo:hi] == self._zone_ids.get(zone, -2)
        return np.flatnonzero(mask)[::-1] + lo

    def _check_rows(self, rows, what: str) -> np.ndarray:
        rows = np.array(rows, dtype=np.int64, ndmin=1)
        if rows.size == 0:
            raise ValueError(f"{what} needs at least one row")
        if int(rows.min()) < 0 or int(rows.max()) >= self.n_claimed:
            raise ValueError(f"{what} rows must be this fleet's servers")
        if (self.rack_slot[rows] < 0).any():
            raise ValueError(f"{what} needs racked rows")
        return rows

    def _flush(self, rows: np.ndarray, now: float) -> np.ndarray:
        """Close the held EnergyMeter segments; returns (a copy of) the
        held power."""
        oldp = self.power[rows].copy()
        self.energy_j[rows] += oldp * (now - self.t_last[rows])
        self.t_last[rows] = now
        return oldp

    def _note_states(self, rows: np.ndarray, dactive) -> None:
        """The watchers' side of ``_set_state`` for a batch of rows:
        drop the rack and pool rosters and move each active count by
        ``dactive`` per row (one int for all, or an int per row)."""
        self.mutation_epoch += 1
        slots = self.rack_slot[rows]
        for slot in np.unique(slots).tolist():
            self.rack_aggs[slot]._active_cache = None
        dactive = np.broadcast_to(dactive, rows.shape)
        if dactive.any():
            np.add.at(self.rack_active, slots, dactive)
        pool = self.pool_agg
        if pool is not None:
            pool._active_cache = None
            pool._active_idx = None
            pool._active_count += int(dactive.sum())

    def _start_run(self, run: np.ndarray) -> list:
        """OFF→BOOTING or SLEEPING→WAKING for an ascending run of rows
        in one source state; returns its completion timers."""
        if self.state_code[run[0]] == C_OFF:
            interim, attr = C_BOOTING, "boot_s"
        else:
            interim, attr = C_WAKING, "wake_s"
        now = self.env.now
        objs = self.gather(run)
        entry = (now, _STATES[interim])
        for s in objs:
            s.state_log.append(entry)
        self.state_code[run] = interim
        self._note_states(run, 0)
        oldp = self._flush(run, now)
        self.eff_cap[run] = 0.0
        newp = self.boot_w[run]
        self.power[run] = newp
        self._fold_power(run, oldp, newp)
        # One timer per delay, started in order of first appearance:
        # same-time completions then run in start order, as the
        # per-server timers would.
        delays = [getattr(s, attr) for s in objs]
        if delays.count(delays[0]) == len(delays):
            return [self._start_timer(run, objs, interim, delays[0])]
        groups: dict = {}
        for k, delay in enumerate(delays):
            groups.setdefault(delay, []).append(k)
        return [self._start_timer(run[ks], [objs[k] for k in ks],
                                  interim, delay)
                for delay, ks in groups.items()]

    def _start_timer(self, rows: np.ndarray, objs: list, interim: int,
                     delay: float):
        fleet = self

        def body(env):
            yield env.timeout(delay)
            fleet._finish(rows, objs, interim, proc)

        proc = self.env.process(body(self.env),
                                name=f"fleet:{_STATES[interim].value}")
        for s in objs:
            s._transition = proc
        return proc

    def _finish(self, rows: np.ndarray, objs: list, interim: int,
                proc) -> None:
        """Complete ``proc``'s transitions: the scalar guard, batched.

        A row completes only while ``proc`` still owns it and it is
        still in ``interim`` — a fail() keeps its new state, and after
        fail → repair → restart the newer transition owns the row.
        """
        mine = np.zeros(len(objs), dtype=bool)
        for k, s in enumerate(objs):
            if s._transition is proc:
                s._transition = None
                mine[k] = True
        mine &= self.state_code[rows] == interim
        if not mine.all():
            rows = rows[mine]
            objs = [s for s, keep in zip(objs, mine.tolist()) if keep]
        if rows.size == 0:
            return
        now = self.env.now
        entry = (now, _STATES[C_ACTIVE])
        for s in objs:
            s.state_log.append(entry)
        self.state_code[rows] = C_ACTIVE
        self._note_states(rows, 1)
        p = self.pstate[rows]
        t = self.tstate[rows]
        eff = self.capacity[rows] * self._cap_fractions(p, t)
        oldp = self._flush(rows, now)
        self.eff_cap[rows] = eff
        newp = self._active_power(rows, self.offered[rows], eff, p, t)
        self.power[rows] = newp
        self._fold_power(rows, oldp, newp)

    def __repr__(self) -> str:
        return (f"<VectorFleet n={self.n} claimed={self.n_claimed} "
                f"racks={self.n_racks} nonlinearity={self.nonlinearity}>")


def _column_property(column: str, doc: str, cast=float,
                     tracked: bool = False):
    """Column accessor: reads ``cast`` the element to a plain Python
    number (``float`` or ``int``), writes store directly.

    ``tracked`` columns are dispatch inputs: their setters bump the
    fleet's :attr:`~VectorFleet.mutation_epoch` so the farm
    aggregate's memos invalidate.
    """

    def fget(self):
        return cast(getattr(self._fleet, column)[self._idx])

    if tracked:
        def fset(self, value):
            fleet = self._fleet
            getattr(fleet, column)[self._idx] = value
            fleet.mutation_epoch += 1
    else:
        def fset(self, value):
            getattr(self._fleet, column)[self._idx] = value

    return property(fget, fset, doc=doc)


class VectorServer(Server):
    """A :class:`Server` whose hot state lives in fleet columns.

    Everything behavioural is inherited; the class-level properties
    below redirect reads and writes of the hot attributes into the
    owning :class:`VectorFleet`'s arrays, so scalar code paths stay
    bit-identical while batch kernels see every server's state
    contiguously.
    """

    def __init__(self, fleet: VectorFleet, env: Environment, name: str,
                 **kwargs):
        self._fleet = fleet
        self._idx = fleet._claim(self)
        super().__init__(env, name, **kwargs)
        fleet._install_model(self._idx, self.model)

    def add_watcher(self, watcher) -> None:
        """Register this server's rack aggregate, then the fleet's pool.

        Those are the only two watchers the batch kernels fold into,
        so anything else raises ``TypeError``.
        """
        fleet = self._fleet
        watchers = self._watchers
        if len(watchers) == 0:
            slot = fleet.rack_slot[self._idx]
            expected = fleet.rack_aggs[slot] if slot >= 0 else None
        elif len(watchers) == 1:
            expected = fleet.pool_agg
        else:
            expected = None
        if expected is None or watcher is not expected:
            raise TypeError(
                f"vector server {self.name} is watched by its rack "
                f"aggregate, then the fleet's pool aggregate; "
                f"{type(watcher).__name__} cannot watch it")
        super().add_watcher(watcher)

    def _make_power_monitor(self):
        return EnergyMeter(self._fleet, self._idx,
                           name=f"{self.name}.power_w")

    # -- lifecycle state (code column <-> enum singletons) -------------
    @property
    def _state(self) -> ServerState:
        return _STATES[self._fleet.state_code[self._idx]]

    @_state.setter
    def _state(self, value: ServerState) -> None:
        fleet = self._fleet
        fleet.state_code[self._idx] = _STATE_TO_CODE[value]
        fleet.mutation_epoch += 1

    # -- cap (NaN column <-> None) --------------------------------------
    @property
    def _cap_w(self) -> float | None:
        value = self._fleet.cap_w[self._idx]
        return None if np.isnan(value) else float(value)

    @_cap_w.setter
    def _cap_w(self, value: float | None) -> None:
        self._fleet.cap_w[self._idx] = (np.nan if value is None
                                        else value)
        self._fleet.mutation_epoch += 1

    # -- thermal zone (interned name <-> id column) ---------------------
    @property
    def zone(self) -> str | None:
        zid = self._fleet.zone_id[self._idx]
        return None if zid < 0 else self._fleet.zone_names[zid]

    @zone.setter
    def zone(self, name: str | None) -> None:
        self._fleet.zone_id[self._idx] = self._fleet._zone_code(name)

    # -- plain float / int columns --------------------------------------
    _offered_load = _column_property("offered", "Offered load column.",
                                     tracked=True)
    _power_w = _column_property("power", "Cached wall-power column.")
    _eff_cap = _column_property("eff_cap", "Effective-capacity column.",
                                tracked=True)
    capacity = _column_property("capacity", "P0 capacity column.",
                                tracked=True)
    sleep_w = _column_property("sleep_w", "Sleep-draw column.")
    _pstate = _column_property("pstate", "P-state column.", int,
                               tracked=True)
    _tstate = _column_property("tstate", "T-state column.", int,
                               tracked=True)
