"""The machine room: zones × CRACs coupled by a sensitivity matrix.

This is the co-simulation glue for the paper's cooling story: server
heat lands in zones, CRACs regulate on the return air *they see*, and
the conductance (sensitivity) matrix decides who actually gets cold
air.  A :class:`MachineRoom` runs as a process on the simulation
environment, stepping the thermal ODEs on a fine grid while the CRACs
decide on their own slow 15-minute schedule.

The room owns its zones' state as float columns in zone order —
``temp_c``, ``heat_load_w``, ``capacitance`` and ``alarm_temp_c`` —
and every zone handed to it becomes a view on its row.  One step
advances all zones in one fused update, checks alarms with one
vector compare, and records each zone's monitor; the room's queries
read the same columns.  :meth:`ThermalZone.step` on standalone zones
is the scalar reference the fused update matches bit for bit.
"""

from __future__ import annotations

import math
import typing

import numpy as np

from repro.cooling.crac import CRACUnit
from repro.cooling.zone import ThermalZone
from repro.sim import Environment, Monitor

__all__ = ["MachineRoom", "ThermalAlarm"]


class ThermalAlarm(typing.NamedTuple):
    """A zone crossed its protective temperature threshold."""

    time_s: float
    zone: str
    temp_c: float


class MachineRoom:
    """Zones and CRACs coupled through a conductance matrix.

    ``conductance_w_per_k[i][j]`` is the thermal conductance between
    zone ``i`` and CRAC ``j`` — the sensitivity structure of §5.1.
    Rows with one dominant entry mean the zone depends on a single
    CRAC; columns with one dominant entry mean the CRAC's return air
    (and therefore its control decisions) reflect mostly that zone.
    """

    def __init__(self, env: Environment,
                 zones: typing.Sequence[ThermalZone],
                 cracs: typing.Sequence[CRACUnit],
                 conductance_w_per_k: typing.Sequence[typing.Sequence[float]],
                 step_s: float = 30.0):
        matrix = np.asarray(conductance_w_per_k, dtype=float)
        if matrix.shape != (len(zones), len(cracs)):
            raise ValueError(
                f"conductance matrix shape {matrix.shape} does not match "
                f"{len(zones)} zones x {len(cracs)} CRACs")
        if (matrix < 0).any():
            raise ValueError("conductances must be non-negative")
        if step_s <= 0:
            raise ValueError("step must be positive")
        self.env = env
        self.zones = list(zones)
        self.cracs = list(cracs)
        #: Zone state columns, in zone order; each zone reads its row.
        #: A column may be replaced whole by a float array of the same
        #: shape (the facility's physical sync sets ``heat_load_w``).
        self.temp_c = np.array([z.temp_c for z in self.zones], dtype=float)
        self.heat_load_w = np.array([z.heat_load_w for z in self.zones],
                                    dtype=float)
        self.capacitance = np.array([z.capacitance for z in self.zones],
                                    dtype=float)
        self.alarm_temp_c = np.array([z.alarm_temp_c for z in self.zones],
                                     dtype=float)
        for row, zone in enumerate(self.zones):
            zone._attach(self, row)
        self.conductance = matrix
        #: Design-time coupling, kept so failed CRACs can be repaired.
        self._nominal_conductance = matrix.copy()
        self.failed_cracs: set[int] = set()
        self.step_s = float(step_s)
        self.alarms: list[ThermalAlarm] = []
        self._alarm_callbacks: list[typing.Callable[[ThermalAlarm], None]] = []
        #: Zones latched in alarm (set on crossing, cleared on recovery).
        self._latched = np.zeros(len(self.zones), dtype=bool)
        self.zone_monitors = {z.name: Monitor(env, f"zone.{z.name}.temp_c")
                              for z in self.zones}
        self.mechanical_monitor = Monitor(env, "room.mechanical_w")
        #: The zone monitors in zone order, for the per-step records.
        self._zone_monitor_list = [self.zone_monitors[z.name]
                                   for z in self.zones]
        #: Per-CRAC conductance column sums; the matrix only changes
        #: through fail/repair, which invalidate this cache.
        self._col_totals: list | None = None

    def on_alarm(self, callback: typing.Callable[[ThermalAlarm], None]) -> None:
        """Register a callback fired on each new thermal alarm.

        The macro layer uses this to shut down / shed the affected
        servers, mirroring the protective behaviour of §2.2.
        """
        self._alarm_callbacks.append(callback)

    # ------------------------------------------------------------------
    def zone_temps(self) -> np.ndarray:
        """A copy of the current zone temperatures, in zone order."""
        return self.temp_c.copy()

    def return_temp_c(self, crac_index: int,
                      temps: np.ndarray | None = None) -> float:
        """Return-air temperature a CRAC senses.

        Conductance-weighted mix of zone temperatures: the CRAC
        ingests more air from the zones it is strongly coupled to.
        ``temps`` defaults to the room's temperature column.
        """
        column = self.conductance[:, crac_index]
        totals = self._col_totals
        if totals is None:
            # Same per-column ``column.sum()`` reduction, cached until
            # a fail/repair rewrites the matrix.
            totals = self._col_totals = [
                self.conductance[:, j].sum()
                for j in range(len(self.cracs))]
        total = totals[crac_index]
        if temps is None:
            temps = self.temp_c
        if total <= 0:
            # A disconnected CRAC senses generic room air.
            return float(np.mean(temps))
        return float((column * temps).sum() / total)

    def crac_heat_w(self, temps: np.ndarray | None = None) -> np.ndarray:
        """Heat each CRAC currently extracts, in unit order.

        Entry ``j`` is ``max(T - supply_j, 0) @ G[:, j]`` over the
        zones, and 0.0 for a failed unit.  ``temps`` defaults to the
        room's temperature column.
        """
        if temps is None:
            temps = self.temp_c
        matrix = self.conductance
        # One broadcast subtract+clip for all units (element-wise IEEE
        # ops), then one ``@`` fold per column.
        supplies = np.array([c.supply_temp_c for c in self.cracs])
        clipped = np.maximum(temps[:, None] - supplies, 0.0)
        heat = np.zeros(len(self.cracs))
        for j in range(len(self.cracs)):
            if j not in self.failed_cracs:
                heat[j] = clipped[:, j] @ matrix[:, j]
        return heat

    def heat_removed_w(self, crac_index: int,
                       temps: np.ndarray | None = None) -> float:
        """Heat the CRAC currently extracts from its coupled zones."""
        return float(self.crac_heat_w(temps)[crac_index])

    def mechanical_power_w(self, temps: np.ndarray | None = None
                           ) -> float:
        """Total electrical power of the chilled-water plant right now."""
        heat = self.crac_heat_w(temps)
        total = 0.0
        for j, crac in enumerate(self.cracs):
            if j not in self.failed_cracs:
                total += crac.mechanical_power_w(float(heat[j]))
        return total

    # ------------------------------------------------------------------
    # CRAC failure domain (§2.2: cooling loss → thermal runaway)
    # ------------------------------------------------------------------
    def fail_crac(self, crac_index: int) -> None:
        """Take a CRAC offline: fans stop, its air paths carry nothing.

        Zeroes the unit's conductance column — zones it served now see
        only whatever cross-coupling other units provide, which is the
        thermal-runaway configuration behind protective shutdowns.
        """
        if not 0 <= crac_index < len(self.cracs):
            raise IndexError(f"no CRAC at index {crac_index}")
        self.failed_cracs.add(crac_index)
        self.conductance[:, crac_index] = 0.0
        self._col_totals = None

    def repair_crac(self, crac_index: int) -> None:
        """Bring a failed CRAC back, restoring its design coupling."""
        if crac_index not in self.failed_cracs:
            raise ValueError(f"CRAC {crac_index} is not failed")
        self.failed_cracs.discard(crac_index)
        self.conductance[:, crac_index] = (
            self._nominal_conductance[:, crac_index])
        self._col_totals = None

    def impaired_zones(self, dominance: float = 0.5) -> list[str]:
        """Zones that lost their dominant cooling path.

        A zone is impaired when failed CRACs carried more than
        ``dominance`` of its design conductance — left like this it
        will drift toward thermal alarm under load.
        """
        nominal = self._nominal_conductance
        failed = sorted(self.failed_cracs)
        lost = (np.cumsum(nominal[:, failed], axis=1)[:, -1] if failed
                else np.zeros(len(nominal)))
        total = nominal.sum(axis=1)
        rows = np.flatnonzero(total > 0)
        rows = rows[lost[rows] / total[rows] > dominance]
        return [self.zones[i].name for i in rows.tolist()]

    # ------------------------------------------------------------------
    def _step_zones(self, dt_s: float) -> np.ndarray:
        """Advance every zone ``dt_s`` seconds in one fused update.

        Bit-identical to calling :meth:`ThermalZone.step` per zone:
        the conductance folds use ``cumsum``'s sequential left fold
        (the repo's bit-exactness convention for replacing ``sum``),
        every other operation is element-wise IEEE arithmetic in the
        scalar's evaluation order, and the exponential relaxation uses
        element-wise :func:`math.exp` because vectorized ``np.exp``
        may differ from libm by one ulp.  The result becomes the
        room's temperature column, so a zone view reads an
        ``np.float64`` after a step.
        """
        matrix = self.conductance
        heat, temps, cap = self.heat_load_w, self.temp_c, self.capacitance
        if matrix.shape[1]:
            supplies = np.array([c.supply_temp_c for c in self.cracs])
            g_total = np.cumsum(matrix, axis=1)[:, -1]
            weighted = np.cumsum(matrix * supplies, axis=1)[:, -1]
        else:
            g_total = np.zeros(len(temps))
            weighted = np.zeros(len(temps))
        # Adiabatic default (g_total <= 0): heat accumulates linearly,
        # in the scalar's ``temp + heat * dt / capacitance`` order.
        new = temps + heat * dt_s / cap
        pos = g_total > 0.0
        if pos.all():
            idx = slice(None)
            gt, t0, q, c = g_total, temps, heat, cap
        elif pos.any():
            idx = np.nonzero(pos)[0]
            gt, t0, q, c = g_total[idx], temps[idx], heat[idx], cap[idx]
        else:
            idx = None
        if idx is not None:
            t_eq = (q + weighted[idx]) / gt
            tau = c / gt
            args = (-dt_s) / tau
            decay = np.array([math.exp(a) for a in args])
            new[idx] = t_eq + (t0 - t_eq) * decay
        self.temp_c = new
        return new

    def step_once(self) -> None:
        """Advance thermals by one step and let CRACs decide."""
        now = self.env.now
        # One fused update yields the post-step temperature vector that
        # every CRAC query below consumes.
        temps = self._step_zones(self.step_s)
        for monitor, value in zip(self._zone_monitor_list, temps):
            # Passing ``now`` skips the per-sample env lookup.
            monitor.record(value, now)
        hot = temps >= self.alarm_temp_c
        flips = hot != self._latched
        if flips.any():
            self._latched = hot
            for i in np.flatnonzero(flips & hot).tolist():
                alarm = ThermalAlarm(now, self.zones[i].name, temps[i])
                self.alarms.append(alarm)
                for callback in self._alarm_callbacks:
                    callback(alarm)
        tracer = self.env.tracer
        for j, crac in enumerate(self.cracs):
            if j not in self.failed_cracs:
                before = crac.commanded_supply_c
                crac.maybe_decide(now, self.return_temp_c(j, temps))
                if (tracer is not None
                        and crac.commanded_supply_c != before):
                    tracer.event("crac.setpoint", "control",
                                 crac=crac.name,
                                 supply_c=crac.commanded_supply_c,
                                 return_c=self.return_temp_c(j, temps))
        self.mechanical_monitor.record(self.mechanical_power_w(temps),
                                       now)

    def run(self):
        """Process generator: step thermals forever on the fine grid."""
        while True:
            self.step_once()
            yield self.env.timeout(self.step_s)

    # ------------------------------------------------------------------
    def zone(self, name: str) -> ThermalZone:
        """Look up a zone by name."""
        for zone in self.zones:
            if zone.name == name:
                return zone
        raise KeyError(f"no zone named {name!r}")

    def hottest_zone(self) -> ThermalZone:
        """The zone with the highest current temperature (first on ties)."""
        return self.zones[int(np.argmax(self.temp_c))]

    def ashrae_compliant(self, low_c: float = 20.0,
                         high_c: float = 25.0) -> bool:
        """Are all zones inside the ASHRAE recommended envelope (§2.2)?"""
        temps = self.temp_c
        return bool(((low_c <= temps) & (temps <= high_c)).all())
