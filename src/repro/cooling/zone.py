"""Lumped-parameter thermal zones (paper Figure 2, §2.2).

A *zone* is a region of the machine room — a few racks on the cold
aisle — modeled as one thermal mass.  The energy balance couples the
zone to every CRAC through a conductance (W/K) that encodes how much
of that CRAC's cold air actually reaches the zone:

    C_i · dT_i/dt = Q_i(t) − Σ_j G_ij · (T_i − T_supply_j)

The conductance matrix **G is the paper's "CRAC sensitivity"** (§5.1,
Project Genome [30]): a CRAC with a large G to zone A and a tiny G to
zone B "regulates temperature much better at some locations than
others" — exactly the asymmetry behind the migration hazard we
reproduce in EXP-CRAC.

A standalone :class:`ThermalZone` keeps its own state and
:meth:`ThermalZone.step` is the scalar reference.  Handed to a
:class:`~repro.cooling.room.MachineRoom`, a zone becomes a view on its
row of the room's columns (temperature, heat load, capacitance, alarm
threshold), the way a ``VectorServer`` is a fleet row: reads and
writes go to the room's arrays, and the room steps every zone at once.
"""

from __future__ import annotations

import math
import types

__all__ = ["ThermalZone", "AIR_SPECIFIC_HEAT_J_PER_KG_K", "AIR_DENSITY_KG_PER_M3"]

AIR_SPECIFIC_HEAT_J_PER_KG_K = 1005.0
AIR_DENSITY_KG_PER_M3 = 1.2


class _RowAttribute:
    """A zone attribute kept in the zone's row of a column set."""

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, zone, owner=None):
        if zone is None:
            return self
        return getattr(zone._cols, self.name)[zone._row]

    def __set__(self, zone, value) -> None:
        getattr(zone._cols, self.name)[zone._row] = value


class ThermalZone:
    """One lumped thermal mass inside the machine room.

    Parameters
    ----------
    name:
        Zone identifier (e.g. ``"cold-aisle-A"``).
    thermal_capacitance_j_per_k:
        Heat capacity of the air volume plus nearby steel/racks.  A
        4 m × 6 m × 3 m aisle of air alone is ≈ 87 kJ/K; racks and
        building materials add an order of magnitude — the paper's
        "thermo properties of servers and building materials" that
        stretch propagation delays.
    initial_temp_c:
        Starting air temperature.
    alarm_temp_c:
        Inlet temperature at which server protective sensors trip
        (§2.2: "servers have protective temperature sensors which
        will shut down the server").
    """

    temp_c = _RowAttribute()
    heat_load_w = _RowAttribute()
    capacitance = _RowAttribute()
    alarm_temp_c = _RowAttribute()

    def __init__(self, name: str,
                 thermal_capacitance_j_per_k: float = 800_000.0,
                 initial_temp_c: float = 22.0,
                 alarm_temp_c: float = 32.0):
        if thermal_capacitance_j_per_k <= 0:
            raise ValueError("thermal capacitance must be positive")
        self.name = name
        #: Where this zone's state lives: one-row lists of its own until
        #: a room adopts it, then the room itself, read at ``_row``.
        self._cols = types.SimpleNamespace(
            temp_c=[float(initial_temp_c)], heat_load_w=[0.0],
            capacitance=[float(thermal_capacitance_j_per_k)],
            alarm_temp_c=[float(alarm_temp_c)])
        self._row = 0

    def _attach(self, columns, row: int) -> None:
        """Become a view on ``row`` of a room's same-named columns."""
        if not isinstance(self._cols, types.SimpleNamespace):
            raise ValueError(f"zone {self.name!r} already belongs to a room")
        self._cols, self._row = columns, row

    def set_heat_load(self, watts: float) -> None:
        """Update the IT heat dissipated into this zone."""
        if watts < 0:
            raise ValueError(f"negative heat load {watts}")
        self.heat_load_w = float(watts)

    def step(self, dt_s: float,
             supply_temps_c: list[float],
             conductances_w_per_k: list[float]) -> float:
        """Advance the zone ``dt_s`` seconds; returns the new temperature.

        Uses the exact exponential solution of the linear ODE over the
        step (supply temperatures and load held constant), so the
        integration is unconditionally stable even with the long steps
        a 15-minute CRAC period encourages.
        """
        if dt_s <= 0:
            raise ValueError(f"dt must be positive, got {dt_s}")
        if len(supply_temps_c) != len(conductances_w_per_k):
            raise ValueError("supply temps and conductances length mismatch")
        g_total = sum(conductances_w_per_k)
        if g_total <= 0:
            # Adiabatic zone: heat accumulates linearly.
            self.temp_c += self.heat_load_w * dt_s / self.capacitance
            return self.temp_c
        # Equilibrium the zone relaxes toward.
        t_eq = (self.heat_load_w
                + sum(g * ts for g, ts in
                      zip(conductances_w_per_k, supply_temps_c))) / g_total
        tau = self.capacitance / g_total
        self.temp_c = t_eq + (self.temp_c - t_eq) * math.exp(-dt_s / tau)
        return self.temp_c

    def equilibrium_temp_c(self, supply_temps_c: list[float],
                           conductances_w_per_k: list[float]) -> float:
        """Steady-state temperature under the given supply conditions."""
        g_total = sum(conductances_w_per_k)
        if g_total <= 0:
            return float("inf") if self.heat_load_w > 0 else self.temp_c
        return (self.heat_load_w
                + sum(g * ts for g, ts in
                      zip(conductances_w_per_k, supply_temps_c))) / g_total

    @property
    def in_alarm(self) -> bool:
        """True if servers in this zone would trip thermal protection."""
        return self.temp_c >= self.alarm_temp_c

    def __repr__(self) -> str:
        return (f"<ThermalZone {self.name!r} T={self.temp_c:.1f}C "
                f"Q={self.heat_load_w:.0f}W>")
