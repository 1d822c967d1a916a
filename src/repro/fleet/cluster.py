"""Cluster physics over fleet columns: heat maps as one ``bincount``.

The object :class:`~repro.cluster.rack.Cluster` walks racks in Python
for every physical tick — fine at hundreds of racks, measurable at a
thousand.  :class:`VectorCluster` answers the same queries from the
fleet's rack columns:

* ``heat_by_zone`` becomes one ``np.bincount`` over rack→zone ids
  weighted by the racks' power (their ``rack_q`` ledgers in watts).
  ``bincount`` accumulates sequentially in input order per bin, so
  each zone's sum is the bit-exact left fold the dict accumulation
  produced, and the dict is rebuilt in first-appearance order —
  byte-identical output.
* ``power_w`` is the exact integer sum of the rack ledgers;
  ``count_in`` / ``total_effective_capacity`` become array folds over
  the fleet columns in pool order.

The rack→zone index is built once, at construction: every rack must be
a zoned vector rack of one fleet, or the constructor raises
``ValueError``.
"""

from __future__ import annotations

import typing

import numpy as np

from repro.cluster.rack import Cluster, Rack
from repro.cluster.server import QUANTUM_W, ServerState
from repro.fleet.aggregates import VectorRackAggregate
from repro.fleet.plant import _STATE_TO_CODE, C_ACTIVE

__all__ = ["VectorCluster"]


class VectorCluster(Cluster):
    """A :class:`Cluster` whose aggregate queries run on fleet columns."""

    def __init__(self, name: str, racks: typing.Sequence[Rack]):
        super().__init__(name, racks)
        fleet = None
        zone_index: dict[str, int] = {}
        zone_ids: list[int] = []
        for rack in self.racks:
            aggregate = rack.aggregate
            if not isinstance(aggregate, VectorRackAggregate):
                raise ValueError(
                    f"rack {rack.name} is not a vector-fleet rack")
            if fleet is None:
                fleet = aggregate._fleet
            elif aggregate._fleet is not fleet:
                raise ValueError(
                    f"rack {rack.name} belongs to another fleet")
            if rack.zone is None:
                raise ValueError(f"rack {rack.name} has no zone")
            zone_ids.append(zone_index.setdefault(rack.zone,
                                                  len(zone_index)))
        #: The fleet whose rack columns answer the queries.
        self.plant = fleet
        self._slots = np.asarray([r.aggregate._slot for r in self.racks])
        self._zone_ids = np.asarray(zone_ids)
        self._zone_names = list(zone_index)
        self._rows = np.concatenate([
            np.arange(r.aggregate._lo, r.aggregate._hi)
            for r in self.racks])

    def power_w(self) -> float:
        return int(self.plant.rack_q[self._slots].sum()) * QUANTUM_W

    def rack_powers_array(self) -> np.ndarray:
        """Rack draws as one float column, in rack order: element ``i``
        is exactly ``self.racks[i].power_w()``."""
        return self.plant.rack_q[self._slots] * QUANTUM_W

    def heat_by_zone(self) -> dict[str, float]:
        names = self._zone_names
        sums = np.bincount(self._zone_ids,
                           weights=self.rack_powers_array(),
                           minlength=len(names))
        return {name: float(sums[i]) for i, name in enumerate(names)}

    def count_in(self, state: ServerState) -> int:
        fleet = self.plant
        if state is ServerState.ACTIVE:
            return int(fleet.rack_active[self._slots].sum())
        code = _STATE_TO_CODE[state]
        return int(np.count_nonzero(fleet.state_code[self._rows] == code))

    def total_effective_capacity(self) -> float:
        fleet = self.plant
        rows = self._rows
        active = rows[fleet.state_code[rows] == C_ACTIVE]
        if active.size == 0:
            return 0.0
        return float(np.cumsum(fleet.eff_cap[active])[-1])
