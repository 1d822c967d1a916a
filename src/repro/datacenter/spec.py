"""Declarative data-center specification and builder.

One :class:`DataCenterSpec` describes a whole facility; ``build()``
wires every substrate together — servers into zoned racks, racks onto
a tier-sized power tree and UPS, zones and CRACs into a machine room
with a locality-derived sensitivity matrix — and returns a
:class:`DataCenter` handle holding all of it.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.cluster.rack import Rack
from repro.cluster.server import ServerState
from repro.cooling.crac import CRACUnit
from repro.cooling.economizer import AirSideEconomizer
from repro.cooling.room import MachineRoom
from repro.cooling.weather import SEATTLE_LIKE, WeatherModel
from repro.cooling.zone import ThermalZone
from repro.datacenter.tiers import Tier, TIER_SPECS, TierSpec
from repro.fleet import VectorCluster, VectorFleet, VectorServer
from repro.power.distribution import (
    CapacityExceeded,
    PDU_EFFICIENCY,
    PowerNode,
    TRANSFORMER_EFFICIENCY,
    UPS_DOUBLE_CONVERSION_EFFICIENCY,
)
from repro.power.models import ServerPowerModel
from repro.power.pue import PUEAccountant
from repro.power.ups import UPSUnit
from repro.sim import Environment

__all__ = ["DataCenterSpec", "DataCenter"]


@dataclasses.dataclass
class DataCenterSpec:
    """Everything needed to instantiate a facility."""

    name: str = "dc"
    tier: Tier = Tier.II
    racks: int = 8
    servers_per_rack: int = 20
    server_peak_w: float = 300.0
    server_idle_fraction: float = 0.6
    #: Exponent ``r`` of the Fan-et-al. calibrated power curve
    #: (1.0 = linear).  The fleet evaluates non-linear models through
    #: its libm-pow kernel — still batched, still bit-identical to the
    #: scalar ``ServerPowerModel``.
    server_nonlinearity: float = 1.0
    server_capacity: float = 100.0
    boot_s: float = 120.0
    wake_s: float = 15.0
    zones: int = 4
    cracs: int = 2
    crac_setpoint_c: float = 24.0
    zone_conductance_w_per_k: float = 4_000.0
    cross_conductance_fraction: float = 0.15
    #: Reject heat through an air-side economizer (§2.2) instead of a
    #: pure chilled-water plant; needs a weather model.
    economizer: bool = False
    weather: WeatherModel | None = None

    def __post_init__(self):
        if self.racks < 1 or self.servers_per_rack < 1:
            raise ValueError("need at least one rack and one server")
        if self.zones < 1 or self.cracs < 1:
            raise ValueError("need at least one zone and one CRAC")
        if self.zones > self.racks:
            raise ValueError("cannot have more zones than racks")
        if not 0.0 <= self.cross_conductance_fraction <= 1.0:
            raise ValueError("cross conductance fraction in [0, 1]")

    @property
    def total_servers(self) -> int:
        return self.racks * self.servers_per_rack

    def build(self, env: Environment) -> "DataCenter":
        """Instantiate the full facility on ``env``."""
        tier_spec = TIER_SPECS[self.tier]
        model = ServerPowerModel(peak_w=self.server_peak_w,
                                 idle_fraction=self.server_idle_fraction,
                                 nonlinearity=self.server_nonlinearity)

        # --- compute: servers -> zoned racks -> cluster --------------
        # One shared model (the vector fleet's rule) and one bulk row
        # claim per rack.
        fleet = VectorFleet(env, self.total_servers)
        racks = []
        servers: list[VectorServer] = []
        for r in range(self.racks):
            rack_servers = fleet.build_servers(
                env,
                [f"{self.name}-r{r}-s{s}"
                 for s in range(self.servers_per_rack)],
                power_model=model,
                capacity=self.server_capacity,
                boot_s=self.boot_s, wake_s=self.wake_s)
            servers.extend(rack_servers)
            racks.append(Rack(f"{self.name}-rack{r}", rack_servers,
                              zone=f"zone-{r % self.zones}"))
        cluster = VectorCluster(self.name, racks)

        # --- power: tree + UPS sized by tier --------------------------
        rack_peak_w = self.servers_per_rack * self.server_peak_w
        critical_w = self.racks * rack_peak_w
        ups_rating = critical_w * tier_spec.ups_margin()
        transformer = PowerNode("transformer", ups_rating * 1.2,
                                TRANSFORMER_EFFICIENCY)
        ups_node = transformer.add_child(
            PowerNode("ups", ups_rating,
                      UPS_DOUBLE_CONVERSION_EFFICIENCY))
        pdu = ups_node.add_child(
            PowerNode("pdu", critical_w * 1.1, PDU_EFFICIENCY))
        rack_nodes = {}
        for rack in racks:
            rack_nodes[rack.name] = pdu.add_child(
                PowerNode(rack.name, rack_peak_w * 1.2))
        ups = UPSUnit(env, f"{self.name}-ups",
                      steady_rating_w=ups_rating,
                      battery_energy_j=ups_rating * 300.0)

        # --- cooling: zones + CRACs with locality ---------------------
        zones = [ThermalZone(f"zone-{z}",
                             thermal_capacitance_j_per_k=600_000.0)
                 for z in range(self.zones)]
        cracs = [CRACUnit(f"{self.name}-crac{c}",
                          return_setpoint_c=self.crac_setpoint_c)
                 for c in range(self.cracs)]
        # Each zone couples strongly to its "home" CRAC and weakly to
        # the rest — physical locality is what makes sensitivity
        # matrices non-uniform in real rooms.
        strong = self.zone_conductance_w_per_k
        weak = strong * self.cross_conductance_fraction
        conductance = [[strong if (z % self.cracs) == c else weak
                        for c in range(self.cracs)]
                       for z in range(self.zones)]
        room = MachineRoom(env, zones, cracs, conductance)

        economizer = None
        weather = None
        if self.economizer:
            economizer = AirSideEconomizer()
            weather = self.weather or SEATTLE_LIKE()

        return DataCenter(env=env, spec=self, tier_spec=tier_spec,
                          cluster=cluster, servers=servers,
                          power_tree=transformer, rack_nodes=rack_nodes,
                          ups=ups, room=room,
                          pue=PUEAccountant(env),
                          economizer=economizer, weather=weather)


@dataclasses.dataclass
class DataCenter:
    """A fully-wired facility (returned by :meth:`DataCenterSpec.build`)."""

    env: Environment
    spec: DataCenterSpec
    tier_spec: TierSpec
    cluster: VectorCluster
    servers: list
    power_tree: PowerNode
    rack_nodes: dict
    ups: UPSUnit
    room: MachineRoom
    pue: PUEAccountant
    economizer: AirSideEconomizer | None = None
    weather: WeatherModel | None = None
    #: Lazily-built fast-path handle for the canonical power tree
    #: (see :meth:`_tree_fast_path`).  ``None`` before the first
    #: physical tick; ``()`` when the shape check failed.
    _tree_fast: tuple | None = dataclasses.field(
        default=None, init=False, repr=False, compare=False)

    def healthy_capacity(self) -> float:
        """Installed capacity minus failed servers (work units/s).

        What the facility could serve once its manager wakes the
        fleet, not what happens to be awake.  This is the column the
        zone shards exchange and the federation sites report, so a
        repair restores the plant's demand share at the next sync
        point instead of trapping it behind its own post-fault sleep
        state (low share → few awake → low awake capacity → low
        share).
        """
        failed = self.cluster.count_in(ServerState.FAILED)
        return ((self.spec.total_servers - failed)
                * self.spec.server_capacity)

    def _tree_fast_path(self) -> tuple | None:
        """Cache the spec's canonical transformer→UPS→PDU→leaf chain.

        The builder always produces this shape: a three-node spine
        whose PDU fans out to one identity-efficiency leaf per rack,
        in rack order.  When it holds, :meth:`sync_physical` can fold
        the whole tree in one pass — leaf input equals leaf demand
        exactly (efficiency 1.0), the three spine stages are scalar —
        instead of recursing node-by-node twice per tick.  Any
        restructured tree (extra children, strict or lossy leaves)
        returns ``None`` and keeps the generic recursive walk.
        """
        fast = self._tree_fast
        if fast is not None:
            return fast or None
        root = self.power_tree
        racks = self.cluster.racks
        spine_ok = (len(root.children) == 1
                    and len(root.children[0].children) == 1)
        if spine_ok:
            ups_node = root.children[0]
            pdu = ups_node.children[0]
            leaves = pdu.children
            leaf_ok = (len(leaves) == len(racks) and all(
                leaf is self.rack_nodes.get(rack.name)
                and not leaf.children and not leaf.strict
                and len(leaf.efficiency.knots) == 1
                and leaf.efficiency.knots[0][1] == 1.0
                for leaf, rack in zip(leaves, racks)))
            if leaf_ok:
                # Leaf state (``_leaf_demand_w``, ``failed``) lives in
                # plain instance dicts; binding them here turns the
                # per-tick store loop into raw dict writes.
                self._tree_fast = (ups_node, pdu, leaves,
                                   [leaf.__dict__ for leaf in leaves])
                return self._tree_fast
        self._tree_fast = ()
        return None

    @staticmethod
    def _stage_in(node: PowerNode, out_w: float) -> float:
        """``PowerNode.input_w`` arithmetic with the output pre-folded."""
        if node.failed or out_w == 0.0:
            return 0.0
        load_fraction = out_w / node.capacity_w
        if node.strict and load_fraction > 1.0:
            raise CapacityExceeded(node, out_w)
        return out_w / node.efficiency(load_fraction)

    def sync_physical(self) -> dict:
        """Push current compute state into the physical models.

        Sets rack demands on the power tree, heat loads on the zones,
        updates the UPS, and records a PUE sample.  Returns a snapshot
        dict for convenience.  The co-simulation harness calls this
        every tick; it is also handy interactively.
        """
        # Power tree leaves <- rack draws.
        fast = self._tree_fast_path()
        if fast is not None:
            ups_node, pdu, leaves, leaf_dicts = fast
            demands_arr = self.cluster.rack_powers_array()
            demands = demands_arr.tolist()
            # One fused pass: leaf input == leaf demand (identity
            # efficiency, exact), folded left-to-right in child order
            # — bit-identical to the recursive walk it replaces.  The
            # common no-failed-leaves case folds with one cumsum (the
            # same sequential left fold); any tripped leaf drops to
            # the skip-aware scalar fold.
            clean = True
            for d, watts in zip(leaf_dicts, demands):
                d["_leaf_demand_w"] = watts
                if d["failed"]:
                    clean = False
            if clean:
                pdu_out = (float(np.cumsum(demands_arr)[-1])
                           if demands else 0.0)
            else:
                pdu_out = 0.0
                for leaf, watts in zip(leaves, demands):
                    if not leaf.failed:
                        pdu_out += watts
            if pdu.failed:
                pdu_out = 0.0
            pdu_in = self._stage_in(pdu, pdu_out)
            ups_out = 0.0 if ups_node.failed else pdu_in
            ups_in = self._stage_in(ups_node, ups_out)
            grid_w = self._stage_in(self.power_tree, ups_in)
            it_w = self.cluster.power_w()
            loss_w = grid_w - it_w
            self.ups.set_load(ups_out)
        else:
            for rack in self.cluster.racks:
                self.rack_nodes[rack.name].set_demand(rack.power_w())
            it_w = self.cluster.power_w()
            grid_w = self.power_tree.input_w()
            loss_w = grid_w - it_w
            self.ups.set_load(self.power_tree.find("ups").output_w())

        # Zones <- heat by zone (IT heat + its share of losses lands
        # in the room; distribution losses heat electrical rooms and
        # are cooled too, but we attribute them to the plant load).
        heat = self.cluster.heat_by_zone()
        for zone in self.room.zones:
            zone.set_heat_load(heat.get(zone.name, 0.0))
        if self.economizer is not None:
            # Air-side heat rejection: the CRAC blowers still move the
            # air, but the heat leaves via outside air / trimmed
            # chiller per the economizer mode.
            temps = self.room.zone_temps()
            removed = sum(self.room.heat_removed_w(j, temps)
                          for j in range(len(self.room.cracs)))
            now = self.env.now
            mechanical_w = self.economizer.mechanical_power_w(
                removed, self.weather.temperature_c(now),
                self.weather.relative_humidity(now), time_s=now)
        else:
            mechanical_w = self.room.mechanical_power_w()
        pue = self.pue.record(it_w=it_w, distribution_loss_w=loss_w,
                              mechanical_w=mechanical_w)
        return {"it_w": it_w, "grid_w": grid_w, "loss_w": loss_w,
                "mechanical_w": mechanical_w, "pue": pue}
