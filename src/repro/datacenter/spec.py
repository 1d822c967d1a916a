"""Declarative data-center specification and builder.

One :class:`DataCenterSpec` describes a whole facility; ``build()``
wires every substrate together — servers into zoned racks, racks onto
a tier-sized power spine and UPS, zones and CRACs into a machine room
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
    PDU_EFFICIENCY,
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

        # --- power: spine + UPS sized by tier ---------------------------
        rack_peak_w = self.servers_per_rack * self.server_peak_w
        critical_w = self.racks * rack_peak_w
        ups_rating = critical_w * tier_spec.ups_margin()
        power_stages = ((critical_w * 1.1, PDU_EFFICIENCY),
                        (ups_rating, UPS_DOUBLE_CONVERSION_EFFICIENCY),
                        (ups_rating * 1.2, TRANSFORMER_EFFICIENCY))
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
                          power_stages=power_stages, ups=ups, room=room,
                          pue=PUEAccountant(env),
                          economizer=economizer, weather=weather)


@dataclasses.dataclass
class DataCenter:
    """A fully-wired facility (returned by :meth:`DataCenterSpec.build`).

    The power path of paper Figure 1 is held as columns: every rack
    feeds the PDU through one branch breaker, whose state is the
    boolean column :attr:`rack_tripped` (rack order, ``True`` = open;
    the fault engine trips and restores it), and above the breakers a
    three-stage spine — PDU, UPS, transformer — each a ``(capacity_w,
    efficiency curve)`` pair in :attr:`power_stages`.  The thermal
    side is the :class:`MachineRoom`'s zone columns, fed through
    :attr:`rack_zone`.  :meth:`sync_physical` folds both once per
    tick; a :class:`~repro.power.distribution.PowerNode` tree of the
    same shape is its reference.
    """

    env: Environment
    spec: DataCenterSpec
    tier_spec: TierSpec
    cluster: VectorCluster
    servers: list
    #: ``(capacity_w, efficiency)`` of the PDU, UPS and transformer,
    #: in fold order (downstream first).
    power_stages: tuple
    ups: UPSUnit
    room: MachineRoom
    pue: PUEAccountant
    economizer: AirSideEconomizer | None = None
    weather: WeatherModel | None = None
    #: Room zone row of each rack, in rack order.
    rack_zone: np.ndarray = dataclasses.field(
        init=False, repr=False, compare=False)
    #: Open rack-branch breakers, in rack order.
    rack_tripped: np.ndarray = dataclasses.field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = {zone.name: i for i, zone in enumerate(self.room.zones)}
        self.rack_zone = np.array(
            [rows[rack.zone] for rack in self.cluster.racks], dtype=np.intp)
        self.rack_tripped = np.zeros(len(self.cluster.racks), dtype=bool)

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

    def rack_input_w(self) -> np.ndarray:
        """Power each rack branch draws from the PDU, in rack order:
        the rack's draw, or 0.0 behind an open breaker."""
        return np.where(self.rack_tripped, 0.0,
                        self.cluster.rack_powers_array())

    @staticmethod
    def _stage_in(stage: tuple, out_w: float) -> float:
        """``PowerNode.input_w`` of a closed, non-strict stage."""
        capacity_w, efficiency = stage
        if out_w == 0.0:
            return 0.0
        return out_w / efficiency(out_w / capacity_w)

    def sync_physical(self) -> dict:
        """Push current compute state into the physical models.

        Heats the zones with the racks' draws (one scatter in rack
        order), folds the rack branches into the PDU and up the spine,
        loads the UPS, and records a PUE sample.  Returns a snapshot
        dict for convenience.  The co-simulation harness calls this
        every tick; it is also handy interactively.

        The PDU output is one ``cumsum`` left fold over
        :meth:`rack_input_w` — an open breaker adds +0.0, which is
        exact for non-negative draws — so it equals a ``PowerNode``
        tree walked with ``input_w()`` bit for bit.
        """
        # The zones take the IT heat; distribution losses heat the
        # electrical rooms and are attributed to the plant load.
        self.room.heat_load_w = np.bincount(
            self.rack_zone, weights=self.cluster.rack_powers_array(),
            minlength=len(self.room.zones))
        pdu, ups_stage, transformer = self.power_stages
        pdu_out = float(np.cumsum(self.rack_input_w())[-1])
        ups_out = self._stage_in(pdu, pdu_out)
        grid_w = self._stage_in(transformer,
                                self._stage_in(ups_stage, ups_out))
        it_w = self.cluster.power_w()
        loss_w = grid_w - it_w
        self.ups.set_load(ups_out)
        if self.economizer is not None:
            # Air-side heat rejection: the CRAC blowers still move the
            # air, but the heat leaves via outside air / trimmed
            # chiller per the economizer mode.
            removed = sum(self.room.crac_heat_w().tolist())
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
