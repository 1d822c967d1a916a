"""Power capping: keeping an oversubscribed facility inside its rating.

Oversubscription (§3.1) deliberately hosts more servers than the
worst-case power budget allows.  The safety net is a capping policy:
when aggregate draw approaches the budget, throttle servers (P-states,
then T-states) until the draw fits.  The paper frames this as the
facility-protection question — "How to protect the safety of the
facility in the rare events that the demand exceeds the capacity?"
(§3.2) — and notes that placing power-uncorrelated workloads together
"will reduce the probability of power capping" (§5.2).
"""

from __future__ import annotations

import typing

import numpy as np

from repro.sim import Environment, Monitor

__all__ = ["PowerCapper", "CapDecision", "CappableLoad"]


def _fold(values: np.ndarray) -> float:
    """``values`` summed as one left fold, in order (what Python's
    ``sum`` does before 3.12, which compensates)."""
    return float(np.cumsum(values)[-1]) if values.size else 0.0


def fair_shares(target_w: float, floors: np.ndarray,
                draws: np.ndarray) -> np.ndarray:
    """Proportional shares of ``target_w``, floored at each load's
    minimum, with any overshoot the floors cause trimmed from the
    loads that have slack above their floor.

    Each step is the per-load arithmetic of the original list code,
    element for element, and every total is a left fold, so the
    shares are the same bits for a fleet's columns and a list of
    loads.
    """
    total_draw = _fold(draws) or 1.0
    prop = target_w * draws / total_draw
    shares = np.where(prop > floors, prop, floors)
    overshoot = _fold(shares) - target_w
    if overshoot > 0:
        # Floors pushed us over; trim the loads with slack.
        slack = shares - floors
        total_slack = _fold(slack)
        if total_slack > 0:
            trim = min(overshoot, total_slack)
            shares = shares - trim * (slack / total_slack)
    return shares


class CappableLoad(typing.Protocol):
    """What the capper needs from a server-like object.

    ``demand_w`` must report the power the load *would* draw with no
    cap applied — measuring post-cap draw would make the controller
    oscillate (cap → low reading → uncap → high reading → cap ...).
    """

    def demand_w(self) -> float: ...
    def power_w(self) -> float: ...
    def min_power_w(self) -> float: ...
    def apply_cap(self, watts: float) -> float: ...
    def remove_cap(self) -> None: ...


class CapDecision(typing.NamedTuple):
    """Outcome of one capping evaluation."""

    time: float
    demand_w: float
    budget_w: float
    capped: bool
    throttled_loads: int
    shed_w: float


class PowerCapper:
    """Enforce a power budget over a set of loads.

    Policy: proportional fair shedding.  When demand exceeds the
    budget, each load is capped to its fair proportional share of the
    budget, but never below its floor (``min_power_w``, the idle power
    — capping cannot turn servers off; that is the On/Off controller's
    job and operates on a much slower time scale).

    The capper is intentionally fast and local (a "micro-foundation"):
    it needs no model of the workload, only meters.  The macro layer
    decides the *budget*; the capper merely enforces it.
    """

    def __init__(self, env: Environment, budget_w: float,
                 loads: typing.Sequence[CappableLoad],
                 guard_band: float = 0.03,
                 actuator: typing.Callable | None = None):
        if budget_w <= 0:
            raise ValueError(f"budget must be positive, got {budget_w}")
        if not 0.0 <= guard_band < 1.0:
            raise ValueError(f"guard band must be in [0, 1), got {guard_band}")
        self.env = env
        self.budget_w = float(budget_w)
        self.loads = list(loads)
        self.guard_band = float(guard_band)
        #: Optional command channel ``actuator(load, watts | None)``
        #: (``None`` lifts the cap) returning the delivered draw.  The
        #: control plane installs one so cap commands cross its
        #: actuation bus; without it the capper calls loads directly.
        self.actuator = actuator
        self.decisions: list[CapDecision] = []
        self.demand_monitor = Monitor(env, "capper.demand_w")
        self.delivered_monitor = Monitor(env, "capper.delivered_w")
        self._fleet = None
        self._fleet_checked = False
        #: Engagement edge tracker for the flight recorder: tighten
        #: events fire per capped evaluation, release fires once on
        #: the capped → uncapped edge.
        self._was_capped = False

    def _vector_fleet(self):
        """The loads' VectorFleet when they are exactly its pool.

        The common-case wiring (capper over ``farm.servers`` with no
        actuator) runs the whole evaluation on fleet columns: the
        demand fold, the shares and the cap and lift kernels.
        Checked once — pool membership cannot change after
        construction.
        """
        if not self._fleet_checked:
            self._fleet_checked = True
            if self.actuator is None and self.loads:
                fleet = getattr(self.loads[0], "_fleet", None)
                if (fleet is not None and len(self.loads) == fleet.n
                        and fleet.n_claimed == fleet.n):
                    objs = fleet.objs
                    if all(load is objs[i]
                           for i, load in enumerate(self.loads)):
                        self._fleet = fleet
        return self._fleet

    @property
    def trigger_w(self) -> float:
        """Draw level at which capping engages (budget minus guard)."""
        return self.budget_w * (1.0 - self.guard_band)

    def _command(self, load, watts: float | None):
        """Cap (or, at ``None``, lift) one load; returns its draw.

        Through the actuator when one is wired, else on the load.
        """
        if self.actuator is not None:
            return self.actuator(load, watts)
        if watts is None:
            return load.remove_cap()
        return load.apply_cap(watts)

    def evaluate(self) -> CapDecision:
        """Measure, decide, and apply caps.  Returns the decision."""
        fleet = self._vector_fleet()
        if fleet is not None:
            draws = fleet.demand_column()
        else:
            draws = np.array([load.demand_w() for load in self.loads],
                             dtype=np.float64)
        demand = _fold(draws)
        self.demand_monitor.record(demand)

        if demand <= self.trigger_w:
            if fleet is not None:
                fleet.lift_caps(draws)
            else:
                for load in self.loads:
                    self._command(load, None)
            decision = CapDecision(self.env.now, demand, self.budget_w,
                                   capped=False, throttled_loads=0,
                                   shed_w=0.0)
            self.decisions.append(decision)
            self.delivered_monitor.record(demand)
            tracer = self.env.tracer
            if tracer is not None and self._was_capped:
                tracer.event("cap.release", "actuation",
                             demand_w=demand, budget_w=self.budget_w)
            self._was_capped = False
            return decision

        # Proportional shares of the *trigger* level, floored at each
        # load's minimum; redistribute leftover headroom greedily so
        # the budget is fully used.
        if fleet is not None:
            floors = fleet.cap_floors()
        else:
            floors = np.array([load.min_power_w() for load in self.loads],
                              dtype=np.float64)
        shares = fair_shares(self.trigger_w, floors, draws)
        hot = draws > shares
        throttled = int(np.count_nonzero(hot))
        if fleet is not None:
            delivered = _fold(fleet.apply_caps(shares, draws))
        else:
            delivered = 0.0
            for load, share, draw, capped in zip(
                    self.loads, shares.tolist(), draws.tolist(),
                    hot.tolist()):
                if capped:
                    delivered += self._command(load, share)
                else:
                    self._command(load, None)
                    delivered += draw
        decision = CapDecision(self.env.now, demand, self.budget_w,
                               capped=True, throttled_loads=throttled,
                               shed_w=max(0.0, demand - delivered))
        self.decisions.append(decision)
        self.delivered_monitor.record(delivered)
        tracer = self.env.tracer
        if tracer is not None:
            tracer.event("cap.tighten", "actuation", demand_w=demand,
                         budget_w=self.budget_w, throttled=throttled,
                         shed_w=decision.shed_w)
        self._was_capped = True
        return decision

    def run(self, period_s: float = 1.0):
        """Process generator: evaluate every ``period_s`` seconds."""
        if period_s <= 0:
            raise ValueError(f"period must be positive, got {period_s}")
        while True:
            self.evaluate()
            yield self.env.timeout(period_s)

    def capped_fraction(self) -> float:
        """Fraction of evaluations in which capping engaged."""
        if not self.decisions:
            return 0.0
        return sum(d.capped for d in self.decisions) / len(self.decisions)
