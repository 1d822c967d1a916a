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

from repro.sim import Environment, Monitor

__all__ = ["PowerCapper", "CapDecision", "CappableLoad"]


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
        actuator) lets the per-tick demand fold and the no-op uncap
        sweep run on fleet columns.  Checked once — pool membership
        cannot change after construction.
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

    def evaluate(self) -> CapDecision:
        """Measure, decide, and apply caps.  Returns the decision."""
        fleet = self._vector_fleet()
        demand = (fleet.total_demand_w() if fleet is not None
                  else sum(load.demand_w() for load in self.loads))
        self.demand_monitor.record(demand)

        if demand <= self.trigger_w:
            if fleet is not None:
                # ``remove_cap`` is a no-op unless a cap or T-state is
                # set; sweep only the rows where it would act.
                for i in fleet.uncap_candidates().tolist():
                    fleet.objs[i].remove_cap()
            else:
                for load in self.loads:
                    if self.actuator is not None:
                        self.actuator(load, None)
                    else:
                        load.remove_cap()
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
        target_total = self.trigger_w
        floors = [load.min_power_w() for load in self.loads]
        draws = [load.demand_w() for load in self.loads]
        total_draw = sum(draws) or 1.0
        shares = [max(f, target_total * d / total_draw)
                  for f, d in zip(floors, draws)]
        overshoot = sum(shares) - target_total
        if overshoot > 0:
            # Floors pushed us over; trim the loads with slack.
            slack = [s - f for s, f in zip(shares, floors)]
            total_slack = sum(slack)
            if total_slack > 0:
                trim = min(overshoot, total_slack)
                shares = [s - trim * (sl / total_slack)
                          for s, sl in zip(shares, slack)]

        throttled = 0
        delivered = 0.0
        for load, share, draw in zip(self.loads, shares, draws):
            if draw > share:
                if self.actuator is not None:
                    delivered += self.actuator(load, share)
                else:
                    delivered += load.apply_cap(share)
                throttled += 1
            else:
                if self.actuator is not None:
                    self.actuator(load, None)
                else:
                    load.remove_cap()
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
