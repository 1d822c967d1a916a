"""DVFS controllers (paper §4.2).

Two policies from the literature the paper surveys:

* :class:`UtilizationDVFS` — the classic interval-based policy
  (Grunwald et al. [20]): keep utilization inside a band by stepping
  the P-state ladder.  Deliberately *oblivious* to any other
  controller — the ingredient of the §5.1 pathology.
* :class:`ResponseTimeDVFS` — control-based DVFS (Elnozahy et
  al. [21]): a PID holds measured response time at a target by
  choosing CPU speed; trades response-time headroom for power.
* :class:`PerTaskDVFS` — Vertigo-style (Flautner & Mudge [22]):
  chooses the slowest P-state that still finishes a task of known
  work within its deadline.
"""

from __future__ import annotations

import typing

from repro.control.farm import ServerFarm
from repro.control.pid import PIDController
from repro.power.pstates import PStateTable
from repro.sim import Monitor

__all__ = ["UtilizationDVFS", "ResponseTimeDVFS", "PerTaskDVFS"]


class UtilizationDVFS:
    """Interval-based ladder policy on mean farm utilization.

    Every ``period_s``: utilization below ``low`` → one state deeper
    (slower); above ``high`` → one state shallower (faster).  Applied
    fleet-wide, as OS governors of the era did per machine, in one
    batch P-state command over the active rows.
    """

    def __init__(self, farm: ServerFarm, period_s: float = 60.0,
                 low: float = 0.5, high: float = 0.9):
        if not 0.0 < low < high <= 1.0:
            raise ValueError("need 0 < low < high <= 1")
        if period_s <= 0:
            raise ValueError("period must be positive")
        self.farm = farm
        self.period_s = float(period_s)
        self.low = float(low)
        self.high = float(high)
        self.pstate_monitor = Monitor(farm.env, "dvfs.pstate")

    def decide(self) -> int:
        """One decision; returns the commanded fleet P-state."""
        pool = self.farm.fleet
        if not pool.active_count:
            return 0
        utilization = self.farm.mean_utilization()
        plant = pool.plant
        deepest = plant.n_pstates - 1
        current = int(plant.pstate[pool.active_indices()].max())
        if utilization < self.low and current < deepest:
            current += 1
        elif utilization > self.high and current > 0:
            current -= 1
        pool.batch_set_pstate(current)
        self.pstate_monitor.record(current)
        return current

    def run(self):
        """Process generator: decide every period."""
        while True:
            self.decide()
            yield self.farm.env.timeout(self.period_s)


class ResponseTimeDVFS:
    """PID on measured response time, actuating CPU speed.

    The PID output is a speed fraction in [min speed, 1]; the policy
    picks the slowest P-state delivering at least that capacity.
    Positive error (response time under target) slows the CPU.
    """

    def __init__(self, farm: ServerFarm, target_response_s: float,
                 period_s: float = 60.0,
                 kp: float = 2.0, ki: float = 0.2):
        if target_response_s <= 0:
            raise ValueError("target must be positive")
        if period_s <= 0:
            raise ValueError("period must be positive")
        self.farm = farm
        self.target_response_s = float(target_response_s)
        self.period_s = float(period_s)
        # The measurement is normalized to the target, so the setpoint
        # is 1.0.  Positive PID output = response time under target =
        # slack = permission to slow down.
        self.pid = PIDController(kp=kp, ki=ki, setpoint=1.0,
                                 output_min=-1.0, output_max=1.0)
        self._speed = 1.0
        self.pstate_monitor = Monitor(farm.env, "rt_dvfs.pstate")

    def decide(self) -> int:
        pool = self.farm.fleet
        if not pool.active_count:
            return 0
        measured = self.farm.mean_response_time_s()
        correction = self.pid.update(measured / self.target_response_s,
                                     dt=self.period_s)
        self._speed = min(max(self._speed - 0.2 * correction, 0.3), 1.0)
        table: PStateTable = self.farm.servers[0].model.pstates
        pstate = table.slowest_state_meeting(self._speed)
        pool.batch_set_pstate(pstate)
        self.pstate_monitor.record(pstate)
        return pstate

    def run(self):
        """Process generator: decide every period."""
        while True:
            self.decide()
            yield self.farm.env.timeout(self.period_s)


class PerTaskDVFS:
    """Pick the slowest P-state finishing a task inside its deadline.

    ``work_s`` is the task's execution time at full speed.  Returns
    the chosen index and the energy relative to running at P0 —
    sub-unity whenever there is slack, by the V²f argument.
    """

    def __init__(self, table: PStateTable | None = None):
        self.table = table or PStateTable()

    def choose(self, work_s: float, deadline_s: float) -> int:
        if work_s <= 0:
            raise ValueError("work must be positive")
        if deadline_s <= 0:
            raise ValueError("deadline must be positive")
        required = work_s / deadline_s  # fraction of full speed needed
        return self.table.slowest_state_meeting(required)

    def relative_energy(self, work_s: float, deadline_s: float) -> float:
        """Dynamic energy vs running the task at P0 (≤ 1 with slack)."""
        index = self.choose(work_s, deadline_s)
        capacity = self.table.capacity_fraction(index)
        power = self.table.dynamic_power_fraction(index)
        # Stretch factor 1/capacity, power scaled: E ∝ P/f.
        return power / capacity
