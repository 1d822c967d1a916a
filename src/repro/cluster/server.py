"""Servers as power-aware state machines.

§3: "Servers can be re-purposed within minutes."  §4.3: turning
servers off is "the only way to eliminate the idle power consumption",
but "it takes time to wake up a slept component (or server), and
sometime, this wakeup process may consume more energy and offset the
benefit of sleeping."

The :class:`Server` couples a state machine (OFF / BOOTING / ACTIVE /
SLEEPING / WAKING / FAILED) with a :class:`~repro.power.ServerPowerModel`
and exposes every knob the micro-foundations need: P-/T-state control
for DVFS, the cappable-load protocol for power capping, and explicit
transition latencies and energies for the On/Off controllers.
"""

from __future__ import annotations

import enum

from repro.power.models import ServerPowerModel, TYPICAL_2008_SERVER
from repro.sim import Environment, Event, Monitor

__all__ = ["Server", "ServerState", "InvalidTransition", "POWERED_STATES",
           "QUANTUM_W", "quanta"]


class ServerState(enum.Enum):
    """Lifecycle states of a server."""

    OFF = "off"
    BOOTING = "booting"
    ACTIVE = "active"
    SLEEPING = "sleeping"
    WAKING = "waking"
    FAILED = "failed"


#: States in which a server draws meaningful power and is a valid
#: victim for failure injection / protective shutdown (§2.2): a trip
#: does not wait for a machine to be serving traffic.
POWERED_STATES = (ServerState.BOOTING, ServerState.ACTIVE,
                  ServerState.SLEEPING, ServerState.WAKING)


#: The power ledger's unit: aggregates sum whole quanta of this many
#: watts, so every fold is exact integer addition in any order.
#: Scaling by 2**32 is exact, and both ``round`` and ``np.rint`` round
#: half to even, so a row's quanta agree bit for bit on either side.
QUANTUM_W = 2.0 ** -32


def quanta(watts: float) -> int:
    """``watts`` in whole :data:`QUANTUM_W` quanta (half to even)."""
    return round(watts * 2.0 ** 32)


class InvalidTransition(RuntimeError):
    """An operation is not legal from the server's current state."""


class Server:
    """One server: capacity, power, and slow state transitions.

    Parameters
    ----------
    capacity:
        Work units per second at P0 (e.g. connections served, requests
        per second — the unit is set by the workload layer).
    boot_s / wake_s:
        Transition latencies.  Waking from sleep (ACPI S3) is much
        faster than a cold boot, which is why sleep exists at all.
    sleep_w:
        Draw while suspended (RAM refresh + NIC).
    zone:
        Name of the thermal zone the server heats (cooling coupling).
    """

    def __init__(self, env: Environment, name: str,
                 power_model: ServerPowerModel | None = None,
                 capacity: float = 100.0,
                 boot_s: float = 120.0,
                 wake_s: float = 15.0,
                 sleep_w: float = 10.0,
                 zone: str | None = None,
                 initial_state: ServerState = ServerState.OFF):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if boot_s < 0 or wake_s < 0:
            raise ValueError("transition latencies cannot be negative")
        self.env = env
        self.name = name
        self.model = power_model or TYPICAL_2008_SERVER()
        if sleep_w < 0 or sleep_w > self.model.peak_w:
            raise ValueError(f"sleep_w {sleep_w} outside [0, peak]")
        self.capacity = float(capacity)
        self.boot_s = float(boot_s)
        self.wake_s = float(wake_s)
        self.sleep_w = float(sleep_w)
        self.zone = zone

        self._state = initial_state
        self._offered_load = 0.0
        self._pstate = 0          # commanded by DVFS policy
        self._tstate = 0          # commanded by power capping
        self._cap_w: float | None = None
        self._transition: Event | None = None
        self.power_monitor = self._make_power_monitor()
        self.state_log: list[tuple[float, ServerState]] = [
            (env.now, initial_state)]
        #: Aggregates observing this server (see ``cluster.aggregates``).
        #: Notified of state transitions from :meth:`_set_state` and of
        #: wall-power deltas from :meth:`_record_power`.
        self._watchers: list = []
        self._power_w = 0.0      # cache; seeded by _record_power below
        self._eff_cap = 0.0      # cache; refreshed by _record_power
        self._record_power()

    def add_watcher(self, watcher) -> None:
        """Register an observer of state transitions and power deltas.

        ``watcher`` needs ``state_changed(server, old, new)`` and
        ``power_changed(server, dq)``, ``dq`` the non-zero change in
        :func:`quanta`.  There is no detach: watchers live as long as
        the simulation.
        """
        self._watchers.append(watcher)

    def _make_power_monitor(self) -> Monitor:
        """Build the power sample sink (subclasses may swap it out)."""
        return Monitor(self.env, f"{self.name}.power_w")

    # ------------------------------------------------------------------
    # State machine
    # ------------------------------------------------------------------
    @property
    def state(self) -> ServerState:
        return self._state

    @property
    def is_serving(self) -> bool:
        """True when the server can do useful work."""
        return self._state is ServerState.ACTIVE

    def _set_state(self, state: ServerState) -> None:
        old = self._state
        self._state = state
        self.state_log.append((self.env.now, state))
        for watcher in self._watchers:
            watcher.state_changed(self, old, state)
        self._record_power()

    def _start_transition(self, interim: ServerState, delay: float,
                          final: ServerState) -> Event:
        self._set_state(interim)

        def body(env):
            yield env.timeout(delay)
            # Only complete the transition this timer started: a
            # protective fail() during boot must not be resurrected to
            # ACTIVE, and after fail → repair → power_on the newer
            # transition owns the server — this stale timer must not
            # finish it early.
            if self._transition is proc:
                if self._state is interim:
                    self._set_state(final)
                self._transition = None

        proc = self._transition = self.env.process(
            body(self.env), name=f"{self.name}:{interim.value}")
        return proc

    def power_on(self) -> Event:
        """OFF → BOOTING → ACTIVE after ``boot_s``; returns completion."""
        if self._state is ServerState.BOOTING:
            return self._transition
        if self._state is not ServerState.OFF:
            raise InvalidTransition(
                f"{self.name}: cannot power on from {self._state.value}")
        return self._start_transition(ServerState.BOOTING, self.boot_s,
                                      ServerState.ACTIVE)

    def shut_down(self) -> None:
        """ACTIVE/SLEEPING → OFF immediately; any offered load is shed."""
        if self._state not in (ServerState.ACTIVE, ServerState.SLEEPING):
            raise InvalidTransition(
                f"{self.name}: cannot shut down from {self._state.value}")
        self._offered_load = 0.0
        self._set_state(ServerState.OFF)

    def sleep(self) -> None:
        """ACTIVE → SLEEPING (suspend-to-RAM); load must be drained."""
        if self._state is not ServerState.ACTIVE:
            raise InvalidTransition(
                f"{self.name}: cannot sleep from {self._state.value}")
        if self._offered_load > 0:
            raise InvalidTransition(
                f"{self.name}: drain load before sleeping "
                f"({self._offered_load:.1f} still offered)")
        self._set_state(ServerState.SLEEPING)

    def wake(self) -> Event:
        """SLEEPING → WAKING → ACTIVE after ``wake_s``."""
        if self._state is ServerState.WAKING:
            return self._transition
        if self._state is not ServerState.SLEEPING:
            raise InvalidTransition(
                f"{self.name}: cannot wake from {self._state.value}")
        return self._start_transition(ServerState.WAKING, self.wake_s,
                                      ServerState.ACTIVE)

    def fail(self) -> None:
        """Any state → FAILED (e.g. thermal protective shutdown, §2.2)."""
        self._offered_load = 0.0
        self._set_state(ServerState.FAILED)

    def repair(self) -> None:
        """FAILED → OFF (ready to be booted again)."""
        if self._state is not ServerState.FAILED:
            raise InvalidTransition(
                f"{self.name}: cannot repair from {self._state.value}")
        self._set_state(ServerState.OFF)

    # ------------------------------------------------------------------
    # Load & capacity
    # ------------------------------------------------------------------
    @property
    def effective_capacity(self) -> float:
        """Deliverable work rate in the current state and CPU states.

        Served from a cache refreshed by :meth:`_record_power`: the
        inputs (state, P-state, T-state) all funnel through it, and
        dispatch/utilization loops read this once per server per tick.
        """
        return self._eff_cap

    @property
    def offered_load(self) -> float:
        return self._offered_load

    @property
    def delivered_load(self) -> float:
        """Work actually completed per second."""
        return min(self._offered_load, self.effective_capacity)

    @property
    def shed_load(self) -> float:
        """Offered work the server cannot serve."""
        return max(0.0, self._offered_load - self.effective_capacity)

    @property
    def utilization(self) -> float:
        """Busy fraction of the *current* capacity, in [0, 1]."""
        cap = self.effective_capacity
        if cap <= 0:
            return 0.0
        return min(self._offered_load / cap, 1.0)

    def set_offered_load(self, load: float) -> None:
        """Assign work (done by the load balancer)."""
        if load < 0:
            raise ValueError(f"negative load {load}")
        load = float(load)
        if load == self._offered_load:
            # Unchanged load with every other power input already
            # funneled through _record_power means the cached power is
            # current: record it without re-evaluating the model.  The
            # monitor sees the same sample train either way, and under
            # steady demand this is the dispatch loop's common case.
            self.power_monitor.record(self._power_w)
            return
        self._offered_load = load
        self._record_power()

    # ------------------------------------------------------------------
    # DVFS knobs (§4.2)
    # ------------------------------------------------------------------
    @property
    def pstate(self) -> int:
        return self._pstate

    def set_pstate(self, index: int) -> None:
        """Command a P-state (DVFS policy interface); re-commanding the
        current one changes nothing."""
        if not 0 <= index < len(self.model.pstates):
            raise ValueError(f"P-state {index} out of range")
        if index == self._pstate:
            return
        self._pstate = index
        self._record_power()

    # ------------------------------------------------------------------
    # Power accounting & cappable-load protocol
    # ------------------------------------------------------------------
    def _power_at(self, tstate: int) -> float:
        state = self._state
        if state is ServerState.OFF:
            return self.model.off_w
        if state in (ServerState.BOOTING, ServerState.WAKING):
            return self.model.boot_w
        if state is ServerState.SLEEPING:
            return self.sleep_w
        if state is ServerState.FAILED:
            return self.model.off_w
        # Utilization is relative to capacity *at the queried T-state*:
        # throttling shrinks capacity, so the same offered load keeps
        # the CPU busier.
        cap = self.capacity * self.model.capacity_fraction(self._pstate,
                                                           tstate)
        util = min(self._offered_load / cap, 1.0) if cap > 0 else 0.0
        return self.model.power(util, self._pstate, tstate)

    def power_w(self) -> float:
        """Actual wall draw right now (with any cap applied).

        Served from a cache: every mutation that can change power
        (state, load, P-/T-state, cap) funnels through
        :meth:`_record_power`, which refreshes the cache, so the model
        is never re-evaluated on read.  At fleet scale this is the
        difference between O(changed) and O(fleet) ticks.
        """
        return self._power_w

    def demand_w(self) -> float:
        """Draw the server *wants* (cap removed) — capper input."""
        return self._power_at(0)

    def min_power_w(self) -> float:
        """Floor the capper can reach without changing server state."""
        if self._state is not ServerState.ACTIVE:
            return self.power_w()
        deepest = len(self.model.pstates.tstates) - 1
        return self._power_at(deepest)

    def apply_cap(self, watts: float) -> float:
        """Throttle (T-states) until draw ≤ ``watts``; returns draw.

        T-states rather than P-states so the capper cannot fight the
        DVFS policy over the same knob — the §5.1 lesson applied.
        """
        self._cap_w = float(watts)
        if self._state is not ServerState.ACTIVE:
            return self.power_w()
        for tstate in range(len(self.model.pstates.tstates)):
            if self._power_at(tstate) <= watts:
                self._tstate = tstate
                break
        else:
            self._tstate = len(self.model.pstates.tstates) - 1
        self._record_power()
        return self.power_w()

    def remove_cap(self) -> None:
        """Lift any throttle."""
        if self._cap_w is None and self._tstate == 0:
            return
        self._cap_w = None
        self._tstate = 0
        self._record_power()

    @property
    def capped(self) -> bool:
        return self._cap_w is not None

    def _record_power(self) -> None:
        """Re-evaluate wall power; record it and push the delta.

        The single funnel for power changes: refreshes the
        :meth:`power_w` and :attr:`effective_capacity` caches and
        pushes the change in :func:`quanta` to watching aggregates, so
        fleet/rack sums stay current — and exact — without ever
        scanning.  A change too small to move the quanta notifies
        nobody.
        """
        if self._state is ServerState.ACTIVE:
            self._eff_cap = self.capacity * self.model.capacity_fraction(
                self._pstate, self._tstate)
        else:
            self._eff_cap = 0.0
        power = self._power_at(self._tstate)
        self.power_monitor.record(power)
        old = self._power_w
        if power != old:
            self._power_w = power
            dq = quanta(power) - quanta(old)
            if dq:
                for watcher in self._watchers:
                    watcher.power_changed(self, dq)

    def energy_j(self, start: float | None = None,
                 end: float | None = None) -> float:
        """Energy consumed over an interval (integrated wall power)."""
        return self.power_monitor.integral(start, end)

    def __repr__(self) -> str:
        return (f"<Server {self.name!r} {self._state.value} "
                f"util={self.utilization:.2f} {self.power_w():.0f}W>")
