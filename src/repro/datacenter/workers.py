"""Worker supervisor: one pipe protocol for zone shards and sites.

Both multi-process drivers — the zone-sharded plant
(:mod:`repro.datacenter.sharded`) and the federation
(:mod:`repro.federation`) — run the same thing in a worker: an object
with ``ready()`` / ``advance(until, x)`` / ``finish()``
(:class:`~repro.datacenter.sharded._ShardGroup`,
:class:`~repro.federation.SiteRuntime`).  This module is the one
process boundary around such an object.

Protocol
--------
The parent sends ``("build", factory, args)``; the worker constructs
``factory(*args)`` and answers ``("ready", obj.ready())``.  Each
``("advance", until, x)`` is answered ``("ok", obj.advance(until,
x))``, and ``("finish",)`` is answered ``("result", obj.finish())``.
A persistent worker then waits for the next ``build`` (warm reuse)
until ``("exit",)``; any exception is reported as ``("error",
text)`` before the worker dies.  Each period's payload is small —
``2 × shards`` floats or one :class:`~repro.federation.SiteSummary` —
so it rides the pipe with the control token.

Scatter/gather
--------------
The lockstep loop posts each period to every worker
(:meth:`WorkerHandle.post_advance`) before it collects any reply
(:meth:`WorkerHandle.advance`, in handle order), so all workers
compute the period at once while the parent waits on the first.  A
handle holds at most one uncollected request: replies come back in
send order.

Supervision
-----------
Every reply crosses :func:`poll_recv`, so a SIGKILLed or hung worker
surfaces as :class:`ShardWorkerDied` / :class:`ShardWorkerTimeout`
naming what the worker served and the last completed macro period.
The receive deadline starts when the reply is collected, not when
the request was posted.  The handle's message log — the ``build``
message plus every ``advance`` since — *is* the checkpoint: on a
death the handle respawns the worker, replays the log (the simulation
is deterministic, so the discarded replies are bit-identical to the
ones already consumed), and takes the reply to the in-flight message.
Logs are per handle, so a death found while collecting one worker
replays that worker alone; the others' replies wait in their pipes.
A worker that *reports* an error is not restarted: replay would only
repeat a simulation bug.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import time
import typing

__all__ = [
    "Job",
    "ShardWorkerDied",
    "ShardWorkerPool",
    "ShardWorkerTimeout",
    "WorkerHandle",
    "poll_recv",
    "supervised",
]


class ShardWorkerDied(RuntimeError):
    """A pipe worker process exited (or broke its pipe) mid-protocol.

    The message names the shard ids (or site) served by the worker and
    the last macro period it completed, so a crash in a 96-shard
    campaign is attributable without archaeology.
    """


class ShardWorkerTimeout(ShardWorkerDied):
    """A pipe worker failed to reply within the receive deadline.

    Subclass of :class:`ShardWorkerDied`: callers that only care about
    "the worker is gone" catch the base class; callers that restart
    differently on hang vs. crash can distinguish.
    """


def poll_recv(conn, deadline_s: float, proc=None, context: str = ""):
    """``conn.recv()`` with a liveness poll instead of a blocking wait.

    Polls ``conn`` in short slices up to ``deadline_s`` wall seconds.
    Raises :class:`ShardWorkerDied` as soon as the worker process is
    observed dead with nothing left in the pipe (or the pipe returns
    EOF), and :class:`ShardWorkerTimeout` when the deadline passes
    with the worker still alive — a hung worker, not a dead one.
    ``context`` is appended to the error message (shard ids, last
    completed period).
    """
    if deadline_s <= 0:
        raise ValueError("receive deadline must be positive")
    deadline = time.monotonic() + deadline_s
    while True:
        remaining = deadline - time.monotonic()
        if conn.poll(min(0.05, max(0.0, remaining))):
            try:
                return conn.recv()
            except (EOFError, OSError) as exc:
                raise ShardWorkerDied(
                    f"worker pipe closed mid-protocol{context}: "
                    f"{type(exc).__name__}") from exc
        if proc is not None and not proc.is_alive() and not conn.poll(0):
            raise ShardWorkerDied(
                f"worker process exited (code {proc.exitcode})"
                f"{context}")
        if remaining <= 0:
            raise ShardWorkerTimeout(
                f"no reply within {deadline_s:.0f}s deadline"
                f"{context}")


class Job(typing.NamedTuple):
    """One worker's run: what to build and how to name it in errors."""

    #: Error-message label, e.g. ``"shards [0, 2]"`` or ``"site 'dc0'"``.
    label: str
    #: Picklable callable building the ``ready/advance/finish`` object.
    factory: typing.Callable
    args: tuple


_REPLY = {"build": "ready", "advance": "ok", "finish": "result"}


def _serve(conn, persist: bool) -> None:
    """The worker loop: build, answer the protocol, repeat if pooled."""
    try:
        while True:
            msg = conn.recv()
            if msg[0] == "exit":
                return
            if msg[0] != "build":  # pragma: no cover - protocol guard
                raise RuntimeError(f"unknown message {msg[0]!r}")
            runtime = msg[1](*msg[2])
            conn.send(("ready", runtime.ready()))
            while True:
                msg = conn.recv()
                if msg[0] == "advance":
                    conn.send(("ok", runtime.advance(msg[1], msg[2])))
                elif msg[0] == "finish":
                    conn.send(("result", runtime.finish()))
                    break
                else:  # pragma: no cover - protocol guard
                    raise RuntimeError(f"unknown message {msg[0]!r}")
            del runtime
            if not persist:
                return
    except BaseException as exc:  # noqa: BLE001 - reported to parent
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
        raise
    finally:
        conn.close()


class WorkerHandle:
    """A supervised worker process serving one :class:`Job` at a time.

    Construction spawns the worker and *sends* the build without
    waiting, so a driver starting several workers builds them in
    parallel; :meth:`ready` collects the build's reply.  Every request
    is logged, and a dead or hung worker is respawned and the log
    replayed, up to ``max_restarts`` times per handle.  With
    ``persist`` the process outlives a clean :meth:`finish` so a
    :class:`ShardWorkerPool` can :meth:`build` the next run on it warm.
    """

    def __init__(self, job: Job, recv_deadline_s: float = 60.0,
                 max_restarts: int = 3, persist: bool = False):
        self.recv_deadline_s = float(recv_deadline_s)
        self.max_restarts = int(max_restarts)
        self.persist = bool(persist)
        self._spawn()
        self.build(job)

    # -- process lifecycle --------------------------------------------
    def _spawn(self) -> None:
        ctx = multiprocessing.get_context()
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=_serve, args=(child, self.persist),
                                daemon=True)
        self.proc.start()
        child.close()

    def _stop(self) -> None:
        if self.done and self.proc.is_alive():
            # A finished pooled worker waits for its next build.
            self._send(("exit",))
            self.proc.join(timeout=5.0)
        self.conn.close()
        if self.proc.is_alive():
            self.proc.terminate()
        self.proc.join(timeout=5.0)

    @property
    def pid(self) -> int | None:
        return self.proc.pid

    def close(self) -> None:
        """Release the run; pooled workers survive a *clean* finish.

        A persistent worker that completed its run stays alive for the
        pool to rebuild (:meth:`ShardWorkerPool.close` retires it); one
        closed mid-run is in an unknown state and is terminated.
        """
        if self.persist and self.done and self.proc.is_alive():
            return
        self._stop()

    # -- the protocol --------------------------------------------------
    def build(self, job: Job) -> None:
        """Start a run: the build message begins a fresh log."""
        self.label = job.label
        self.restarts = 0
        self.completed_periods = 0
        self.done = False
        self.log: list[tuple] = []
        self._pending: tuple | None = None
        self._post(("build", job.factory, job.args))

    def ready(self):
        """The build's reply: the runtime's ``ready()`` value."""
        return self._collect()

    def post_advance(self, until: float, x) -> None:
        """Send one period without waiting; :meth:`advance` collects it.

        The lockstep loop posts every handle's period before collecting
        any, so the workers compute it concurrently.
        """
        self._post(("advance", until, x))

    def advance(self, until: float, x):
        """The reply to this period, posting it first unless posted."""
        message = ("advance", until, x)
        if self._pending != message:
            self._post(message)
        out = self._collect()
        self.completed_periods += 1
        return out

    def finish(self):
        self._post(("finish",))
        out = self._collect()
        self.done = True
        if not self.persist:
            self.proc.join(timeout=30.0)
        return out

    # -- supervised request/replay ------------------------------------
    def _context(self) -> str:
        return (f" ({self.label}, last completed period "
                f"{self.completed_periods})")

    def _send(self, message: tuple) -> bool:
        try:
            self.conn.send(message)
        except (BrokenPipeError, OSError):
            return False
        return True

    def _post(self, message: tuple) -> None:
        if self._pending is not None:
            # Replies come back in send order: a second request before
            # the first is collected would take the wrong reply.
            raise RuntimeError(
                f"{message[0]!r} posted while {self._pending[0]!r} is "
                f"uncollected{self._context()}")
        self.log.append(message)
        self._pending = message
        self._sent = self._send(message)

    def _recv(self, message: tuple):
        msg = poll_recv(self.conn, self.recv_deadline_s, proc=self.proc,
                        context=self._context())
        if msg[0] == "error":
            # A reported failure is a simulation bug, not a crash —
            # replay would just repeat it, so surface it instead.
            raise RuntimeError(f"worker ({self.label}) failed: {msg[1]}")
        expect = _REPLY[message[0]]
        if msg[0] != expect:  # pragma: no cover - protocol guard
            raise RuntimeError(f"expected {expect!r}, got {msg[0]!r}")
        return msg[1]

    def _collect(self):
        """The reply to the last logged message, restarting as needed."""
        while True:
            try:
                if not self._sent:
                    raise ShardWorkerDied(
                        f"worker pipe broken on send{self._context()}")
                out = self._recv(self.log[-1])
                self._pending = None
                return out
            except ShardWorkerDied as exc:
                self._restart(exc)

    def _restart(self, cause: ShardWorkerDied) -> None:
        """Respawn and replay the log up to the in-flight message."""
        while True:
            self.restarts += 1
            if self.restarts > self.max_restarts:
                raise ShardWorkerDied(
                    f"worker exceeded {self.max_restarts} restarts"
                    f"{self._context()}") from cause
            self._stop()
            self._spawn()
            try:
                for message in self.log[:-1]:
                    if not self._send(message):
                        raise ShardWorkerDied(
                            f"worker pipe broken on replay"
                            f"{self._context()}")
                    self._recv(message)
            except ShardWorkerDied as exc:
                cause = exc
                continue
            self._sent = self._send(self.log[-1])
            return


class ShardWorkerPool:
    """Persistent workers reused across runs.

    Sharded and federated runs are one-shot by design; benchmark
    ``--repeat`` loops therefore pay worker spawn every iteration.  A
    pool keeps up to ``workers`` persistent pipe servers alive between
    runs: pass the same pool to successive
    ``ShardedCoSimulation(..., pool=...)`` constructions and each run
    re-``build``\\ s its jobs on the warm processes.  Close the pool
    (or use it as a context manager) to retire the workers.

    Reuse cannot perturb results: the worker rebuilds its whole
    runtime from the build message, so a warm process differs from a
    fresh one only by interpreter startup cost.
    """

    def __init__(self, workers: int, recv_deadline_s: float = 120.0):
        if workers < 1:
            raise ValueError("pool needs at least one worker")
        self.workers = int(workers)
        self.recv_deadline_s = float(recv_deadline_s)
        self._handles: list[WorkerHandle] = []

    def lease(self, jobs: typing.Sequence[Job]) -> list[WorkerHandle]:
        """Handles for one run, reusing idle live workers in order."""
        if len(jobs) > self.workers:
            raise ValueError(
                f"run wants {len(jobs)} workers, pool holds "
                f"{self.workers}")
        out = []
        for w, job in enumerate(jobs):
            if w < len(self._handles):
                handle = self._handles[w]
                if handle.done and handle.proc.is_alive():
                    handle.build(job)
                    out.append(handle)
                    continue
                handle.persist = False
                handle.close()
            handle = WorkerHandle(job, recv_deadline_s=self.recv_deadline_s,
                                  persist=True)
            if w < len(self._handles):
                self._handles[w] = handle
            else:
                self._handles.append(handle)
            out.append(handle)
        return out

    def close(self) -> None:
        """Retire every pooled worker (idempotent)."""
        for handle in self._handles:
            handle.persist = False
            handle.close()
        self._handles = []

    def __enter__(self) -> "ShardWorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@contextlib.contextmanager
def supervised(jobs: typing.Sequence[Job], recv_deadline_s: float,
               max_restarts: int = 3,
               pool: ShardWorkerPool | None = None):
    """Start one worker per job; close every started worker on exit.

    Handles are created inside the cleanup scope, so a worker that
    fails to spawn or build never strands the ones started before it.
    With a ``pool`` the workers are leased from it instead (the pool
    keeps cleanly finished ones warm; a failed lease is the pool's to
    clean up when it closes).
    """
    handles: list[WorkerHandle] = []
    try:
        if pool is not None:
            handles = pool.lease(jobs)
        else:
            for job in jobs:
                handles.append(WorkerHandle(
                    job, recv_deadline_s=recv_deadline_s,
                    max_restarts=max_restarts))
        yield handles
    finally:
        for handle in handles:
            handle.close()
