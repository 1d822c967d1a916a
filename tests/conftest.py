"""Fixtures shared by the worker-process test modules."""

import multiprocessing

import pytest

from repro.datacenter.workers import WorkerHandle


@pytest.fixture()
def spawned(monkeypatch):
    """Pids of every worker process spawned during the test."""
    pids: list[int] = []
    spawn = WorkerHandle._spawn

    def recording(self):
        spawn(self)
        pids.append(self.pid)

    monkeypatch.setattr(WorkerHandle, "_spawn", recording)
    yield pids
    live = {p.pid for p in multiprocessing.active_children()}
    assert not live.intersection(pids)


class PipeTraffic(list):
    """``(event, label, until)`` per advance sent to or read from a
    worker pipe, in wall order; ``event`` is ``"send"`` or ``"recv"``."""

    def assert_scattered(self, labels) -> None:
        """Every period is sent to all ``labels`` before any reply is
        read."""
        periods: dict[float, list] = {}
        for event, label, until in self:
            periods.setdefault(until, []).append((event, label))
        assert periods
        sends = sorted(("send", label) for label in labels)
        for until, seq in periods.items():
            assert sorted(seq[:len(sends)]) == sends, (until, seq)


@pytest.fixture()
def pipe_traffic(monkeypatch):
    """Record the advance messages crossing every worker pipe."""
    traffic = PipeTraffic()
    send, recv = WorkerHandle._send, WorkerHandle._recv

    def sending(self, message):
        if message[0] == "advance":
            traffic.append(("send", self.label, message[1]))
        return send(self, message)

    def receiving(self, message):
        out = recv(self, message)
        if message[0] == "advance":
            traffic.append(("recv", self.label, message[1]))
        return out

    monkeypatch.setattr(WorkerHandle, "_send", sending)
    monkeypatch.setattr(WorkerHandle, "_recv", receiving)
    return traffic
