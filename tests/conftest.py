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
