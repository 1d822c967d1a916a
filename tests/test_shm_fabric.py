"""Transport parity: in-process runs vs supervised pipe workers.

The module keeps its historical name; the shared-memory transport it
once also covered is gone, leaving two paths — in-process (``local``)
and one supervised pipe worker per job
(:mod:`repro.datacenter.workers`).  The contract under test is that
the path is invisible in the results: sharded and federated runs are
bit-identical whether or not they spawn workers, including the
federation's SIGKILL restart-and-replay path, and the in-process path
spawns no worker at all.
"""

import multiprocessing

import pytest

from repro.datacenter import (
    DataCenterSpec,
    ShardedCoSimulation,
    ShardWorkerPool,
)
from repro.datacenter.workers import WorkerHandle


def _spec(**overrides):
    base = dict(racks=8, servers_per_rack=10, zones=4, cracs=2,
                backend="vector")
    base.update(overrides)
    return DataCenterSpec(**base)


DEMAND = {"kind": "diurnal", "fraction": 0.6}


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


class TestTransportParity:
    def test_sharded_shm_and_pipe_match_local(self, spawned):
        spec = _spec()
        ref = ShardedCoSimulation(spec, DEMAND, shards=2,
                                  workers=1).run(2 * 3600.0)
        assert spawned == []

        pipe = ShardedCoSimulation(spec, DEMAND, shards=2, workers=2)
        assert pipe.run(2 * 3600.0) == ref
        assert len(spawned) == 2

        with ShardWorkerPool(2) as pool:
            pooled = ShardedCoSimulation(spec, DEMAND, shards=2,
                                         workers=2, pool=pool)
            assert pooled.run(2 * 3600.0) == ref
        assert len(spawned) == 4

    def _federation(self, **kwargs):
        from repro.federation import (
            FederatedCoSimulation,
            FederationSite,
            Region,
            SiteConfig,
            SiteMeta,
        )

        sites = [FederationSite(
            config=SiteConfig(
                name=f"dc{i}",
                spec=_spec(name=f"dc{i}", racks=2, servers_per_rack=4,
                           zones=2, cracs=1)),
            meta=SiteMeta(name=f"dc{i}", energy_price_per_kwh=0.10,
                          static_pue=1.5)) for i in range(2)]
        regions = [Region(name=f"r{i}", home=f"dc{i}",
                          peak_units=0.45 * 800.0, utc_offset_h=8.0 * i,
                          latency_ms={"dc0": 20.0, "dc1": 40.0})
                   for i in range(2)]
        return FederatedCoSimulation(sites, regions, **kwargs)

    def test_federated_shm_and_pipe_match_local(self, spawned):
        ref = self._federation().run(2 * 3600.0)
        assert spawned == []

        pipe = self._federation(workers=True)
        assert pipe.run(2 * 3600.0) == ref
        assert len(spawned) == 2
        assert pipe.recoveries == {"dc0": 0, "dc1": 0}

    @pytest.mark.parametrize("victim", [0, 1])
    def test_chaos_kill_replays_on_both_transports(self, victim,
                                                   spawned):
        # SIGKILL either site's worker mid-run: restart-and-replay must
        # reproduce the uninterrupted in-process result, and only the
        # killed site's worker is respawned.
        ref = self._federation().run(2 * 3600.0)
        name = f"dc{victim}"
        fed = self._federation(workers=True, chaos_kill={name: 3})
        assert fed.run(2 * 3600.0) == ref
        assert fed.recoveries == {f"dc{i}": int(i == victim)
                                  for i in range(2)}
        assert len(spawned) == 3
