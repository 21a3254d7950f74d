"""A replicated delta fleet pinned byte for byte.

A delta fleet keeps each instance's chunks in one row keyed by its
seed-derived process id, so chunk placement over the shards, region
flushes and splits repeat on any backend.  The golden run uses
``PureBackend(seed=...)`` over a committed world, with ring placement,
factor-2 chunk replication, a low split threshold and the lifecycle
sweep, so the sharded chunk store's writes, reads, deletions and region
splits all reach the goldens; the tests compare the goldens and never
regenerate them.  A second pair of runs on the default backend must
repeat byte for byte, and the storage census holds after every sweep.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.cloud.system import CloudSystem
from repro.crypto.backend import PureBackend
from repro.fleet import ClosedLoop, FleetConfig, build_fleet, workload_from_spec
from repro.fleet.fleet import TFC_IDENTITY, Fleet
from repro.workloads.participants import World

from ..cloud.census import take_census

GOLDENS = pathlib.Path(__file__).parent / "goldens"


@pytest.fixture(scope="module")
def fleet_run():
    backend = PureBackend(seed=b"fleet-a")
    world = World.from_dict(
        json.loads((GOLDENS / "world_chain6x3.json").read_text()),
        backend=backend)
    system = CloudSystem(world.directory, world.keypair(TFC_IDENTITY),
                         backend=backend, delta_routing=True,
                         placement="ring", chunk_replicas=2,
                         split_threshold_rows=4)
    fleet = Fleet(system, workload_from_spec("chain:6:3"), world.keypairs,
                  FleetConfig(arrivals=ClosedLoop(instances=6,
                                                  concurrency=3),
                              seed=3, gc_interval=3, collect_metrics=True))
    return fleet.run(), system


def test_report(fleet_run):
    report, _ = fleet_run
    assert report.audit_failures == 0
    assert report.chunk_store["replicas"] == 2
    assert report.to_json() == (
        GOLDENS / "sim_chain6x3_seed3_replicated.json").read_text()


def test_hbase_stats(fleet_run):
    _, system = fleet_run
    assert json.dumps(system.hbase.stats, sort_keys=True) == (
        GOLDENS / "sim_chain6x3_seed3_replicated_hbase.json").read_text()


def test_hot_storage_drained(fleet_run):
    report, system = fleet_run
    assert report.lifecycle["instances_retired"] == 6
    assert system.hbase.stats["splits"] > 0
    assert take_census(system.hbase, replicas=2).bytes == 0


def run_default_backend() -> tuple[str, list[int]]:
    """A ring, R=2 lifecycle fleet on the default backend: its report,
    and the chunk bytes the census counted after each sweep."""
    fleet = build_fleet(
        workload_from_spec("chain:6:3"),
        FleetConfig(arrivals=ClosedLoop(instances=9, concurrency=3),
                    seed=5, gc_interval=4),
        delta_routing=True, placement="ring", chunk_replicas=2,
        split_threshold_rows=4)
    censuses = []
    sweep = fleet._lifecycle_sweep

    def sweep_then_count():
        sweep()
        censuses.append(take_census(fleet.system.hbase, replicas=2).bytes)

    fleet._lifecycle_sweep = sweep_then_count
    report = fleet.run()
    assert report.audit_failures == 0
    return report.to_json(), censuses


def test_default_backend_repeats_byte_for_byte():
    first, censuses = run_default_backend()
    second, _ = run_default_backend()
    assert first == second
    # Two sweeps ran while later instances were live; none ran at the
    # end, so the last instance is still hot.
    assert len(censuses) == 2 and all(censuses)
