"""A replicated delta fleet pinned byte for byte on a seeded backend.

A delta fleet stores each CER chunk under the SHA-256 of its
ciphertext, and the ciphertext carries the backend's random nonces, so
chunk placement over the shards, region flushes and splits follow the
backend's randomness.  Such a fleet repeats byte for byte only on a
seeded backend: this one runs on ``PureBackend(seed=...)`` over a
committed world, with ring placement, factor-2 chunk replication, low
split thresholds and the lifecycle sweep, so the sharded chunk store's
writes, reads, GC fan-out and region splits all reach the goldens.
A sweep also deletes a chunk a client still counts as held, so the
resubmission of a refused delta reaches them too.  The tests compare
the goldens and never regenerate them.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.cloud.system import CloudSystem
from repro.crypto.backend import PureBackend
from repro.fleet import ClosedLoop, FleetConfig, workload_from_spec
from repro.fleet.fleet import TFC_IDENTITY, Fleet
from repro.workloads.participants import World

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
                         split_threshold_rows=16)
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
