"""Fleet runs under delta routing: determinism, accounting, the win.

Delta routing must keep the fleet's determinism where it holds, must
keep the audit green (reassembled documents still verify cold), and
must actually reduce bytes on the wire for revisit-heavy workloads —
the acceptance bar of the routing design.

Same seed ⇒ byte-identical report holds under delta routing on any
backend, with or without region splits: every pool row, each
instance's chunk row included, is keyed by a seed-derived process id,
never by a digest of ciphertext, which carries the backend's random
nonces and padding.
"""

from __future__ import annotations

import pytest

from repro.cloud import CloudSystem
from repro.crypto.backend import PureBackend
from repro.crypto.fast import FastBackend
from repro.document.vcache import VerificationCache
from repro.fleet import (
    TFC_IDENTITY,
    ClosedLoop,
    Fleet,
    FleetConfig,
    build_fleet,
    workload_from_spec,
)
from repro.workloads import build_world


def run_once(spec: str, *, delta: bool, seed: int = 13, instances: int = 2):
    fleet = build_fleet(
        workload_from_spec(spec),
        FleetConfig(arrivals=ClosedLoop(instances=instances, concurrency=2),
                    seed=seed, audit_every=1),
        delta_routing=delta,
    )
    return fleet.run()


class TestDeltaDeterminism:
    @pytest.fixture(scope="class")
    def twin_reports(self):
        return (run_once("chain:8:3", delta=True),
                run_once("chain:8:3", delta=True))

    def test_same_seed_byte_identical(self, twin_reports):
        a, b = twin_reports
        assert a.to_json() == b.to_json()

    def test_report_declares_delta_routing(self, twin_reports):
        a, _ = twin_reports
        assert a.routing == "delta"
        assert a.chunk_store["unique_chunks"] > 0

    def test_audit_green(self, twin_reports):
        a, _ = twin_reports
        assert a.instances_completed == 2
        assert a.instances_audited == 2
        assert a.audit_failures == 0


class TestSeededSplitDeterminism:
    """Regions split, and a seeded backend keeps the reports identical."""

    @pytest.fixture(scope="class")
    def twin_runs(self):
        workload = workload_from_spec("chain:6:3")
        world = build_world([*workload.identities, TFC_IDENTITY],
                            bits=1024, backend=FastBackend())

        def run():
            system = CloudSystem(
                world.directory, world.keypair(TFC_IDENTITY),
                backend=PureBackend(seed=b"split-determinism"),
                verify_cache=VerificationCache(), delta_routing=True,
                split_threshold_rows=2,
            )
            fleet = Fleet(system, workload, world.keypairs, FleetConfig(
                arrivals=ClosedLoop(instances=3, concurrency=2), seed=3))
            return fleet.run(), system.hbase.stats["splits"]

        return run(), run()

    def test_regions_split(self, twin_runs):
        (_, splits), _ = twin_runs
        assert splits > 0

    def test_same_seed_byte_identical(self, twin_runs):
        (a, _), (b, _) = twin_runs
        assert a.instances_completed == 3
        assert a.to_json() == b.to_json()


class TestSplitDeterminism:
    """Regions split on the default backend, and the reports repeat."""

    @pytest.fixture(scope="class")
    def twin_runs(self):
        def run():
            fleet = build_fleet(
                workload_from_spec("chain:6:3"),
                FleetConfig(arrivals=ClosedLoop(instances=8, concurrency=3),
                            seed=4),
                delta_routing=True, split_threshold_rows=4)
            assert isinstance(fleet.system.backend, FastBackend)
            return fleet.run(), fleet.system.hbase.stats["splits"]

        return run(), run()

    def test_regions_split(self, twin_runs):
        (_, splits), _ = twin_runs
        assert splits > 0

    def test_same_seed_byte_identical(self, twin_runs):
        (a, _), (b, _) = twin_runs
        assert a.instances_completed == 8
        assert a.to_json() == b.to_json()


class TestDeltaVsFull:
    @pytest.fixture(scope="class")
    def pair(self):
        return (run_once("chain:12:3", delta=False),
                run_once("chain:12:3", delta=True))

    def test_same_work_performed(self, pair):
        full, delta = pair
        assert delta.instances_completed == full.instances_completed
        assert delta.hops_executed == full.hops_executed
        assert full.routing == "full"

    def test_delta_moves_fewer_bytes(self, pair):
        full, delta = pair
        full_wire = full.bytes_to_cloud + full.bytes_from_cloud
        delta_wire = delta.bytes_to_cloud + delta.bytes_from_cloud
        assert delta_wire < full_wire / 2

    def test_chunk_store_dedups(self, pair):
        _, delta = pair
        stats = delta.chunk_store
        assert stats["dedup_hits"] > 0
        assert stats["unique_bytes"] < stats["logical_bytes"]

    def test_full_report_has_no_chunk_store(self, pair):
        full, _ = pair
        assert full.chunk_store == {}
        assert full.bytes_to_cloud > 0
