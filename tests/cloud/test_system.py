"""Full cloud-system integration (Fig. 7 end to end)."""

from __future__ import annotations

import statistics

import pytest

from repro.cloud import CloudSystem, run_process_in_cloud
from repro.cloud.hbase import Region
from repro.cloud.pool import DOC_TABLE
from repro.cloud.system import drive_instance
from repro.document import build_initial_document, verify_document
from repro.workloads.figure9 import (
    DESIGNER,
    PARTICIPANTS,
    figure9_responders,
)


@pytest.fixture()
def system(world, backend):
    return CloudSystem(world.directory,
                       world.keypair("tfc@cloud.example"),
                       portals=3, region_servers=2, datanodes=3,
                       backend=backend)


@pytest.fixture()
def cloud_run(system, world, fig9b, backend):
    initial = build_initial_document(fig9b, world.keypair(DESIGNER),
                                     backend=backend)
    final = run_process_in_cloud(
        system, fig9b, initial, world.keypair(DESIGNER),
        world.keypairs, figure9_responders(1),
    )
    return system, final


class TestEndToEnd:
    def test_process_completes(self, cloud_run):
        system, final = cloud_run
        assert final.execution_count("D") == 2
        assert len(final.cers(include_definition=False)) == 20

    def test_final_document_verifies(self, cloud_run, world, backend):
        system, final = cloud_run
        verify_document(final, world.directory, backend,
                        tfc_identities={system.tfc.identity})

    def test_pool_history_grows(self, cloud_run):
        system, final = cloud_run
        history = system.pool.history(final.process_id)
        assert len(history) == 11  # initial + 10 steps
        sizes = [len(d.to_bytes()) for d in history]
        assert sizes == sorted(sizes)

    def test_portals_share_load(self, cloud_run):
        system, _ = cloud_run
        used = [p for p in system.portals if p.stats["logins"] > 0]
        assert len(used) >= 2  # round-robin spread the clients

    def test_all_todos_drained(self, cloud_run, world):
        system, _ = cloud_run
        for identity in world.keypairs:
            assert system.pool.todo_for(identity) == []

    def test_notifications_sent(self, cloud_run):
        system, _ = cloud_run
        # One per routing edge: the initial A, 2 per AND-split, one per
        # sequence edge — the AND-join C is notified once per incoming
        # branch (idempotent TO-DO, duplicate notification).
        assert system.notifier.sent == 12

    def test_sim_clock_advanced(self, cloud_run):
        system, _ = cloud_run
        assert system.clock.now() > 0

    def test_tfc_records_all_steps(self, cloud_run):
        system, _ = cloud_run
        assert len(system.tfc.records) == 10


class TestMapReduceMonitoring:
    def test_activity_statistics(self, cloud_run):
        system, _ = cloud_run
        stats, job = system.activity_statistics()
        assert stats == {"A": 2, "B1": 2, "B2": 2, "C": 2, "D": 2}
        assert job.input_rows >= 1

    def test_instance_progress(self, cloud_run):
        system, final = cloud_run
        progress, _ = system.instance_progress()
        assert progress[final.process_id] == 10


class TestMultipleInstances:
    def test_two_instances_coexist(self, system, world, fig9b, backend):
        finals = []
        for _ in range(2):
            initial = build_initial_document(
                fig9b, world.keypair(DESIGNER), backend=backend
            )
            finals.append(run_process_in_cloud(
                system, fig9b, initial, world.keypair(DESIGNER),
                world.keypairs, figure9_responders(0),
            ))
        assert finals[0].process_id != finals[1].process_id
        progress, _ = system.instance_progress()
        assert progress == {finals[0].process_id: 5,
                            finals[1].process_id: 5}


class TestParticipantWorkload:
    def test_per_participant_counts(self, cloud_run):
        system, _ = cloud_run
        workload, _ = system.participant_workload()
        # Fig. 9B × 2 loop passes: each executor signed 2 intermediates.
        assert workload == {
            "submitter@acme.example": 2,
            "reviewer1@acme.example": 2,
            "reviewer2@partner.example": 2,
            "consolidator@partner.example": 2,
            "approver@megacorp.example": 2,
        }


class TestPoolGrowth:
    """Under full routing each instance's row holds every version of its
    document, so the documents table grows by whole documents; a region
    splits by bytes, and a flush rewrites one bounded region."""

    def test_flush_size_stays_level_as_the_pool_grows(self, world, fig9b,
                                                      backend,
                                                      monkeypatch):
        system = CloudSystem(world.directory,
                             world.keypair("tfc@cloud.example"),
                             backend=backend)
        threshold = system.hbase.split_threshold_bytes
        flushes: list[tuple[int, int]] = []
        encode = Region.encode_rows

        def recorded(region):
            data = encode(region)
            if region.table == DOC_TABLE:
                flushes.append((region.data_bytes, len(data)))
            return data

        monkeypatch.setattr(Region, "encode_rows", recorded)
        clients = [system.client(world.keypair(identity))
                   for identity in sorted(set(PARTICIPANTS.values()))]
        designer = system.client(world.keypair(DESIGNER))
        index = 0
        while system.hbase.total_bytes(DOC_TABLE) <= 2 * threshold:
            initial = build_initial_document(
                fig9b, world.keypair(DESIGNER), backend=backend,
                process_id=f"{index:032x}", created_at=0.0)
            designer.upload_initial(initial)
            drive_instance(clients, initial.process_id,
                           figure9_responders(1))
            index += 1
        largest_put = max(
            len(cell.value)
            for region in system.hbase.regions_of(DOC_TABLE)
            for row in region.rows.values()
            for cell in row.values())
        assert system.hbase.stats["splits"] >= 2
        assert max(held for held, _ in flushes) <= threshold + largest_put
        half = len(flushes) // 2
        first = statistics.mean(size for _, size in flushes[:half])
        second = statistics.mean(size for _, size in flushes[half:])
        # Without byte splits the second half's flushes rewrite 2.7
        # times the bytes of the first half's.
        assert second < 1.5 * first
