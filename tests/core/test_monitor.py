"""Workflow monitoring from TFC records and documents."""

from __future__ import annotations

import pytest

from repro.core.monitor import WorkflowMonitor
from repro.core.tfc import TfcRecord


@pytest.fixture()
def monitor(fig9b_run):
    _, tfc = fig9b_run
    return WorkflowMonitor(tfc=tfc)


class TestMonitor:
    def test_requires_a_source(self):
        with pytest.raises(ValueError):
            WorkflowMonitor()

    def test_processes(self, monitor, fig9b_run):
        trace, _ = fig9b_run
        assert monitor.processes() == [trace.process_id]

    def test_history_ordered(self, monitor, fig9b_run):
        trace, _ = fig9b_run
        history = monitor.history(trace.process_id)
        assert [(r.activity_id, r.iteration) for r in history] == [
            ("A", 0), ("B1", 0), ("B2", 0), ("C", 0), ("D", 0),
            ("A", 1), ("B1", 1), ("B2", 1), ("C", 1), ("D", 1),
        ]

    def test_status(self, monitor, fig9b_run, fig9b):
        """A monitored instance's status comes from its document, and
        agrees with the TFC's records of it."""
        trace, _ = fig9b_run
        status = monitor.status_of(trace.final_document, fig9b)
        assert status.finished
        assert status.executions == 10
        assert len(monitor.history(trace.process_id)) == status.executions

    def test_status_unknown_process(self, monitor):
        assert monitor.history("no-such-process") == []
        assert monitor.process_duration("no-such-process") is None
        assert monitor.slowest_handoff("no-such-process") is None

    def test_activity_gaps(self, monitor, fig9b_run):
        trace, _ = fig9b_run
        gaps = monitor.activity_gaps(trace.process_id)
        # Every step after the first has a gap, and gaps are >= 0.
        assert len(gaps) == 9
        assert all(gap >= 0 for gap in gaps.values())

    def test_statistics(self, monitor):
        stats = monitor.statistics()
        assert set(stats) == {"A", "B1", "B2", "C", "D"}
        assert stats["A"].executions == 2
        assert stats["A"].participants == ("submitter@acme.example",)
        assert stats["B1"].mean_gap_seconds is not None

    def test_status_of_document(self, fig9a_trace, fig9a):
        status = WorkflowMonitor.status_of(fig9a_trace.final_document,
                                           fig9a)
        assert status.finished


class TestVerificationCacheStats:
    def test_no_cache_attached(self, monitor):
        assert monitor.verification_cache_stats() is None

    def test_stats_from_incremental_tfc(self, world, fig9b, backend):
        from repro.core import InMemoryRuntime, TfcServer
        from repro.document import build_initial_document
        from repro.document.vcache import VerificationCache
        from repro.workloads.figure9 import DESIGNER, figure9_responders

        cache = VerificationCache()
        tfc = TfcServer(world.keypair("tfc@cloud.example"), world.directory,
                        backend=backend, verify_cache=cache)
        initial = build_initial_document(fig9b, world.keypair(DESIGNER),
                                         backend=backend)
        runtime = InMemoryRuntime(world.directory, world.keypairs, tfc=tfc,
                                  backend=backend)
        runtime.run(initial, fig9b, figure9_responders(1), mode="advanced")

        # The monitor picks the cache up from the TFC automatically.
        monitor = WorkflowMonitor(tfc=tfc)
        stats = monitor.verification_cache_stats()
        assert stats is not None
        # From the second hop on, the TFC answered the unchanged
        # cascade prefix from its cache.
        assert stats["hits"] > 0
        assert stats["stores"] > 0
        assert stats["invalidations"] == 0
        assert 0.0 < stats["hit_rate"] <= 1.0


class TestRecordListMonitor:
    def test_from_raw_records(self):
        records = [
            TfcRecord("p1", "A", 0, "alice@x", 1.0),
            TfcRecord("p1", "B", 0, "bob@x", 3.5),
            TfcRecord("p2", "A", 0, "alice@x", 4.0),
        ]
        monitor = WorkflowMonitor(records=records)
        assert monitor.processes() == ["p1", "p2"]
        assert monitor.activity_gaps("p1") == {("B", 0): 2.5}
        stats = monitor.statistics()
        assert stats["A"].executions == 2
        assert stats["A"].mean_gap_seconds is None


class TestDurations:
    def test_process_duration(self, monitor, fig9b_run):
        trace, tfc = fig9b_run
        duration = monitor.process_duration(trace.process_id)
        records = tfc.records
        assert duration == pytest.approx(
            records[-1].timestamp - records[0].timestamp
        )
        assert duration >= 0

    def test_duration_needs_two_records(self):
        monitor = WorkflowMonitor(records=[
            TfcRecord("p1", "A", 0, "a@x", 5.0),
        ])
        assert monitor.process_duration("p1") is None
        assert monitor.process_duration("ghost") is None

    def test_slowest_handoff(self):
        monitor = WorkflowMonitor(records=[
            TfcRecord("p1", "A", 0, "a@x", 0.0),
            TfcRecord("p1", "B", 0, "b@x", 1.0),
            TfcRecord("p1", "C", 0, "c@x", 9.0),
            TfcRecord("p1", "D", 0, "d@x", 9.5),
        ])
        key, gap = monitor.slowest_handoff("p1")
        assert key == ("C", 0)
        assert gap == 8.0

    def test_slowest_handoff_empty(self):
        monitor = WorkflowMonitor(records=[])
        assert monitor.slowest_handoff("p1") is None
