"""TFC server: finalisation, timestamps, policy re-encryption, records."""

from __future__ import annotations

import pytest

from repro.core.aea import ActivityExecutionAgent
from repro.core.tfc import TfcServer
from repro.document import build_initial_document
from repro.document.sections import KIND_TFC
from repro.errors import RuntimeFault
from repro.workloads.figure9 import DESIGNER, PARTICIPANTS


@pytest.fixture()
def tfc(world, backend):
    ticks = iter(range(1, 1000))
    return TfcServer(world.keypair("tfc@cloud.example"), world.directory,
                     backend=backend, clock=lambda: float(next(ticks)))


@pytest.fixture()
def after_a_intermediate(world, fig9b, backend, tfc):
    initial = build_initial_document(fig9b, world.keypair(DESIGNER),
                                     backend=backend)
    agent = ActivityExecutionAgent(world.keypair(PARTICIPANTS["A"]),
                                   world.directory, backend)
    result = agent.execute_activity(
        initial, "A", {"attachment": "form"},
        mode="advanced", tfc_identity=tfc.identity,
        tfc_public_key=tfc.public_key,
    )
    assert result.routing is None  # the TFC routes, not the AEA
    return result.document


class TestProcessing:
    def test_finalise(self, tfc, after_a_intermediate):
        outcome = tfc.process(after_a_intermediate)
        assert outcome.activity_id == "A"
        assert outcome.iteration == 0
        assert outcome.timestamp == 1.0
        assert outcome.routing.next_activities == ("B1", "B2")
        document = outcome.document
        assert document.find_cer("A", 0, KIND_TFC) is not None
        assert document.pending_intermediate() == []

    def test_tfc_cer_carries_timestamp(self, tfc, after_a_intermediate):
        document = tfc.process(after_a_intermediate).document
        cer = document.find_cer("A", 0, KIND_TFC)
        assert cer.timestamp == 1.0
        assert cer.participant == tfc.identity

    def test_policy_reencryption_grants_requesters(self, world, tfc,
                                                   after_a_intermediate):
        document = tfc.process(after_a_intermediate).document
        field = document.find_cer("A", 0, KIND_TFC).encrypted_field(
            "attachment")
        # The reviewers request 'attachment' → they can read it now.
        assert PARTICIPANTS["B1"] in field.recipients
        assert PARTICIPANTS["B2"] in field.recipients
        assert tfc.identity in field.recipients
        assert PARTICIPANTS["D"] not in field.recipients

    def test_records_kept(self, tfc, after_a_intermediate):
        tfc.process(after_a_intermediate)
        assert len(tfc.records) == 1
        record = tfc.records[0]
        assert record.activity_id == "A"
        assert record.participant == PARTICIPANTS["A"]
        assert record.timestamp == 1.0

    def test_document_log_kept(self, tfc, after_a_intermediate):
        outcome = tfc.process(after_a_intermediate)
        logged = tfc.latest_document(outcome.document.process_id)
        assert logged is not None
        assert logged.to_bytes() == outcome.document.to_bytes()

    def test_no_pending_intermediate_rejected(self, tfc, world, fig9b,
                                              backend):
        initial = build_initial_document(fig9b, world.keypair(DESIGNER),
                                         backend=backend)
        with pytest.raises(RuntimeFault, match="no pending"):
            tfc.process(initial)

    def test_double_processing_rejected(self, tfc, after_a_intermediate):
        once = tfc.process(after_a_intermediate)
        with pytest.raises(RuntimeFault, match="no pending"):
            tfc.process(once.document)

    def test_timings_measured(self, tfc, after_a_intermediate):
        outcome = tfc.process(after_a_intermediate)
        assert outcome.verify_seconds > 0
        assert outcome.sign_seconds > 0

    def test_keep_copies_disabled(self, world, backend,
                                  after_a_intermediate):
        quiet = TfcServer(world.keypair("tfc@cloud.example"),
                          world.directory, backend=backend,
                          keep_copies=False)
        outcome = quiet.process(after_a_intermediate)
        assert quiet.document_log == {}
        assert quiet.latest_document(outcome.document.process_id) is None
        assert len(quiet.records) == 1


class TestMonotoneTimestamps:
    def test_timestamps_increase_along_process(self, fig9b_run):
        trace, tfc = fig9b_run
        times = [record.timestamp for record in tfc.records]
        assert times == sorted(times)
        assert len(times) == 10
