"""TFC server: finalisation, timestamps, policy re-encryption, records."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core.aea import ActivityExecutionAgent
from repro.core.state import VariableView
from repro.core.tfc import TfcServer
from repro.document import build_initial_document
from repro.document.document import Dra4wfmsDocument
from repro.document.resume import KeptPasses
from repro.document.sections import KIND_TFC
from repro.document.verify import verify_document
from repro.errors import RuntimeFault
from repro.workloads.figure9 import DESIGNER, PARTICIPANTS

from ..workload_documents import TFC_IDENTITY, final_document


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


class TestMonotoneTimestamps:
    def test_timestamps_increase_along_process(self, fig9b_run):
        trace, tfc = fig9b_run
        times = [record.timestamp for record in tfc.records]
        assert times == sorted(times)
        assert len(times) == 10


def test_kept_views_under_threads():
    """Receipts of several instances on several threads share one TFC:
    every view equals the cold one, and at most ``KeptPasses.LIMIT``
    views stay kept."""
    world, data = final_document("chain:16:4")
    document = Dra4wfmsDocument.from_bytes(data)
    store = KeptPasses()
    documents = []
    for count in range(2, 33, 2):
        version = document.clone()
        for cer in list(version.results_section)[count:]:
            version.results_section.remove(cer)
        # Each pass resumes the last: the histories share CER objects.
        documents.append(verify_document(version.to_bytes(),
                                         world.directory, kept=store,
                                         ).document)
    documents += [Dra4wfmsDocument.from_bytes(data.replace(
        document.process_id.encode(), f"{n:032x}".encode()))
        for n in range(KeptPasses.LIMIT + 1)]
    private_key = world.keypair(TFC_IDENTITY).private_key
    colds = [VariableView.for_reader(Dra4wfmsDocument.from_bytes(
        d.to_bytes()), TFC_IDENTITY, private_key, world.backend).raw
        for d in documents]
    tfc = TfcServer(world.keypair(TFC_IDENTITY), world.directory,
                    backend=world.backend)
    errors: list[Exception] = []

    def receiver(offset):
        try:
            for index in range(len(documents)):
                index = (index + offset) % len(documents)
                assert tfc._view(documents[index]).raw == colds[index]
        except Exception as exc:  # reported below, with the thread's work
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=receiver, args=(offset,))
                   for offset in range(0, 8, 2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(tfc._views) <= KeptPasses.LIMIT
