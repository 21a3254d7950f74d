"""A verification pass hands its history on, and appending never changes it.

The AEA and the TFC read the :class:`~repro.document.history.CerHistory`
their verification pass built, and ``append_cer`` checks a new CER's ids
against its index.  A receiver's kept pass holds that same history, so
appending must only read it: an index that took the appended ids would
make the next receipt reuse them, and that pass would quietly fall back
to a cold one (which costs time and changes no verdict).
"""

from __future__ import annotations

import itertools

import pytest

from repro.core import TfcServer
from repro.core.aea import ActivityExecutionAgent
from repro.crypto.fast import FastBackend
from repro.document import build_initial_document
from repro.document import verify as verify_module
from repro.document.cer import CER
from repro.document.document import Dra4wfmsDocument
from repro.document.history import CerHistory
from repro.document.vcache import VerificationCache
from repro.document.verify import verify_document
from repro.errors import VerificationError
from repro.fleet.workload import workload_from_spec
from repro.workloads import build_world

from ..workload_documents import final_document
from .tamper_cases import flip_base64

TFC = "tfc@cloud.example"


@pytest.fixture()
def resumptions(monkeypatch):
    """Whether each pass given a store resumed its kept state."""
    seen: list[bool] = []
    resumed = verify_module._resumed

    def spy(*args):
        state = resumed(*args)
        seen.append(state is not None)
        return state

    monkeypatch.setattr(verify_module, "_resumed", spy)
    return seen


def facts(history: CerHistory) -> tuple:
    """What a history says, independent of which parse it indexes."""
    return (sorted(history.ids), [cer.cer_id for cer in history.cers],
            sorted(history.by_key), history.counts, sorted(history.pending),
            sorted(history.countersigned))


def assert_describes_kept_bytes(kept) -> None:
    """*kept*'s history is still what a cold pass over its bytes builds."""
    cold = CerHistory.of(Dra4wfmsDocument.from_bytes(kept.data))
    assert facts(kept.state.history) == facts(cold)


def test_appending_leaves_the_kept_pass_unchanged(resumptions):
    """``chain:6:2`` in the advanced model, driven by bytes: after the AEA
    and the TFC append to the path copy of each receipt, every kept pass
    still describes its bytes, and the next receipt resumes."""
    backend = FastBackend()
    workload = workload_from_spec("chain:6:2")
    definition = workload.definition
    world = build_world([*workload.identities, TFC], bits=1024,
                        backend=backend)
    clock = itertools.count(1)
    tfc = TfcServer(world.keypair(TFC), world.directory, backend=backend,
                    clock=lambda: float(next(clock)),
                    verify_cache=VerificationCache())
    agents = {identity: ActivityExecutionAgent(
        world.keypair(identity), world.directory, backend)
        for identity in workload.identities}
    initial = build_initial_document(
        definition, world.keypair(workload.designer), backend=backend)
    pid, data = initial.process_id, initial.to_bytes()
    activities = [definition.start_activity]
    per_hop = []
    while activities:
        (activity,) = activities
        agent = agents[definition.activity(activity).participant]
        del resumptions[:]
        result = agent.execute_activity(
            data, activity, workload.responders[activity], mode="advanced",
            tfc_identity=TFC, tfc_public_key=tfc.public_key)
        aea_kept = agent.kept_passes.get(pid)
        # The agent read, and appended next to, the kept history itself.
        assert aea_kept.state.history is result.report.history
        assert_describes_kept_bytes(aea_kept)
        finalized = tfc.process(result.document.to_bytes())
        assert_describes_kept_bytes(aea_kept)
        if not finalized.routing.terminal:
            assert_describes_kept_bytes(tfc.kept_passes.get(pid))
        per_hop.append(list(resumptions))
        data = finalized.document.to_bytes()
        activities = list(finalized.routing.next_activities)
    # AEA, then TFC: the TFC resumes from its second receipt on, each of
    # the two participants from its second visit on.
    assert per_hop == [[], [True]] + [[True, True]] * 4


def test_the_pass_hands_its_history_on():
    world, document = _chain_document()
    report = verify_document(document.to_bytes(), world.directory)
    received = report.document
    assert received.history() is report.history
    copy = received.clone_for_append()
    assert copy.history() is report.history
    # Appending to the copy detaches the copy only.
    copy.append_cer(_new_cer(received))
    assert copy.history() is not report.history
    assert received.history() is report.history
    assert facts(copy.history()) == facts(CerHistory.of(copy.clone()))
    # A direct edit is announced with drop_canonical_cache().
    received.drop_canonical_cache()
    assert received.history() is not report.history


def test_a_failed_pass_hands_no_history_on():
    world, document = _chain_document()
    report = verify_document(document, world.directory)
    assert document.history() is report.history
    flip_base64(document.results_section[-1].find("Signature/SignatureValue"))
    with pytest.raises(VerificationError):
        verify_document(document, world.directory)
    assert document.history() is not report.history


def _chain_document():
    world, data = final_document("chain:16:4")
    return world, Dra4wfmsDocument.from_bytes(data)


def _new_cer(document: Dra4wfmsDocument) -> CER:
    """A copy of *document*'s last CER under a new iteration and new ids
    (its signature no longer verifies; nothing here checks it)."""
    copy = Dra4wfmsDocument.from_bytes(document.to_bytes())
    element = copy.results_section[-1]
    element.set("Iteration", "99")
    for node in element.iter():
        if node.get("Id") is not None:
            node.set("Id", node.get("Id") + "-99")
    return CER(element)
