"""The portal's two ways of storing a finalized submission.

A hop that extends the stored version needs no merge: its canonical
bytes start with the stored bytes minus their closing tags, so the
portal stores it as is.  Concurrent AND-split branches are different:
both were executed on the same older version, so the second to arrive
must be merged with the stored copy that already holds the first.
``drive_instance`` and the fleet submit branches one after the other,
each built on the other's stored version, so only these tests reach
the merge.
"""

from __future__ import annotations

import pytest

from repro.cloud import CloudSystem
from repro.document import build_initial_document, verify_document
from repro.document.document import Dra4wfmsDocument
from repro.document.sections import KIND_TFC
from repro.errors import TamperDetected
from repro.workloads.figure9 import DESIGNER, PARTICIPANTS, figure9_responders
from repro.xmlsec.canonical import canonicalize, parse_xml

TFC = "tfc@cloud.example"

#: (routing, first branch) → (HBase gets, sim-clock seconds) once both
#: branches are stored.  The merge path reads the stored version exactly
#: once, so these equal the values of a portal that parses and merges
#: the stored version on every submission.
AFTER_BOTH = {
    ("full", "B1"): (18, 0.48604679760000014),
    ("full", "B2"): (18, 0.4860461608000002),
    ("delta", "B1"): (27, 0.49699516479999994),
    ("delta", "B2"): (27, 0.49699518239999985),
}


@pytest.fixture()
def merges(monkeypatch):
    """Count calls of :meth:`Dra4wfmsDocument.merge`."""
    calls = []
    merge = Dra4wfmsDocument.merge

    def counted(self, other):
        calls.append(other.process_id)
        return merge(self, other)

    monkeypatch.setattr(Dra4wfmsDocument, "merge", counted)
    return calls


def after_a(world, backend, fig9b, routing):
    """A cloud whose stored Fig. 9B instance has just finished A."""
    system = CloudSystem(world.directory, world.keypair(TFC), portals=2,
                         backend=backend, delta_routing=routing == "delta")
    initial = build_initial_document(fig9b, world.keypair(DESIGNER),
                                     backend=backend, created_at=0.0)
    pid = system.client(world.keypair(DESIGNER)).upload_initial(initial)
    system.client(world.keypair(PARTICIPANTS["A"])).execute(
        pid, "A", figure9_responders(1)["A"])
    return system, pid


def execute_branches(system, world, pid):
    """B1 and B2 executed on one stored version: (clients, documents)."""
    responders = figure9_responders(1)
    clients, documents = {}, {}
    for activity in ("B1", "B2"):
        client = system.client(world.keypair(PARTICIPANTS[activity]))
        result = client.checkout(pid, activity, responders[activity])
        clients[activity], documents[activity] = client, result.document
    return clients, documents


def pending_work(system, pid):
    return sorted(
        (identity, entry.activity_id)
        for identity in PARTICIPANTS.values()
        for entry in system.pool.todo_for(identity)
        if entry.process_id == pid
    )


@pytest.mark.parametrize("routing", ["full", "delta"])
def test_linear_hop_makes_no_merge(world, backend, fig9b, routing, merges):
    system, pid = after_a(world, backend, fig9b, routing)
    assert merges == []
    stored = Dra4wfmsDocument.from_bytes(system.pool.latest_bytes(pid))
    assert stored.find_cer("A", 0, KIND_TFC) is not None


@pytest.mark.parametrize("routing", ["full", "delta"])
@pytest.mark.parametrize("first", ["B1", "B2"])
def test_second_branch_is_merged(world, backend, fig9b, routing, first,
                                 merges):
    system, pid = after_a(world, backend, fig9b, routing)
    clients, documents = execute_branches(system, world, pid)
    second = "B2" if first == "B1" else "B1"

    clients[first].submit_document(documents[first])
    assert merges == []
    clients[second].submit_document(documents[second])
    assert merges == [pid]
    assert (system.hbase.stats["gets"], system.clock.now()) \
        == AFTER_BOTH[routing, first]

    data = system.pool.latest_bytes(pid)
    assert data == canonicalize(parse_xml(data))
    stored = Dra4wfmsDocument.from_bytes(data)
    verify_document(stored, world.directory, backend,
                    definition_reader=(TFC, world.keypair(TFC).private_key),
                    tfc_identities={TFC})
    for activity in ("B1", "B2"):
        assert stored.find_cer(activity, 0, KIND_TFC) is not None
    assert pending_work(system, pid) == [(PARTICIPANTS["C"], "C")]


@pytest.mark.parametrize("routing", ["full", "delta"])
def test_branch_with_altered_shared_cer_rejected(world, backend, fig9b,
                                                 routing, merges):
    system, pid = after_a(world, backend, fig9b, routing)
    clients, documents = execute_branches(system, world, pid)

    # A's submission finalized a second time gives a second, validly
    # signed TFC CER for A, so B2 executed on that copy still verifies;
    # only the merge sees that its copy of A's TFC CER differs from the
    # stored one.  (Verification rejects unsigned content, such as text
    # inside a CER, before any merge.)
    resubmitted = Dra4wfmsDocument.from_bytes(system.pool.latest_bytes(pid))
    resubmitted.results_section.remove(
        resubmitted.find_cer("A", 0, KIND_TFC).element)
    resubmitted.drop_canonical_cache()
    refinalized = system.tfc.process(resubmitted).document
    altered = clients["B2"].agent.execute_activity(
        refinalized, "B2", figure9_responders(1)["B2"], mode="advanced",
        tfc_identity=system.tfc.identity,
        tfc_public_key=system.tfc.public_key,
    ).document
    assert (altered.find_cer("A", 0, KIND_TFC).timestamp
            != documents["B2"].find_cer("A", 0, KIND_TFC).timestamp)

    clients["B1"].submit_document(documents["B1"])
    stored = system.pool.latest_bytes(pid)
    with pytest.raises(TamperDetected, match="differs between branch"):
        clients["B2"].submit_document(altered)
    assert merges == [pid]
    assert system.pool.latest_bytes(pid) == stored
