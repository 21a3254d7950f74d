"""What verification leaves behind for the rest of the hop.

``verify_document`` canonicalizes every element it digests; it records
that text on the document's canonical memo, so the receiver's next
serialization splices it, and it hands back the effective definition it
checked the document against.  The memo stays write-only for the
verifier: whatever it holds, no verdict changes.
"""

from __future__ import annotations

import pytest

from repro.core import ActivityExecutionAgent, InMemoryRuntime
from repro.document import build_initial_document
from repro.document.amendments import (
    AddActivity,
    DelegateActivity,
    GrantReader,
    effective_definition,
    make_amendment_cer,
)
from repro.document.document import Dra4wfmsDocument
from repro.document.nonrepudiation import frontier_cers
from repro.document.vcache import VerificationCache
from repro.document.verify import verify_document
from repro.errors import TamperDetected, VerificationError
from repro.model.activity import Activity, FieldSpec
from repro.workloads.figure9 import DESIGNER, PARTICIPANTS
from repro.workloads.generator import auto_responders, diamond_definition
from repro.xmlsec.canonical import canonicalize
from repro.xmlsec.xmldsig import index_by_id

from .tamper_cases import TAMPER_CASES

TFC = "tfc@cloud.example"
DEPUTY = "deputy@megacorp.example"
AUDITOR = "auditor@regulator.example"


@pytest.fixture(scope="module", autouse=True)
def extra_identities(world):
    for identity in (DEPUTY, AUDITOR):
        if identity not in world.directory:
            world.add_participant(identity)


@pytest.fixture(scope="module")
def diamond_doc(world, backend):
    definition = diamond_definition(4, list(PARTICIPANTS.values()),
                                    designer=DESIGNER)
    initial = build_initial_document(definition, world.keypair(DESIGNER),
                                     backend=backend)
    runtime = InMemoryRuntime(world.directory, world.keypairs,
                              backend=backend)
    return runtime.run(initial, definition, auto_responders(definition),
                       mode="basic").final_document


@pytest.fixture(params=["fig9a", "fig9b", "diamond4"])
def received(request, fig9a_trace, fig9b_run, diamond_doc):
    """A freshly parsed executed document, as a receiver holds it."""
    source = {
        "fig9a": lambda: fig9a_trace.final_document,
        "fig9b": lambda: fig9b_run[0].final_document,
        "diamond4": lambda: diamond_doc,
    }[request.param]()
    return Dra4wfmsDocument.from_bytes(source.to_bytes())


def memo_entries(document):
    """(element, text) of every memo entry, in document order."""
    entries = []
    for element in document.root.iter():
        text = document._memo.lookup(element)
        if text is not None:
            entries.append((element, text))
    return entries


def agent(world, backend, identity):
    return ActivityExecutionAgent(world.keypair(identity), world.directory,
                                  backend)


# -- exactness ---------------------------------------------------------------


class TestRecordedText:
    @pytest.mark.parametrize("cache", [False, True], ids=["cold", "cached"])
    def test_every_entry_is_the_cold_serialization(self, received, world,
                                                   backend, cache):
        assert memo_entries(received) == []
        verify_document(received, world.directory, backend,
                        cache=VerificationCache() if cache else None)
        entries = memo_entries(received)
        for element, text in entries:
            assert text.encode("utf-8") == canonicalize(element)
        # Everything a signature references was recorded.
        index = index_by_id(received.root)
        recorded = {id(element) for element, _ in entries}
        for cer in received.cers():
            for ref_id in cer.signature.referenced_ids:
                assert id(index[ref_id]) in recorded

    def test_append_after_verify_serializes_exactly(self, received, world,
                                                    backend):
        verify_document(received, world.directory, backend,
                        cache=VerificationCache())
        appended = received.clone_for_append()
        frontier = [cer.signature.element
                    for cer in frontier_cers(appended)]
        # Any new CER serves; this one need not be authorised.
        appended.append_cer(make_amendment_cer(
            GrantReader(received.cers()[-1].activity_id, "note", AUDITOR),
            0, world.keypair(DESIGNER), frontier, backend))
        assert appended.to_bytes() == appended.clone().to_bytes()


# -- write-only --------------------------------------------------------------


@pytest.fixture(scope="module")
def warm_cache(fig9a_trace, fig9b_run, world, backend):
    """A cache pre-warmed on the pristine documents under attack."""
    cache = VerificationCache()
    for document in (fig9a_trace.final_document,
                     fig9b_run[0].final_document):
        verify_document(document, world.directory, backend, cache=cache)
    return cache


@pytest.fixture(scope="module")
def pristine_text(fig9a_trace, fig9b_run):
    """model → Id → canonical text of that element, untampered."""
    return {
        model: {element.get("Id"): canonicalize(element).decode("utf-8")
                for element in document.root.iter()
                if element.get("Id") is not None}
        for model, document in (("basic", fig9a_trace.final_document),
                                ("advanced", fig9b_run[0].final_document))
    }


def outcome(document, world, backend, cache):
    try:
        report = verify_document(document, world.directory, backend,
                                 cache=cache)
    except (TamperDetected, VerificationError) as exc:
        return ("rejected", type(exc).__name__, str(exc))
    return ("accepted", report)


def fill_memo(document, text_of):
    """Replace the memo with ``text_of(element)`` for every Id element."""
    document.drop_canonical_cache()
    for element in document.root.iter():
        if element.get("Id") is not None:
            document._memo.store(element, text_of(element))


def empty_element(element):
    return f"<{element.tag}></{element.tag}>"


class TestMemoNeverRead:
    @pytest.mark.parametrize("case", TAMPER_CASES, ids=lambda c: c.name)
    def test_same_verdict_whatever_the_memo_holds(
            self, case, basic_doc, advanced_doc, tamper_donors, world,
            backend, warm_cache, pristine_text):
        document = basic_doc if case.model == "basic" else advanced_doc
        case.apply(document, tamper_donors[case.donor]
                   if case.donor else None)
        texts = pristine_text[case.model]
        fillings = {
            # Wrong text for every element.
            "empty": empty_element,
            # The untampered text: wrong exactly where the case struck.
            "stale": lambda e: texts.get(e.get("Id"), empty_element(e)),
        }
        for cache in (None, warm_cache):
            document.drop_canonical_cache()
            clean = outcome(document, world, backend, cache)
            assert clean[0] == "rejected"
            for name, text_of in fillings.items():
                fill_memo(document, text_of)
                assert outcome(document, world, backend, cache) == clean, \
                    f"{case.name}: a {name} memo changed the verdict"

    def test_pristine_documents_accepted_with_a_wrong_memo(
            self, fig9a_trace, fig9b_run, world, backend, warm_cache):
        for source in (fig9a_trace.final_document,
                       fig9b_run[0].final_document):
            document = source.clone()
            for cache in (None, warm_cache):
                clean = outcome(document, world, backend, cache)
                fill_memo(document, empty_element)
                assert outcome(document, world, backend, cache) == clean
                assert clean[0] == "accepted"


# -- the definition hand-off -------------------------------------------------


class TestReportDefinition:
    def test_unamended(self, fig9a_trace, world, backend):
        document = fig9a_trace.final_document
        report = verify_document(document, world.directory, backend)
        assert report.definition == effective_definition(document)

    @pytest.mark.parametrize("amender,amendment,check", [
        (PARTICIPANTS["D"], DelegateActivity("D", DEPUTY),
         lambda d: d.activity("D").participant == DEPUTY),
        (DESIGNER,
         AddActivity(Activity("X1", AUDITOR,
                              responses=(FieldSpec("audit_note"),)),
                     after="C", before="D"),
         lambda d: d.activity("X1").participant == AUDITOR),
        (PARTICIPANTS["A"], GrantReader("A", "attachment", AUDITOR),
         lambda d: AUDITOR in d.policy.readers_for(d, "A", "attachment",
                                                   {})),
    ], ids=["delegate", "ad-hoc-activity", "grant-reader"])
    def test_amended(self, world, backend, fig9a, amender, amendment,
                     check):
        initial = build_initial_document(fig9a, world.keypair(DESIGNER),
                                         backend=backend)
        after_a = agent(world, backend, PARTICIPANTS["A"]).execute_activity(
            initial, "A", {"attachment": "form"}).document
        amended = agent(world, backend, amender).amend(after_a, amendment)
        report = verify_document(amended, world.directory, backend)
        expected = effective_definition(amended, backend=backend)
        assert report.definition == expected
        assert check(report.definition)
        assert report.definition != effective_definition(after_a)

    def test_encrypted_definition(self, world, backend, fig9b):
        tfc = world.keypair(TFC)
        initial = build_initial_document(
            fig9b, world.keypair(DESIGNER), backend=backend,
            encrypt_definition_for={TFC: tfc.public_key})
        assert initial.definition_is_encrypted
        unread = verify_document(initial, world.directory, backend)
        assert unread.definition is None
        assert unread.warnings
        read = verify_document(initial, world.directory, backend,
                               definition_reader=(TFC, tfc.private_key))
        assert read.definition == effective_definition(
            initial, TFC, tfc.private_key, backend)
