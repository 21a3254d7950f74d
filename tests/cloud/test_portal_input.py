"""What a portal makes of a submission it did not produce.

Two promises: whatever bytes a client ships, the pool and the TFC's log
keep the canonical serialization; and only a library error — a verdict
on the input — becomes "submission rejected", while a crash anywhere
behind the portal propagates as itself.
"""

from __future__ import annotations

import hashlib
from xml.etree import ElementTree as ET

import pytest

from repro.cloud import CloudSystem
from repro.cloud import portal as portal_module
from repro.core import TfcServer
from repro.document import build_initial_document
from repro.document.delta import (
    Chunk,
    DeltaDocument,
    Manifest,
    chunk_bytes,
    chunk_digest,
)
from repro.document.sections import KIND_INTERMEDIATE
from repro.errors import PortalError
from repro.model.activity import FieldSpec
from repro.model.builder import WorkflowBuilder
from repro.model.controlflow import END
from repro.workloads.figure9 import DESIGNER, PARTICIPANTS, figure9_responders
from repro.xmlsec.canonical import canonicalize, parse_xml

from ..document.tamper_cases import flip_base64

TFC = "tfc@cloud.example"


def cloud(world, backend, routing="full"):
    return CloudSystem(world.directory, world.keypair(TFC), portals=2,
                       backend=backend, delta_routing=routing == "delta")


def executed_a(system, world, backend, definition, response):
    """Upload *definition* and execute A: (client, pid, executed doc)."""
    initial = build_initial_document(definition, world.keypair(DESIGNER),
                                     backend=backend, created_at=0.0)
    pid = system.client(world.keypair(DESIGNER)).upload_initial(initial)
    client = system.client(world.keypair(PARTICIPANTS["A"]))
    return client, pid, client.checkout(pid, "A", response).document


def reorder_start_tag(cer: bytes) -> bytes:
    """The same CER with its attributes in reverse (non-canonical) order."""
    head, rest = cer.split(b">", 1)
    name, *attributes = head.split(b" ")
    return b" ".join([name, *reversed(attributes)]) + b">" + rest


def noncanonical(document, known):
    """*document* with its last CER non-canonical: (bytes, delta).

    The delta ships every chunk not in *known*, with digests computed
    over the shipped bytes, so it passes every digest check.
    """
    pairs = chunk_bytes(document)
    last = max(i for i, (chunk, _) in enumerate(pairs) if chunk.is_cer)
    parts = [reorder_start_tag(data) if i == last else data
             for i, (_, data) in enumerate(pairs)]
    chunks = tuple(Chunk(digest=chunk_digest(data), length=len(data),
                         is_cer=chunk.is_cer)
                   for (chunk, _), data in zip(pairs, parts))
    blob = b"".join(parts)
    manifest = Manifest(process_id=document.process_id,
                        doc_digest=hashlib.sha256(blob).hexdigest(),
                        doc_bytes=len(blob), chunks=chunks)
    shipped = {chunk.digest: data for chunk, data in zip(chunks, parts)
               if chunk.digest not in known}
    return blob, DeltaDocument(manifest=manifest, chunks=shipped)


def is_canonical(data: bytes) -> bool:
    return data == canonicalize(parse_xml(data))


@pytest.mark.parametrize("routing", ["full", "delta"])
def test_noncanonical_submission_stored_canonical(world, backend, fig9b,
                                                  routing):
    system = cloud(world, backend, routing)
    client, pid, document = executed_a(system, world, backend, fig9b,
                                       figure9_responders(1)["A"])
    blob, delta = noncanonical(document,
                               client._cloud_known.get(pid, set()))
    assert not is_canonical(blob)

    if routing == "delta":
        # The stored history comes from the chunk store.
        assert len(delta.chunks) < len(delta.manifest.chunks)
        entries = client.portal.submit_delta(client.session, delta)
    else:
        entries = client.portal.submit(client.session, blob)
    assert {entry.activity_id for entry in entries} == {"B1", "B2"}
    # The pool stores exactly what the TFC forwarded.
    assert is_canonical(system.pool.latest_bytes(pid))


@pytest.mark.parametrize("place", ["root", "new-signature"])
def test_unsigned_content_not_stored(world, backend, fig9b, place):
    system = cloud(world, backend)
    client, pid, document = executed_a(system, world, backend, fig9b,
                                       figure9_responders(1)["A"])
    stored = system.pool.latest_bytes(pid)
    # Every signature still verifies around a note after the results,
    # or inside the signature of the CER the submission adds (which the
    # TFC's CER would countersign).
    parent = (document.root if place == "root" else
              document.results_section.findall("CER")[-1].find("Signature"))
    ET.SubElement(parent, "Note").text = "pay mallory"
    document.drop_canonical_cache()
    with pytest.raises(PortalError, match="no signature covers: <Note>"):
        client.portal.submit(client.session, document.to_bytes())
    assert client.portal.stats["rejected"] == 1
    assert system.pool.latest_bytes(pid) == stored


@pytest.mark.parametrize("cut", [40, -40], ids=["in-header", "after-header"])
def test_malformed_submission_rejected(world, backend, fig9b, cut):
    system = cloud(world, backend)
    client, pid, document = executed_a(system, world, backend, fig9b,
                                       figure9_responders(1)["A"])
    stored = system.pool.latest_bytes(pid)
    with pytest.raises(PortalError, match="submission rejected: malformed"):
        client.portal.submit(client.session, document.to_bytes()[:cut])
    assert client.portal.stats["rejected"] == 1
    assert system.pool.latest_bytes(pid) == stored


class TestOnlyLibraryErrorsReject:
    def test_tfc_crash_propagates_from_submit(self, world, backend, fig9b,
                                              monkeypatch):
        system = cloud(world, backend)
        client, _, document = executed_a(system, world, backend, fig9b,
                                         figure9_responders(1)["A"])

        def crash(self, data):
            raise RuntimeError("TFC crashed")

        monkeypatch.setattr(TfcServer, "process", crash)
        with pytest.raises(RuntimeError, match="TFC crashed"):
            client.portal.submit(client.session, document.to_bytes())
        assert client.portal.stats["rejected"] == 0

    def test_verifier_crash_propagates_from_upload(self, world, backend,
                                                   fig9b, monkeypatch):
        system = cloud(world, backend)
        designer = system.client(world.keypair(DESIGNER))
        initial = build_initial_document(fig9b, world.keypair(DESIGNER),
                                         backend=backend)

        def crash(*args, **kwargs):
            raise RuntimeError("verifier crashed")

        monkeypatch.setattr(portal_module, "verify_document", crash)
        with pytest.raises(RuntimeError, match="verifier crashed"):
            designer.portal.upload_initial(designer.session,
                                           initial.to_bytes())
        assert designer.portal.stats["rejected"] == 0

    def test_tampered_submission_rejected(self, world, backend, fig9b):
        system = cloud(world, backend)
        client, _, document = executed_a(system, world, backend, fig9b,
                                         figure9_responders(1)["A"])
        tampered = document.clone()
        cer = tampered.find_cer("A", 0, KIND_INTERMEDIATE)
        flip_base64(cer.element.find("Signature/SignatureValue"))
        with pytest.raises(PortalError, match="submission rejected"):
            client.portal.submit(client.session, tampered.to_bytes())
        assert client.portal.stats["rejected"] == 1

    def test_non_integer_int_value_rejected(self, world, backend):
        definition = (
            WorkflowBuilder("typed-input", designer=DESIGNER)
            .activity("A", PARTICIPANTS["A"],
                      responses=[FieldSpec("amount", "int")])
            .transition("A", END)
            .build()
        )
        system = cloud(world, backend)
        client, _, document = executed_a(system, world, backend, definition,
                                         {"amount": "abc"})
        with pytest.raises(PortalError, match="'amount' holds 'abc'"):
            client.portal.submit(client.session, document.to_bytes())
        assert client.portal.stats["rejected"] == 1
