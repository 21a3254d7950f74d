"""A crash is not a verdict: portal login, certificates and step 5.

Four handlers turn a failed check into a verdict: a portal login
("authentication failed"), a CA's certificate check ("CA signature
invalid") and the verifier's step 5, for a CER of an activity "not in
the definition" and for an amendment that "cannot be applied".  Each
catches only the library's own errors
(:class:`~repro.errors.ReproError`): both backends raise
:class:`~repro.errors.SignatureError` for a signature that does not
verify, :meth:`WorkflowDefinition.activity
<repro.model.definition.WorkflowDefinition.activity>` raises
:class:`~repro.errors.DefinitionError` for an unknown id, and
:func:`~repro.document.amendments.amendment_from_xml` raises
:class:`~repro.errors.DocumentFormatError` for a spec it cannot read.
Anything else is a crash and propagates as itself, and each test shows
the verdict still given beside it.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cloud import CloudSystem
from repro.core.aea import ActivityExecutionAgent
from repro.crypto.backend import PureBackend
from repro.crypto.fast import FastBackend
from repro.crypto.pki import CertificateAuthority, KeyDirectory
from repro.document import amendments, build_initial_document
from repro.document.amendments import (
    AddActivity,
    DelegateActivity,
    amendment_from_xml,
    make_amendment_cer,
)
from repro.document.builder import make_standard_cer
from repro.document.nonrepudiation import frontier_cers
from repro.document.verify import verify_document
from repro.errors import (
    CertificateError,
    DocumentFormatError,
    PortalError,
    VerificationError,
)
from repro.model.activity import Activity
from repro.model.definition import WorkflowDefinition
from repro.workloads import figure9_responders
from repro.workloads.figure9 import DESIGNER, PARTICIPANTS

TFC = "tfc@cloud.example"
LOGIN = b"dra4wfms-portal-login\x00"


def crashing(cls):
    """A *cls* backend whose RSA ``verify`` crashes."""

    class Crashing(cls):
        def verify(self, key, message, signature):
            raise RuntimeError("backend bug")

    return Crashing()


pytestmark = pytest.mark.parametrize("inner", [PureBackend, FastBackend],
                                     ids=["pure", "fast"])


def test_login(world, inner):
    identity = PARTICIPANTS["A"]
    key = world.keypair(identity).private_key
    for backend, raised, message in (
            (crashing(inner), RuntimeError, "backend bug"),
            (inner(), PortalError, "authentication failed")):
        portal = CloudSystem(world.directory, world.keypair(TFC),
                             backend=backend).portals[0]
        nonce = portal.challenge(identity)
        with pytest.raises(raised, match=message):
            # The nonce of another login: a signature that does not
            # verify, and so a verdict when the check is sound.
            portal.login(identity,
                         inner().sign(key, LOGIN + nonce[::-1]))


def test_register(world, inner):
    cert = world.directory.certificate_of(PARTICIPANTS["A"])
    anchor = next(ca.public_key for ca in world.authorities.values()
                  if ca.name == cert.issuer)

    def directory(backend):
        return KeyDirectory([CertificateAuthority(
            cert.issuer, public_key=anchor, backend=backend)])

    with pytest.raises(RuntimeError, match="backend bug"):
        directory(crashing(inner)).register(cert)
    tampered = dataclasses.replace(cert, subject="mallory@evil.example")
    with pytest.raises(CertificateError, match="CA signature invalid"):
        directory(inner()).register(tampered)
    directory(inner()).register(cert)


@pytest.fixture(scope="module")
def after_a(world, fig9a, backend):
    """Fig. 9A after its first activity, A."""
    initial = build_initial_document(fig9a, world.keypair(DESIGNER),
                                     backend=backend, created_at=0.0)
    agent = ActivityExecutionAgent(world.keypair(PARTICIPANTS["A"]),
                                   world.directory, backend)
    return agent.execute_activity(
        initial, "A", figure9_responders(0)["A"]).document


@pytest.fixture(scope="module")
def stray_cer(world, after_a, backend) -> bytes:
    """Fig. 9A after A, plus a CER that A's participant signed for an
    activity ``Z`` the definition does not have."""
    keypair = world.keypair(PARTICIPANTS["A"])
    cer = make_standard_cer(
        "Z", 0, keypair, {"note": "stray"},
        lambda name: {keypair.identity: keypair.public_key},
        [cer.signature.element for cer in frontier_cers(after_a)],
        backend,
    )
    forged = after_a.clone_for_append()
    forged.append_cer(cer)
    return forged.to_bytes()


def test_unknown_activity(world, stray_cer, monkeypatch, inner):
    with pytest.raises(VerificationError,
                       match="'Z' not in the definition"):
        verify_document(stray_cer, world.directory, inner())
    activity = WorkflowDefinition.activity

    def crashes_on_z(self, activity_id):
        if activity_id == "Z":
            raise RuntimeError("lookup bug")
        return activity(self, activity_id)

    monkeypatch.setattr(WorkflowDefinition, "activity", crashes_on_z)
    with pytest.raises(RuntimeError, match="lookup bug"):
        verify_document(stray_cer, world.directory, inner())


def amended(world, after_a, backend, amendment) -> bytes:
    """Fig. 9A after A, plus an amendment CER the designer signed."""
    document = after_a.clone_for_append()
    document.append_cer(make_amendment_cer(
        amendment, 0, world.keypair(DESIGNER),
        [cer.signature.element for cer in frontier_cers(after_a)],
        backend,
    ))
    return document.to_bytes()


def test_unknown_split_kind(world, after_a, backend, monkeypatch, inner):
    to_xml = amendments.amendment_to_xml

    def bogus_split(amendment, spec_id):
        spec = to_xml(amendment, spec_id)
        spec.find("Insert/Activity").set("Split", "bogus")
        return spec

    amendment = AddActivity(Activity("X1", PARTICIPANTS["C"]),
                            after="C", before="D")
    with pytest.raises(DocumentFormatError, match="'bogus'"):
        amendment_from_xml(bogus_split(amendment, "amdspec-0"))
    with monkeypatch.context() as patch:
        patch.setattr(amendments, "amendment_to_xml", bogus_split)
        document = amended(world, after_a, backend, amendment)
    with pytest.raises(VerificationError, match="cannot be applied"):
        verify_document(document, world.directory, inner())


def test_amendment_replay(world, after_a, backend, monkeypatch, inner):
    document = amended(world, after_a, backend,
                       DelegateActivity("D", PARTICIPANTS["C"]))
    verify_document(document, world.directory, inner())

    def crashes(definition, amendment):
        raise RuntimeError("replay bug")

    monkeypatch.setattr(amendments, "apply_amendment", crashes)
    with pytest.raises(RuntimeError, match="replay bug"):
        verify_document(document, world.directory, inner())
