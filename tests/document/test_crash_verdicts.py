"""A crash is not a verdict: portal login, certificates and step 5.

Three handlers turn a failed check into a verdict: a portal login
("authentication failed"), a CA's certificate check ("CA signature
invalid") and the verifier's step 5 (a CER for an activity "not in the
definition").  Each catches only the library's own errors
(:class:`~repro.errors.ReproError`): both backends raise
:class:`~repro.errors.SignatureError` for a signature that does not
verify, and :meth:`WorkflowDefinition.activity
<repro.model.definition.WorkflowDefinition.activity>` raises
:class:`~repro.errors.DefinitionError` for an unknown id.  Anything else
is a crash and propagates as itself, and each test shows the verdict
still given beside it.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cloud import CloudSystem
from repro.core.aea import ActivityExecutionAgent
from repro.crypto.backend import PureBackend
from repro.crypto.fast import FastBackend
from repro.crypto.pki import CertificateAuthority, KeyDirectory
from repro.document import build_initial_document
from repro.document.builder import make_standard_cer
from repro.document.nonrepudiation import frontier_cers
from repro.document.verify import verify_document
from repro.errors import CertificateError, PortalError, VerificationError
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
def stray_cer(world, fig9a, backend) -> bytes:
    """Fig. 9A after A, plus a CER that A's participant signed for an
    activity ``Z`` the definition does not have."""
    keypair = world.keypair(PARTICIPANTS["A"])
    initial = build_initial_document(fig9a, world.keypair(DESIGNER),
                                     backend=backend, created_at=0.0)
    agent = ActivityExecutionAgent(keypair, world.directory, backend)
    document = agent.execute_activity(
        initial, "A", figure9_responders(0)["A"]).document
    cer = make_standard_cer(
        "Z", 0, keypair, {"note": "stray"},
        lambda name: {keypair.identity: keypair.public_key},
        [cer.signature.element for cer in frontier_cers(document)],
        backend,
    )
    forged = document.clone_for_append()
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
