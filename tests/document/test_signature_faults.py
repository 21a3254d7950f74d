"""A crash inside an RSA check is not tampering.

Both backends raise :class:`~repro.errors.SignatureError` for a
signature value that does not verify.  :meth:`XmlSignature.verify
<repro.xmlsec.xmldsig.XmlSignature.verify>` reports it as an
:class:`~repro.errors.XmlSignatureError`, and the verifier as
:class:`~repro.errors.TamperDetected`.  Any other exception from
``backend.verify`` or ``backend.verify_pss`` is a crash: it must
propagate out of every verifier, so that an audit cannot count it as
detected tampering and a portal cannot count it as a rejected
submission.  Each test also raises ``SignatureError`` at the same check,
to show that the check is reached and still gives a verdict.  The same
holds for a job of ``CryptoBackend.verify_batch``, whose outcome is a
verdict only.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import pytest

from repro.cloud import CloudSystem
from repro.core.aea import ActivityExecutionAgent
from repro.core.tfc import TfcServer
from repro.crypto.backend import PureBackend
from repro.crypto.fast import FastBackend
from repro.document import build_initial_document, builder
from repro.document.document import Dra4wfmsDocument
from repro.document.resume import KeptPasses
from repro.document.verify import verify_document
from repro.errors import PortalError, SignatureError, TamperDetected
from repro.fleet.fleet import audit_failed
from repro.workloads import figure9_responders
from repro.workloads.figure9 import DESIGNER, PARTICIPANTS
from repro.xmlsec.digest import unb64
from repro.xmlsec.xmldsig import ALG_PKCS1V15, ALG_PSS, sign_references

TFC = "tfc@cloud.example"

#: SignatureMethod → the backend method that checks it.
METHODS = {ALG_PKCS1V15: "verify", ALG_PSS: "verify_pss"}

#: SignatureMethod → the job algorithm ``verify_batch`` takes.
BATCH_ALGORITHMS = {ALG_PKCS1V15: "pkcs1v15", ALG_PSS: "pss"}

#: Backends the faulty RSA check wraps.
BACKENDS = {"pure": PureBackend, "fast": FastBackend}


class FaultyBackend:
    """*inner*, except that *method* raises *fault* for a signature
    value in *victims*; counts the checks made through *method*."""

    def __init__(self, inner, method, fault, victims) -> None:
        self.inner = inner
        self.method = method
        self.fault = fault
        self.victims = victims
        self.checks = 0

    def _check(self, key, message, signature) -> None:
        self.checks += 1
        if signature in self.victims:
            raise self.fault
        getattr(self.inner, self.method)(key, message, signature)

    def __getattr__(self, name):
        if name == self.method:
            return self._check
        return getattr(self.inner, name)


def signature_values(element) -> set[bytes]:
    return {unb64(node.text) for node in element.iter("SignatureValue")}


@dataclass(frozen=True)
class Documents:
    """Fig. 9B up to B1, every signature made under one algorithm."""

    initial: Dra4wfmsDocument
    #: after A and its TFC step
    after_a: Dra4wfmsDocument
    #: *after_a* with B1's intermediate CER appended, pending at the TFC
    after_b1: Dra4wfmsDocument


@pytest.fixture(scope="module")
def documents(world, fig9b, backend) -> dict[str, Documents]:
    built = {}
    for algorithm in METHODS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(builder, "sign_references", functools.partial(
                sign_references, algorithm=algorithm))
            ticks = iter(range(1, 1000))
            tfc = TfcServer(world.keypair(TFC), world.directory,
                            backend=backend,
                            clock=lambda: float(next(ticks)))
            initial = build_initial_document(
                fig9b, world.keypair(DESIGNER), backend=backend,
                created_at=0.0)
            after_a = tfc.process(execute(world, backend, tfc, initial,
                                          "A", {"attachment": "form"}))
            after_b1 = execute(world, backend, tfc, after_a.document, "B1",
                               figure9_responders(1)["B1"])
        built[algorithm] = Documents(initial, after_a.document, after_b1)
    return built


def execute(world, backend, tfc, document, activity, response):
    agent = ActivityExecutionAgent(world.keypair(PARTICIPANTS[activity]),
                                   world.directory, backend)
    return agent.execute_activity(
        document, activity, response, mode="advanced",
        tfc_identity=tfc.identity, tfc_public_key=tfc.public_key).document


CRASH = RuntimeError("backend bug")
BAD_VALUE = SignatureError("signature does not verify")

pytestmark = [pytest.mark.parametrize("inner", sorted(BACKENDS)),
              pytest.mark.parametrize("algorithm", sorted(METHODS))]


def faulty(inner, algorithm, fault, victims) -> FaultyBackend:
    return FaultyBackend(BACKENDS[inner](), METHODS[algorithm], fault,
                         victims)


def test_cold_verify(world, documents, inner, algorithm):
    document = documents[algorithm].after_b1
    victims = signature_values(document.root)
    with pytest.raises(RuntimeError, match="backend bug"):
        verify_document(document.to_bytes(), world.directory,
                        faulty(inner, algorithm, CRASH, victims),
                        tfc_identities={TFC})
    with pytest.raises(TamperDetected, match="signature does not verify"):
        verify_document(document.to_bytes(), world.directory,
                        faulty(inner, algorithm, BAD_VALUE, victims),
                        tfc_identities={TFC})


def test_resumed_verify(world, backend, documents, inner, algorithm):
    docs = documents[algorithm]
    appended = docs.after_b1.results_section[-1]
    for fault, raised in ((CRASH, RuntimeError),
                          (BAD_VALUE, TamperDetected)):
        kept = KeptPasses()
        verify_document(docs.after_a.to_bytes(), world.directory, backend,
                        tfc_identities={TFC}, kept=kept)
        checker = faulty(inner, algorithm, fault, signature_values(appended))
        with pytest.raises(raised, match=str(fault)):
            verify_document(docs.after_b1.to_bytes(), world.directory,
                            checker, tfc_identities={TFC}, kept=kept)
        # The first RSA check was the appended CER's: the pass resumed.
        assert checker.checks == 1


def test_tfc_process(world, documents, inner, algorithm):
    document = documents[algorithm].after_b1
    victims = signature_values(document.root)
    tfc = TfcServer(world.keypair(TFC), world.directory,
                    backend=faulty(inner, algorithm, CRASH, victims))
    with pytest.raises(RuntimeError, match="backend bug"):
        tfc.process(document.to_bytes())
    tfc = TfcServer(world.keypair(TFC), world.directory,
                    backend=faulty(inner, algorithm, BAD_VALUE, victims))
    with pytest.raises(TamperDetected, match="signature does not verify"):
        tfc.process(document.to_bytes())


def test_portal_upload_initial(world, documents, inner, algorithm):
    initial = documents[algorithm].initial
    victims = signature_values(initial.root)
    for fault, raised, rejected in ((CRASH, RuntimeError, 0),
                                    (BAD_VALUE, PortalError, 1)):
        system = CloudSystem(world.directory, world.keypair(TFC),
                             backend=faulty(inner, algorithm, fault,
                                            victims))
        designer = system.client(world.keypair(DESIGNER))
        with pytest.raises(raised, match=str(fault)):
            designer.upload_initial(initial)
        assert designer.portal.stats["rejected"] == rejected


def test_audit_failed(world, backend, documents, inner, algorithm):
    initial = documents[algorithm].initial
    victims = signature_values(initial.root)
    system = CloudSystem(world.directory, world.keypair(TFC),
                         backend=backend)
    pid = system.client(world.keypair(DESIGNER)).upload_initial(initial)
    system.backend = faulty(inner, algorithm, CRASH, victims)
    with pytest.raises(RuntimeError, match="backend bug"):
        audit_failed(system, pid)
    system.backend = faulty(inner, algorithm, BAD_VALUE, victims)
    assert audit_failed(system, pid)


def test_verify_batch(world, inner, algorithm):
    """A wrong signature is the job's ``SignatureError``; a crash in the
    check propagates out of the batch instead of becoming an outcome."""
    keypair = world.keypair(DESIGNER)
    sign = "sign_pss" if algorithm == ALG_PSS else "sign"
    value = getattr(BACKENDS[inner](), sign)(keypair.private_key, b"message")
    jobs = [(keypair.public_key, message, value, BATCH_ALGORITHMS[algorithm])
            for message in (b"message", b"other message")]
    valid, wrong = BACKENDS[inner]().verify_batch(jobs)
    assert valid is None and isinstance(wrong, SignatureError)

    def crash(self, key, message, signature):
        raise CRASH

    crashing = type("Crashing", (BACKENDS[inner],),
                    {METHODS[algorithm]: crash})
    with pytest.raises(RuntimeError, match="backend bug"):
        crashing().verify_batch(jobs)
