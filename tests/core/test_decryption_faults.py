"""A crash inside decryption is not an unreadable field.

:meth:`EncryptedValue.decrypt` turns a :class:`DecryptionError` of the
backend into :class:`XmlEncryptionError`, which ``VariableView`` reads
as a field this reader cannot open.  Any other exception is a crash: it
must propagate out of the TFC and the AEA rather than let them act on
the remaining fields.
"""

from __future__ import annotations

import pytest

from repro.core.aea import ActivityExecutionAgent
from repro.core.state import VariableView
from repro.core.tfc import TfcServer
from repro.document import build_initial_document
from repro.document.sections import KIND_TFC
from repro.errors import AuthorizationError, DecryptionError
from repro.workloads import figure9_responders
from repro.workloads.figure9 import DESIGNER, PARTICIPANTS
from repro.xmlsec.digest import unb64

TFC = "tfc@cloud.example"
REVIEWER = PARTICIPANTS["B1"]


class FaultyBackend:
    """Raises *fault* from *method* on the victim field; else delegates."""

    def __init__(self, inner, method, fault, victims) -> None:
        self.inner = inner
        self.method = method
        self.fault = fault
        self.victims = victims

    def unwrap_key(self, key, wrapped):
        if self.method == "unwrap_key" and wrapped in self.victims:
            raise self.fault
        return self.inner.unwrap_key(key, wrapped)

    def open_sealed(self, data_key, sealed, aad=b""):
        if self.method == "open_sealed" and sealed in self.victims:
            raise self.fault
        return self.inner.open_sealed(data_key, sealed, aad)

    def __getattr__(self, name):
        return getattr(self.inner, name)


@pytest.fixture(scope="module")
def after_a(world, fig9b, backend):
    """Fig. 9B after A and its TFC step: the attachment is readable by
    the reviewers and the TFC."""
    ticks = iter(range(1, 1000))
    tfc = TfcServer(world.keypair(TFC), world.directory, backend=backend,
                    clock=lambda: float(next(ticks)))
    initial = build_initial_document(fig9b, world.keypair(DESIGNER),
                                     backend=backend)
    agent = ActivityExecutionAgent(world.keypair(PARTICIPANTS["A"]),
                                   world.directory, backend)
    intermediate = agent.execute_activity(
        initial, "A", {"attachment": "form"}, mode="advanced",
        tfc_identity=tfc.identity, tfc_public_key=tfc.public_key).document
    return tfc.process(intermediate).document


@pytest.fixture(scope="module")
def after_b1(world, backend, after_a):
    """The reviewer's intermediate CER, pending at the TFC."""
    tfc = world.keypair(TFC)
    agent = ActivityExecutionAgent(world.keypair(REVIEWER), world.directory,
                                   backend)
    return agent.execute_activity(
        after_a, "B1", figure9_responders(1)["B1"], mode="advanced",
        tfc_identity=TFC, tfc_public_key=tfc.public_key).document


def attachment(document):
    return document.find_cer("A", 0, KIND_TFC).encrypted_field("attachment")


def victims(document, method):
    """What *method* receives when it opens the attachment."""
    field = attachment(document)
    if method == "open_sealed":
        return {field.ciphertext}
    return {unb64(node.text) for node in
            field.element.findall("KeyInfo/EncryptedKey/CipherValue")}


def faulty(backend, document, method, fault):
    return FaultyBackend(backend, method, fault, victims(document, method))


METHODS = ["unwrap_key", "open_sealed"]


@pytest.mark.parametrize("method", METHODS)
class TestCrashPropagates:
    def test_tfc_process(self, world, backend, after_b1, method):
        tfc = TfcServer(world.keypair(TFC), world.directory,
                        backend=faulty(backend, after_b1, method,
                                       RuntimeError("backend crashed")))
        with pytest.raises(RuntimeError, match="backend crashed"):
            tfc.process(after_b1)

    def test_execute_activity(self, world, backend, after_a, method):
        agent = ActivityExecutionAgent(
            world.keypair(REVIEWER), world.directory,
            faulty(backend, after_a, method, RuntimeError("backend crashed")))
        with pytest.raises(RuntimeError, match="backend crashed"):
            agent.execute_activity(
                after_a, "B1", figure9_responders(1)["B1"], mode="advanced",
                tfc_identity=TFC, tfc_public_key=world.keypair(TFC).public_key)


@pytest.mark.parametrize("method", METHODS)
class TestDecryptionErrorIsUnreadable:
    def test_view_skips_the_field(self, world, backend, after_b1, method):
        broken = faulty(backend, after_b1, method,
                        DecryptionError("hostile input"))
        keypair = world.keypair(TFC)
        cold = VariableView.for_reader(after_b1, TFC, keypair.private_key,
                                       backend)
        view = VariableView.for_reader(after_b1, TFC, keypair.private_key,
                                       broken)
        assert "attachment" in cold
        assert view.raw == {name: value for name, value in cold.raw.items()
                            if name != "attachment"}

    def test_tfc_routes_on_the_rest(self, world, backend, after_b1, method):
        tfc = TfcServer(world.keypair(TFC), world.directory,
                        backend=faulty(backend, after_b1, method,
                                       DecryptionError("hostile input")))
        assert tfc.process(after_b1).activity_id == "B1"

    def test_aea_cannot_read_its_request(self, world, backend, after_a,
                                         method):
        agent = ActivityExecutionAgent(
            world.keypair(REVIEWER), world.directory,
            faulty(backend, after_a, method,
                   DecryptionError("hostile input")))
        with pytest.raises(AuthorizationError, match="cannot decrypt"):
            agent.execute_activity(
                after_a, "B1", figure9_responders(1)["B1"], mode="advanced",
                tfc_identity=TFC, tfc_public_key=world.keypair(TFC).public_key)
