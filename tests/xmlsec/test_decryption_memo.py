"""A reader's decryption memo never changes what the reader reads.

:class:`DecryptionMemo` maps the digest of every input of one decrypt to
its plaintext.  A hit must stand for a decrypt of exactly the same
inputs: change any one of them and the memo must miss and give the cold
outcome, value or error.  Failures are never stored, and a full memo
drops its oldest entry.  The documents are the final documents of the
benchmark's two workloads.
"""

from __future__ import annotations

import copy

import pytest

from repro.core import InMemoryRuntime, TfcServer
from repro.core.state import VariableView
from repro.document import build_initial_document
from repro.document.builder import INTERMEDIATE_BUNDLE_FIELD
from repro.document.document import Dra4wfmsDocument
from repro.errors import XmlEncryptionError
from repro.fleet.workload import workload_from_spec
from repro.workloads import build_world
from repro.xmlsec.xmlenc import (
    ALG_CTR_HMAC,
    ALG_GCM,
    DecryptionMemo,
    EncryptedValue,
    encrypt_value,
)

from ..workload_documents import TFC_IDENTITY, WORKLOAD_SPECS, final_document


class CountingBackend:
    """A backend that counts RSA unwraps and delegates everything."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.unwraps = 0

    def unwrap_key(self, key, wrapped):
        self.unwraps += 1
        return self.inner.unwrap_key(key, wrapped)

    def __getattr__(self, name):
        return getattr(self.inner, name)


@pytest.fixture(scope="module", params=list(WORKLOAD_SPECS))
def workload(request):
    """(world, the workload's final document as a receiver parses it)."""
    world, data = final_document(request.param)
    return world, Dra4wfmsDocument.from_bytes(data)


def readers(world):
    """Every participant of the workload and the TFC."""
    return sorted(world.keypairs)


def view(document, world, identity, memo=None, backend=None):
    return VariableView.for_reader(
        document, identity, world.keypair(identity).private_key,
        backend or world.backend, memo).raw


def outcome(decrypt):
    try:
        return "value", decrypt()
    except XmlEncryptionError as exc:
        return "error", str(exc)


# -- views -------------------------------------------------------------------


class TestViews:
    def test_warm_by_the_same_reader(self, workload):
        world, document = workload
        for identity in readers(world):
            cold = view(document, world, identity)
            memo = DecryptionMemo()
            assert view(document, world, identity, memo) == cold
            counting = CountingBackend(world.backend)
            assert view(document, world, identity, memo, counting) == cold
            assert counting.unwraps == 0, identity
            assert len(memo) == len([
                enc for cer in document.cers(include_definition=False)
                for enc in cer.encrypted_fields()
                if identity in enc.recipients
                and enc.name != INTERMEDIATE_BUNDLE_FIELD])

    def test_warm_by_other_readers(self, workload):
        world, document = workload
        identities = readers(world)
        colds = {identity: view(document, world, identity)
                 for identity in identities}
        assert sum(map(len, colds.values())) > 0
        assert len(colds[TFC_IDENTITY]) > 0
        for identity in identities:
            memo = DecryptionMemo()
            for other in identities:
                if other != identity:
                    view(document, world, other, memo)
            assert view(document, world, identity, memo) == colds[identity]
        shared = DecryptionMemo()
        for identity in identities + identities:
            assert view(document, world, identity, shared) == colds[identity]


# -- one input at a time -----------------------------------------------------


def shared_field(document):
    """A field the TFC and at least one participant can read."""
    for cer in document.cers(include_definition=False):
        for enc in cer.encrypted_fields():
            others = [r for r in enc.recipients if r != TFC_IDENTITY]
            if TFC_IDENTITY in enc.recipients and others:
                return enc.element, others[0]
    raise AssertionError("no field with two readers")


def key_node(element, identity):
    for node in element.findall("KeyInfo/EncryptedKey"):
        if node.get("Recipient") == identity:
            return node.find("CipherValue")
    raise AssertionError(identity)


def swap_wrapped_key(element, reader, other):
    key_node(element, reader).text = key_node(element, other).text
    return reader, reader


def flip_ciphertext(element, reader, other):
    node = element.find("CipherData/CipherValue")
    node.text = ("B" if node.text[0] == "A" else "A") + node.text[1:]
    return reader, reader


def rename_id(element, reader, other):
    element.set("Id", element.get("Id") + "x")
    return reader, reader


def rename_field(element, reader, other):
    element.set("Name", element.get("Name") + "x")
    return reader, reader


def switch_algorithm(element, reader, other):
    gcm = element.get("Algorithm") == ALG_GCM
    element.set("Algorithm", ALG_CTR_HMAC if gcm else ALG_GCM)
    return reader, reader


def add_recipient(element, reader, other):
    node = copy.deepcopy(element.find("KeyInfo/EncryptedKey"))
    node.set("Recipient", "zed@elsewhere.example")
    element.find("KeyInfo").append(node)
    return reader, reader


def other_identity(element, reader, other):
    # The other reader's slot holds the reader's own wrapped key, and
    # the reader's private key opens it: only the identity differs.
    key_node(element, other).text = key_node(element, reader).text
    return other, reader


def other_key(element, reader, other):
    return reader, other


CHANGES = [swap_wrapped_key, flip_ciphertext, rename_id, rename_field,
           switch_algorithm, add_recipient, other_identity, other_key]


class TestOneInputChanged:
    @pytest.mark.parametrize("change", CHANGES, ids=lambda c: c.__name__)
    def test_gives_the_cold_outcome(self, workload, change):
        world, document = workload
        pristine, other = shared_field(document)
        reader = TFC_IDENTITY
        memo = DecryptionMemo()
        plain = memo.decrypt(EncryptedValue(copy.deepcopy(pristine)), reader,
                             world.keypair(reader).private_key,
                             world.backend)
        changed = copy.deepcopy(pristine)
        identity, key_owner = change(changed, reader, other)
        private_key = world.keypair(key_owner).private_key
        cold = outcome(lambda: EncryptedValue(copy.deepcopy(changed)).decrypt(
            identity, private_key, world.backend))
        counting = CountingBackend(world.backend)
        warm = outcome(lambda: memo.decrypt(
            EncryptedValue(changed), identity, private_key, counting))
        assert warm == cold
        assert counting.unwraps == 1, "a changed input must miss"
        if change is other_identity:
            assert cold == ("value", plain)

    def test_pristine_field_hits(self, workload):
        world, document = workload
        pristine, _ = shared_field(document)
        private_key = world.keypair(TFC_IDENTITY).private_key
        memo = DecryptionMemo()
        plain = memo.decrypt(EncryptedValue(pristine), TFC_IDENTITY,
                             private_key, world.backend)
        counting = CountingBackend(world.backend)
        again = memo.decrypt(EncryptedValue(copy.deepcopy(pristine)),
                             TFC_IDENTITY, private_key, counting)
        assert again == plain
        assert counting.unwraps == 0


# -- what the memo keeps -----------------------------------------------------


class TestEntries:
    def test_failure_leaves_the_memo_unchanged(self, workload):
        world, document = workload
        pristine, _ = shared_field(document)
        private_key = world.keypair(TFC_IDENTITY).private_key
        memo = DecryptionMemo()
        view(document, world, TFC_IDENTITY, memo)
        before = list(memo._plaintexts.items())
        broken = copy.deepcopy(pristine)
        flip_ciphertext(broken, TFC_IDENTITY, None)
        for _ in range(2):
            counting = CountingBackend(world.backend)
            with pytest.raises(XmlEncryptionError, match="authentication"):
                memo.decrypt(EncryptedValue(broken), TFC_IDENTITY,
                             private_key, counting)
            # Tried again every time: nothing of the failure was kept.
            assert counting.unwraps == 1
            assert list(memo._plaintexts.items()) == before

    def test_missing_input_is_not_memoized(self, workload):
        world, document = workload
        pristine, _ = shared_field(document)
        private_key = world.keypair(TFC_IDENTITY).private_key
        memo = DecryptionMemo()
        stranger = "nobody@nowhere.example"
        cold = outcome(lambda: EncryptedValue(pristine).decrypt(
            stranger, private_key, world.backend))
        assert cold[0] == "error"
        assert outcome(lambda: memo.decrypt(
            EncryptedValue(pristine), stranger, private_key,
            world.backend)) == cold
        assert len(memo) == 0

    def test_oldest_entry_goes_first(self, workload):
        world, _ = workload
        keypair = world.keypair(TFC_IDENTITY)
        fields = [EncryptedValue(encrypt_value(
            f"enc-{n}", "v", str(n).encode(), {TFC_IDENTITY:
                                               keypair.public_key},
            world.backend)) for n in range(DecryptionMemo.LIMIT + 1)]
        memo = DecryptionMemo()
        for n, field in enumerate(fields):
            assert memo.decrypt(field, TFC_IDENTITY, keypair.private_key,
                                world.backend) == str(n).encode()
        assert len(memo) == DecryptionMemo.LIMIT
        counting = CountingBackend(world.backend)
        memo.decrypt(fields[-1], TFC_IDENTITY, keypair.private_key, counting)
        memo.decrypt(fields[1], TFC_IDENTITY, keypair.private_key, counting)
        assert counting.unwraps == 0
        memo.decrypt(fields[0], TFC_IDENTITY, keypair.private_key, counting)
        assert counting.unwraps == 1
        assert len(memo) == DecryptionMemo.LIMIT


# -- fields the reader produced ----------------------------------------------


@pytest.fixture(scope="module")
def produced(workload):
    """A field the TFC encrypted to itself and a participant, recorded
    in a fresh memo as the TFC server records its own fields."""
    world, document = workload
    _, other = shared_field(document)
    keypair = world.keypair(TFC_IDENTITY)
    element = encrypt_value(
        "enc-produced", "v", b"a produced value",
        {TFC_IDENTITY: keypair.public_key,
         other: world.keypair(other).public_key}, world.backend)
    memo = DecryptionMemo()
    memo.record(EncryptedValue(copy.deepcopy(element)), TFC_IDENTITY,
                keypair.private_key, b"a produced value")
    return world, element, other, memo


class TestProducedFields:
    def test_read_back_without_an_unwrap(self, produced):
        world, element, _, memo = produced
        counting = CountingBackend(world.backend)
        assert memo.decrypt(EncryptedValue(copy.deepcopy(element)),
                            TFC_IDENTITY,
                            world.keypair(TFC_IDENTITY).private_key,
                            counting) == b"a produced value"
        assert counting.unwraps == 0

    @pytest.mark.parametrize("change", CHANGES, ids=lambda c: c.__name__)
    def test_a_changed_input_misses(self, produced, change):
        world, element, other, memo = produced
        changed = copy.deepcopy(element)
        identity, key_owner = change(changed, TFC_IDENTITY, other)
        private_key = world.keypair(key_owner).private_key
        cold = outcome(lambda: EncryptedValue(copy.deepcopy(changed)).decrypt(
            identity, private_key, world.backend))
        counting = CountingBackend(world.backend)
        warm = outcome(lambda: memo.decrypt(
            EncryptedValue(changed), identity, private_key, counting))
        assert warm == cold
        assert counting.unwraps == 1, "a changed input must miss"



def test_a_tfc_server_records_what_it_encrypts(backend):
    """Every field of the TFC CERs a server appended reads back from its
    memo with no unwrap, as the cold decrypt reads it."""
    spec = workload_from_spec("chain:4:2")
    world = build_world([*spec.identities, TFC_IDENTITY], bits=1024,
                        backend=backend)
    tfc = TfcServer(world.keypair(TFC_IDENTITY), world.directory,
                    backend=backend)
    initial = build_initial_document(
        spec.definition, world.keypair(spec.designer), backend=backend)
    runtime = InMemoryRuntime(world.directory, world.keypairs, tfc=tfc,
                              backend=backend)
    final = runtime.run(initial, spec.definition, spec.responders,
                        mode="advanced").final_document
    private_key = world.keypair(TFC_IDENTITY).private_key
    fields = [enc for cer in final.cers(include_definition=False)
              if cer.kind == "tfc" for enc in cer.encrypted_fields()]
    assert len(fields) == 4
    counting = CountingBackend(backend)
    for enc in fields:
        assert tfc.decryption_memo.decrypt(
            enc, TFC_IDENTITY, private_key, counting) == enc.decrypt(
                TFC_IDENTITY, private_key, backend)
    assert counting.unwraps == 0
