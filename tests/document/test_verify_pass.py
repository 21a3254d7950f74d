"""What one verification pass reads and leaves behind.

A pass parses each signature's ``SignedInfo`` once, shared by every
check that reads its references, and forgets it when the pass ends; it
leaves no reference cycle for the garbage collector.
"""

from __future__ import annotations

import gc
from collections import Counter

import pytest

from repro.document import Dra4wfmsDocument
from repro.document.nonrepudiation import all_scopes
from repro.document.vcache import VerificationCache
from repro.document.verify import verify_document
from repro.errors import TamperDetected
from repro.xmlsec.canonical import canonicalize
from repro.xmlsec.xmldsig import XmlSignature

from ..workload_documents import WORKLOAD_SPECS, final_document
from .tamper_cases import flip_base64


@pytest.fixture()
def parses(monkeypatch) -> Counter:
    """Parses of each signature's references, by signature id."""
    counts: Counter = Counter()
    parse = XmlSignature.references.fget

    def counted(signature):
        counts[signature.signature_id] += 1
        return parse(signature)

    monkeypatch.setattr(XmlSignature, "references", property(counted))
    return counts


class TestOneParsePerPass:
    def test_cold_and_warm(self, parses):
        world, data = final_document("fig9")
        document = Dra4wfmsDocument.from_bytes(data)
        signatures = len(document.cers())
        cache = VerificationCache()
        for label in ("cold", "warm"):
            parses.clear()
            report = verify_document(document, world.directory,
                                     world.backend, cache=cache)
            assert len(parses) == signatures, label
            assert set(parses.values()) == {1}, label
        assert report.cache_hits == signatures

    def test_next_pass_parses_afresh(self):
        """A DigestValue flipped between two passes over the same tree is
        read by the second: it rejects exactly as a cold verification of
        the altered bytes does."""
        world, data = final_document("fig9")
        document = Dra4wfmsDocument.from_bytes(data)
        verify_document(document, world.directory, world.backend)
        cers = document.results_section.findall("CER")
        flip_base64(cers[len(cers) // 2].find(
            "Signature/SignedInfo/Reference/DigestValue"))
        with pytest.raises(TamperDetected) as again:
            verify_document(document, world.directory, world.backend)
        altered = Dra4wfmsDocument.from_bytes(canonicalize(document.root))
        with pytest.raises(TamperDetected) as cold:
            verify_document(altered, world.directory, world.backend)
        assert str(again.value) == str(cold.value)
        assert "digest mismatch" in str(again.value)


class TestNoReferenceCycles:
    @pytest.mark.parametrize("spec", WORKLOAD_SPECS)
    def test_pass_leaves_no_garbage(self, spec):
        world, data = final_document(spec)
        verify_document(Dra4wfmsDocument.from_bytes(data), world.directory,
                        world.backend)  # warm-up: imports, lazy caches
        document = Dra4wfmsDocument.from_bytes(data)
        gc.collect()
        gc.disable()
        try:
            verify_document(document, world.directory, world.backend)
            assert gc.collect() == 0
            all_scopes(document)
            assert gc.collect() == 0
        finally:
            gc.enable()
