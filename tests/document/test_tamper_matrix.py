"""The adversarial tamper matrix: sections × mutation kinds × cache state.

:mod:`test_verify` checks individual hand-picked tamperings.  This
module sweeps the *full matrix* the incremental-verification cache must
survive: for every attackable section of a document (header, embedded
definition, each CER's execution result, signature, and — in the
advanced model — TFC timestamp) apply each mutation kind:

* **flip** — corrupt bytes in place (ciphertext, signature value,
  attribute values);
* **swap** — exchange content between two positions of the *same*
  document (everything remains individually well-formed and validly
  signed *somewhere*);
* **replay** — graft the corresponding, validly signed element from a
  *sibling* document (an independent execution of the same or a related
  workflow), the classic substitution attack against a cache keyed too
  loosely.

The mutations themselves live in the :mod:`tamper_cases` registry
(shared with the verification-memo and resumed-verification suites).
Every mutation must be rejected twice: by a cold verification and by a
verification running against a cache **pre-warmed on the pristine
document** — with the *same* exception type and message.  A cache hit
on any tampered content would be a security hole, so these tests are
the contract that :class:`~repro.document.vcache.VerificationCache`
keys on exact content, not on document identity.
"""

from __future__ import annotations

import pytest

from repro.document.vcache import VerificationCache
from repro.document.verify import verify_document
from repro.errors import TamperDetected, VerificationError

from .tamper_cases import TAMPER_CASES, flip_base64


@pytest.fixture(scope="module")
def warm_cache(fig9a_trace, fig9b_run, world, backend):
    """A cache pre-warmed on the *pristine* documents under attack."""
    trace, _ = fig9b_run
    cache = VerificationCache()
    verify_document(fig9a_trace.final_document, world.directory, backend,
                    cache=cache)
    verify_document(trace.final_document, world.directory, backend,
                    cache=cache)
    return cache


# -- the double rejection assertion ------------------------------------------


def assert_rejected_cold_and_warm(document, world, backend, cache):
    """Cold verify and cache-warm verify must both reject, identically."""
    with pytest.raises((TamperDetected, VerificationError)) as cold:
        verify_document(document, world.directory, backend)
    with pytest.raises((TamperDetected, VerificationError)) as warm:
        verify_document(document, world.directory, backend, cache=cache)
    assert type(warm.value) is type(cold.value)
    assert str(warm.value) == str(cold.value)
    # The tampered document must not have poisoned the cache: the
    # pristine originals must still fully verify against it.


# -- the full matrix ---------------------------------------------------------


class TestTamperMatrix:
    """Every registry case is rejected cold *and* against a warm cache."""

    @pytest.mark.parametrize("case", TAMPER_CASES, ids=lambda c: c.name)
    def test_rejected(self, case, basic_doc, advanced_doc, tamper_donors,
                      world, backend, warm_cache):
        document = basic_doc if case.model == "basic" else advanced_doc
        donor = tamper_donors[case.donor] if case.donor else None
        case.apply(document, donor)
        assert_rejected_cold_and_warm(document, world, backend, warm_cache)


# -- the cache itself stays honest -------------------------------------------


class TestCacheIntegrity:
    def test_pristine_documents_still_verify_warm(self, fig9a_trace,
                                                  fig9b_run, world, backend,
                                                  warm_cache):
        """After the whole adversarial sweep above ran against the
        shared cache, the pristine documents still verify — and every
        signature check is answered by the cache (the tamper attempts
        never polluted or evicted the honest entries)."""
        report = verify_document(fig9a_trace.final_document,
                                 world.directory, backend, cache=warm_cache)
        assert report.cache_hits == report.signatures_verified
        assert report.cache_misses == 0

        trace, _ = fig9b_run
        report = verify_document(trace.final_document, world.directory,
                                 backend, cache=warm_cache)
        assert report.cache_hits == report.signatures_verified
        assert report.cache_misses == 0

    def test_warm_report_equals_cold_report(self, fig9a_trace, world,
                                            backend, warm_cache):
        cold = verify_document(fig9a_trace.final_document, world.directory,
                               backend)
        warm = verify_document(fig9a_trace.final_document, world.directory,
                               backend, cache=warm_cache)
        assert warm == cold
        assert warm.cache_hits == warm.signatures_verified

    def test_tampered_signature_never_recorded(self, basic_doc, world,
                                               backend):
        """A failed verification must not grow the cache."""
        cache = VerificationCache()
        node = basic_doc.root.find(".//CER/Signature/SignatureValue")
        flip_base64(node)
        with pytest.raises((TamperDetected, VerificationError)):
            verify_document(basic_doc, world.directory, backend, cache=cache)
        # Entries may exist for the CERs verified *before* the broken
        # one, but nothing for the tampered signature itself: verifying
        # the tampered document again still fails.
        with pytest.raises((TamperDetected, VerificationError)):
            verify_document(basic_doc, world.directory, backend, cache=cache)
