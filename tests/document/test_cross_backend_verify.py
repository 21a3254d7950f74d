"""Cross-backend incremental verification.

The two crypto backends (:class:`~repro.crypto.backend.PureBackend`,
pure Python, and :class:`~repro.crypto.fast.FastBackend`, OpenSSL) must
be interchangeable at every trust boundary: a document signed by AEAs
running one backend verifies under the other, and — because the
:class:`~repro.document.vcache.VerificationCache` keys on canonical
content digests computed with :mod:`hashlib`, never with backend
primitives — one shared cache serves both.  An enterprise on the pure
backend and a cloud portal on OpenSSL literally share verification
work.
"""

from __future__ import annotations

import pytest

from repro.core import InMemoryRuntime
from repro.document import build_initial_document
from repro.document.vcache import VerificationCache
from repro.document.verify import verify_document
from repro.workloads.generator import (
    auto_responders,
    chain_definition,
    participant_pool,
)

DESIGNER = "designer@enterprise.example"
CHAIN = 5


@pytest.fixture(scope="module")
def pool_world(backend):
    """A small PKI for the generic chain participants.

    Key *generation* uses the fast backend, but the keys themselves are
    plain integers — usable by either backend for signing/verifying.
    """
    from repro.workloads import build_world

    return build_world([DESIGNER, *participant_pool(6)], bits=1024,
                       backend=backend)


@pytest.fixture(scope="module")
def pure_signed_doc(pool_world, pure_backend):
    """A chain executed entirely on the pure backend."""
    definition = chain_definition(CHAIN, participant_pool(6),
                                  designer=DESIGNER)
    initial = build_initial_document(
        definition, pool_world.keypair(DESIGNER), backend=pure_backend
    )
    runtime = InMemoryRuntime(pool_world.directory, pool_world.keypairs,
                              backend=pure_backend)
    trace = runtime.run(initial, definition, auto_responders(definition),
                        mode="basic")
    return trace.final_document


@pytest.fixture(scope="module")
def fast_signed_doc(fig9a_trace):
    """The shared Fig. 9A run — signed on the fast backend."""
    return fig9a_trace.final_document


class TestPureSignedFastVerified:
    def test_cold_verify_interop(self, pure_signed_doc, pool_world, backend,
                                 pure_backend):
        pure_report = verify_document(pure_signed_doc, pool_world.directory,
                                      pure_backend)
        fast_report = verify_document(pure_signed_doc, pool_world.directory,
                                      backend)
        assert fast_report == pure_report
        assert fast_report.signatures_verified == CHAIN + 1

    def test_cache_warmed_by_pure_serves_fast(self, pure_signed_doc,
                                              pool_world, backend,
                                              pure_backend):
        cache = VerificationCache()
        warmup = verify_document(pure_signed_doc, pool_world.directory,
                                 pure_backend, cache=cache)
        assert warmup.cache_misses == warmup.signatures_verified

        crossed = verify_document(pure_signed_doc, pool_world.directory,
                                  backend, cache=cache)
        assert crossed.cache_hits == crossed.signatures_verified
        assert crossed.cache_misses == 0
        assert crossed == warmup


class TestFastSignedPureVerified:
    def test_cold_verify_interop(self, fast_signed_doc, world, backend,
                                 pure_backend):
        fast_report = verify_document(fast_signed_doc, world.directory,
                                      backend)
        pure_report = verify_document(fast_signed_doc, world.directory,
                                      pure_backend)
        assert pure_report == fast_report

    def test_cache_warmed_by_fast_serves_pure(self, fast_signed_doc, world,
                                              backend, pure_backend):
        cache = VerificationCache()
        warmup = verify_document(fast_signed_doc, world.directory, backend,
                                 cache=cache)
        assert warmup.cache_misses == warmup.signatures_verified

        crossed = verify_document(fast_signed_doc, world.directory,
                                  pure_backend, cache=cache)
        assert crossed.cache_hits == crossed.signatures_verified
        assert crossed.cache_misses == 0
        assert crossed == warmup


class TestBackendIndependentKeys:
    def test_cache_keys_do_not_depend_on_backend(self, pure_signed_doc,
                                                 pool_world, backend,
                                                 pure_backend):
        """The same document warms two caches to identical key sets
        regardless of which backend did the verifying."""
        cache_pure, cache_fast = VerificationCache(), VerificationCache()
        verify_document(pure_signed_doc, pool_world.directory, pure_backend,
                        cache=cache_pure)
        verify_document(pure_signed_doc, pool_world.directory, backend,
                        cache=cache_fast)
        assert set(cache_pure._entries) == set(cache_fast._entries)
        assert len(cache_pure._entries) == CHAIN + 1
