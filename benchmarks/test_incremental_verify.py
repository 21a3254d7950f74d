"""Incremental cascade verification — per-hop cost with a shared cache.

``test_verify_scaling`` measures the architecture's inherent cost:
every hop re-verifies the whole history, so one *n*-step process pays
O(n²) RSA checks end to end.  This bench demonstrates the opt-in
:class:`~repro.document.vcache.VerificationCache` collapsing that to
O(n): a receiver that already verified the cascade prefix pays exactly
**one** fresh RSA check per hop — the newly appended CER — independent
of chain length, while a cold verifier's per-hop cost keeps growing
linearly.

The counters are asserted *exactly* (they are deterministic), the
wall-clock comparison loosely (hashing still touches every element, so
the timing win is bounded by the RSA share of total cost at these key
sizes).
"""

from __future__ import annotations

import time

from conftest import GENERIC_DESIGNER, emit_table
from repro.core import InMemoryRuntime
from repro.document import build_initial_document, verify_document
from repro.document.vcache import VerificationCache
from repro.workloads.generator import (
    auto_responders,
    chain_definition,
    participant_pool,
)

CHAIN_LENGTHS = [8, 16, 32, 64]


def _hop_documents(world, backend, length):
    """The per-hop document sequence of one chain execution."""
    definition = chain_definition(length, participant_pool(6),
                                  designer=GENERIC_DESIGNER)
    initial = build_initial_document(
        definition, world.keypair(GENERIC_DESIGNER), backend=backend
    )
    runtime = InMemoryRuntime(world.directory, world.keypairs,
                              backend=backend)
    trace = runtime.run(initial, definition, auto_responders(definition),
                        mode="basic")
    return [initial] + [step.document for step in trace.steps]


def test_incremental_verify(benchmark, world, backend):
    hops_by_length = {
        length: _hop_documents(world, backend, length)
        for length in CHAIN_LENGTHS
    }

    rows = []
    for length in CHAIN_LENGTHS:
        documents = hops_by_length[length]

        # Cold sweep: every hop re-verifies the whole history.
        cold_rsa = 0
        cold_start = time.perf_counter()
        cold_reports = [
            verify_document(document, world.directory, backend)
            for document in documents
        ]
        cold_seconds = time.perf_counter() - cold_start
        cold_rsa = sum(r.signatures_verified for r in cold_reports)

        # Warm sweep: one shared cache carried across the hops.
        cache = VerificationCache()
        warm_start = time.perf_counter()
        warm_reports = [
            verify_document(document, world.directory, backend, cache=cache)
            for document in documents
        ]
        warm_seconds = time.perf_counter() - warm_start

        # Equivalence: the cache changes accounting, never the outcome.
        assert warm_reports == cold_reports

        # O(n) instead of O(n²): exactly one fresh RSA check per hop —
        # the newly appended CER — regardless of chain length.
        warm_rsa = sum(r.cache_misses for r in warm_reports)
        assert warm_rsa == length + 1
        assert warm_reports[-1].cache_misses == 1
        assert warm_reports[-1].cache_hits == length
        assert cold_rsa == (length + 1) * (length + 2) // 2

        rows.append([
            length,
            cold_rsa,
            warm_rsa,
            cold_reports[-1].signatures_verified,
            warm_reports[-1].cache_misses,
            f"{cold_seconds * 1000:.1f}",
            f"{warm_seconds * 1000:.1f}",
            f"{cold_seconds / warm_seconds:.2f}x",
        ])

    emit_table(
        "incremental_verify",
        "Per-hop verification: cold vs shared signature cache",
        ["chain length", "cold RSA total", "warm RSA total",
         "cold RSA last hop", "warm RSA last hop",
         "cold sweep (ms)", "warm sweep (ms)", "speedup"],
        rows,
    )

    # Loose wall-clock sanity: the warm sweep must never be slower than
    # the cold one by more than measurement noise (the win itself is
    # reported in the table; its size depends on the RSA/hash ratio).
    longest = hops_by_length[CHAIN_LENGTHS[-1]]
    cold_start = time.perf_counter()
    for document in longest:
        verify_document(document, world.directory, backend)
    cold_seconds = time.perf_counter() - cold_start
    cache = VerificationCache()
    warm_start = time.perf_counter()
    for document in longest:
        verify_document(document, world.directory, backend, cache=cache)
    warm_seconds = time.perf_counter() - warm_start
    assert warm_seconds < cold_seconds * 1.25

    # Steady-state per-hop cost: re-verifying the final document against
    # a fully warmed cache (what the next receiver of a routed copy
    # pays before its own new CER).
    final = longest[-1]
    steady_cache = VerificationCache()
    verify_document(final, world.directory, backend, cache=steady_cache)

    def warm_reverify():
        report = verify_document(final, world.directory, backend,
                                 cache=steady_cache)
        assert report.cache_misses == 0
        return report

    benchmark.pedantic(warm_reverify, rounds=5, warmup_rounds=1)
