"""Content-addressed chunking: manifests, caches, and the delta codec.

The delta layer's contract is exact byte equivalence: assembling the
chunks of any document version must reproduce ``document.to_bytes()``
bit for bit, and every corruption — wrong chunk, truncated chunk,
reordered manifest — must be rejected loudly, never silently repaired.
These tests pin that contract on real executed workflow documents
(the session-scoped Fig. 9A trace) rather than synthetic XML.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.document import delta as delta_module
from repro.document.delta import (
    Chunk,
    ChunkCache,
    DeltaDocument,
    Manifest,
    assemble,
    chunk_bytes,
    chunk_digest,
    chunk_document,
    decode_delta,
    encode_delta,
)
from repro.document.document import Dra4wfmsDocument
from repro.errors import DeltaError, DeltaMismatch


@pytest.fixture()
def final_doc(fig9a_trace) -> Dra4wfmsDocument:
    """Mutable copy of the executed Fig. 9A final document."""
    return fig9a_trace.final_document.clone()


def hop_docs(fig9a_trace):
    return [step.document for step in fig9a_trace.steps]


# -- chunking ----------------------------------------------------------------


class TestChunking:
    def test_concatenation_is_canonical_bytes(self, final_doc):
        pairs = chunk_bytes(final_doc)
        assert b"".join(data for _, data in pairs) == final_doc.to_bytes()

    def test_chunk_fields_match_payloads(self, final_doc):
        for chunk, data in chunk_bytes(final_doc):
            assert chunk.length == len(data)
            assert chunk.digest == chunk_digest(data)

    def test_one_cer_chunk_per_cer(self, final_doc):
        pairs = chunk_bytes(final_doc)
        cer_chunks = [c for c, _ in pairs if c.is_cer]
        assert len(cer_chunks) == len(final_doc.cers(include_definition=True))

    def test_manifest_describes_document(self, final_doc):
        manifest, payloads = chunk_document(final_doc)
        blob = final_doc.to_bytes()
        assert manifest.process_id == final_doc.process_id
        assert manifest.doc_bytes == len(blob)
        assert manifest.doc_digest == hashlib.sha256(blob).hexdigest()
        assert set(manifest.chunk_digests) == set(payloads)

    def test_assemble_reproduces_document(self, final_doc):
        manifest, payloads = chunk_document(final_doc)
        assert assemble(manifest, payloads) == final_doc.to_bytes()

    def test_appending_changes_only_new_chunks(self, fig9a_trace):
        """Consecutive hop versions share every chunk except the new CER
        (and the glue around the mutated sections) — the O(new CER)
        routing claim."""
        documents = hop_docs(fig9a_trace)
        previous: set[str] = set()
        for hop, document in enumerate(documents):
            manifest, _ = chunk_document(document)
            fresh = [c for c in manifest.chunks if c.digest not in previous]
            if hop > 0:
                fresh_cers = [c for c in fresh if c.is_cer]
                assert len(fresh_cers) <= 2, (
                    f"hop {hop}: expected O(1) new CER chunks, got "
                    f"{len(fresh_cers)}"
                )
            previous.update(manifest.chunk_digests)


# -- manifest serialization --------------------------------------------------


class TestManifest:
    def test_round_trip(self, final_doc):
        manifest, _ = chunk_document(final_doc)
        assert Manifest.from_bytes(manifest.to_bytes()) == manifest

    def test_serialization_is_deterministic(self, final_doc):
        manifest, _ = chunk_document(final_doc)
        assert manifest.to_bytes() == manifest.to_bytes()

    def test_encoded_once(self, final_doc, monkeypatch):
        manifest, _ = chunk_document(final_doc)
        encoded = manifest.to_bytes()
        with monkeypatch.context() as patch:
            patch.setattr(delta_module.json, "dumps", None)
            assert manifest.to_bytes() is encoded
            delta = DeltaDocument(manifest=manifest, chunks={"d": b"12345"})
            assert delta.wire_bytes == len(encoded) + 5
        # Equality and hashing see the fields only.
        copy = Manifest.from_bytes(encoded)
        assert copy == manifest and hash(copy) == hash(manifest)

    @pytest.mark.parametrize("data", [
        b"", b"not json", b"\xff\xfe", b"[]", b'{"format":"bogus/9"}',
        b'{"format":"dra4wfms-manifest/1"}',
        b'{"format":"dra4wfms-manifest/1","process_id":"p",'
        b'"doc_digest":"d","doc_bytes":1,"chunks":[["x"]]}',
    ])
    def test_malformed_rejected(self, data):
        with pytest.raises(DeltaError):
            Manifest.from_bytes(data)


# -- assembly failure modes --------------------------------------------------


class TestAssembly:
    def test_corrupted_chunk_rejected(self, final_doc):
        manifest, payloads = chunk_document(final_doc)
        victim = manifest.chunks[0].digest
        payloads[victim] = payloads[victim] + b"!"
        with pytest.raises(DeltaMismatch, match="content"):
            assemble(manifest, payloads)

    def test_swapped_chunks_rejected(self, final_doc):
        """A chunk whose bytes match a *different* digest is still a
        mismatch at its own manifest position."""
        manifest, payloads = chunk_document(final_doc)
        a, b = manifest.chunks[0].digest, manifest.chunks[1].digest
        payloads[a], payloads[b] = payloads[b], payloads[a]
        with pytest.raises(DeltaMismatch):
            assemble(manifest, payloads)

    def test_missing_chunk_raises_key_error(self, final_doc):
        manifest, payloads = chunk_document(final_doc)
        del payloads[manifest.chunks[-1].digest]
        with pytest.raises(KeyError):
            assemble(manifest, payloads)

    def test_wrong_doc_digest_rejected(self, final_doc):
        manifest, payloads = chunk_document(final_doc)
        forged = Manifest(
            process_id=manifest.process_id,
            doc_digest="0" * 64,
            doc_bytes=manifest.doc_bytes,
            chunks=manifest.chunks,
        )
        with pytest.raises(DeltaMismatch, match="manifest digest"):
            assemble(forged, payloads)


# -- chunk cache -------------------------------------------------------------


class TestChunkCache:
    def test_add_and_lookup(self):
        cache = ChunkCache()
        data = b"<CER>x</CER>"
        digest = chunk_digest(data)
        cache.add(digest, data)
        assert digest in cache
        assert len(cache) == 1
        assert cache[digest] == data
        # Membership probes count as traffic too, so reports see every
        # lookup a peer made: one hit from `in`, one from `[]`.
        assert cache.hits == 2
        assert cache.misses == 0
        assert cache.total_bytes == len(data)

    def test_miss_counts_and_raises(self):
        cache = ChunkCache()
        with pytest.raises(KeyError):
            cache["deadbeef"]
        assert cache.misses == 1

    def test_wrong_digest_refused(self):
        cache = ChunkCache()
        with pytest.raises(DeltaMismatch, match="wrong digest"):
            cache.add("0" * 64, b"whatever")
        assert len(cache) == 0

    def test_first_write_wins(self):
        cache = ChunkCache()
        data = b"payload"
        digest = chunk_digest(data)
        cache.add(digest, data)
        cache.add(digest, data)
        assert len(cache) == 1


class TestBoundedChunkCache:
    """LRU byte-budgeted mode (``max_bytes`` set)."""

    @staticmethod
    def _entry(label: str) -> tuple[str, bytes]:
        data = f"<CER>{label}</CER>".encode().ljust(100, b" ")
        return chunk_digest(data), data

    def test_negative_budget_rejected(self):
        with pytest.raises(DeltaError, match="byte budget"):
            ChunkCache(max_bytes=-1)

    def test_evicts_least_recently_used_first(self):
        cache = ChunkCache(max_bytes=250)  # room for two 100 B chunks
        d1, c1 = self._entry("one")
        d2, c2 = self._entry("two")
        d3, c3 = self._entry("three")
        cache.add(d1, c1)
        cache.add(d2, c2)
        assert d1 in cache  # touch: d1 is now warmer than d2
        cache.add(d3, c3)
        assert d2 not in cache
        assert d1 in cache and d3 in cache
        assert cache.evictions == 1
        assert cache.evicted_bytes == len(c2)

    def test_total_bytes_matches_audit_through_churn(self):
        cache = ChunkCache(max_bytes=350)
        for i in range(40):
            digest, data = self._entry(f"churn-{i}")
            cache.add(digest, data)
            if i % 3 == 0:
                digest in cache  # interleave touches  # noqa: B015
            assert cache.total_bytes == cache.audit_total_bytes()
        assert cache.total_bytes <= 350
        assert cache.evictions > 0
        assert cache.total_bytes == cache.audit_total_bytes()

    def test_duplicate_add_does_not_double_count(self):
        cache = ChunkCache(max_bytes=1000)
        digest, data = self._entry("dup")
        cache.add(digest, data)
        cache.add(digest, data)
        assert cache.total_bytes == len(data)
        assert cache.total_bytes == cache.audit_total_bytes()

    def test_zero_budget_keeps_newest_chunk_resident(self):
        """Even over budget the newest chunk stays — evicting the bytes
        in active use would only force an immediate refetch."""
        cache = ChunkCache(max_bytes=0)
        d1, c1 = self._entry("a")
        d2, c2 = self._entry("b")
        cache.add(d1, c1)
        assert len(cache) == 1
        cache.add(d2, c2)
        assert len(cache) == 1
        assert d2 in cache
        assert cache.evictions == 1

    def test_oversized_single_chunk_stays_resident(self):
        cache = ChunkCache(max_bytes=10)
        digest, data = self._entry("huge")  # 100 B > 10 B budget
        cache.add(digest, data)
        assert digest in cache
        assert cache.total_bytes == len(data)

    def test_decode_survives_tiny_budget(self, final_doc):
        """A starved cache must never yield a wrong document — decode
        reads fresh delta chunks before consulting the cache."""
        delta = encode_delta(final_doc)
        cache = ChunkCache(max_bytes=64)
        assert decode_delta(delta, cache) == final_doc.to_bytes()
        assert cache.total_bytes <= max(
            64, max(len(c) for c in delta.chunks.values())
        )

    def test_unbounded_cache_never_evicts(self):
        cache = ChunkCache()
        for i in range(200):
            digest, data = self._entry(f"n{i}")
            cache.add(digest, data)
        assert cache.evictions == 0
        assert len(cache) == 200
        assert cache.total_bytes == cache.audit_total_bytes()


# -- delta codec -------------------------------------------------------------


class TestDeltaCodec:
    def test_cold_round_trip(self, final_doc):
        delta = encode_delta(final_doc)
        assert decode_delta(delta, ChunkCache()) == final_doc.to_bytes()
        # A cold encode ships everything: wire ≥ document size.
        assert delta.wire_bytes >= delta.full_bytes

    def test_known_chunks_are_omitted(self, fig9a_trace):
        documents = hop_docs(fig9a_trace)
        cache = ChunkCache()
        decode_delta(encode_delta(documents[0]), cache)
        delta = encode_delta(documents[1], known=cache)
        assert delta.wire_bytes < documents[1].size_bytes
        assert decode_delta(delta, cache) == documents[1].to_bytes()

    def test_incremental_hops_stay_small(self, fig9a_trace):
        """Per-hop wire cost over a whole execution is a fraction of
        re-shipping every version — the routing win end to end."""
        documents = hop_docs(fig9a_trace)
        cache = ChunkCache()
        wire = full = 0
        for hop, document in enumerate(documents):
            known = cache if hop > 0 else None
            delta = encode_delta(document, known=known)
            assert decode_delta(delta, cache) == document.to_bytes()
            wire += delta.wire_bytes
            full += document.size_bytes
        assert wire < full / 2

    def test_over_assumed_chunk_fails_closed(self, final_doc):
        """A sender that wrongly assumes the receiver holds a chunk
        produces a KeyError on decode, never silent corruption."""
        manifest, payloads = chunk_document(final_doc)
        assumed = manifest.chunks[0].digest
        delta = DeltaDocument(
            manifest=manifest,
            chunks={d: b for d, b in payloads.items() if d != assumed},
        )
        with pytest.raises(KeyError):
            decode_delta(delta, ChunkCache())

    def test_decoded_bytes_reparse(self, final_doc):
        data = decode_delta(encode_delta(final_doc), ChunkCache())
        assert Dra4wfmsDocument.from_bytes(data).to_bytes() == data


# -- memo interaction --------------------------------------------------------


class TestMemoInteraction:
    def test_chunking_uses_memo_without_changing_bytes(self, final_doc):
        cold = [d for _, d in chunk_bytes(final_doc)]
        final_doc.to_bytes()  # populate the memo
        warm = [d for _, d in chunk_bytes(final_doc)]
        assert warm == cold

    def test_direct_mutation_requires_cache_drop(self, final_doc):
        """The documented contract: mutate behind the document's back →
        call drop_canonical_cache() → serialization reflects the edit."""
        final_doc.to_bytes()
        final_doc.header.set("Tampered", "yes")
        final_doc.drop_canonical_cache()
        assert b'Tampered="yes"' in final_doc.to_bytes()
        pairs = chunk_bytes(final_doc)
        assert b"".join(d for _, d in pairs) == final_doc.to_bytes()

    def test_clone_is_byte_identical_with_cold_memo(self, final_doc):
        final_doc.to_bytes()
        twin = final_doc.clone()
        assert twin.to_bytes() == final_doc.to_bytes()
        manifest_a, _ = chunk_document(final_doc)
        manifest_b, _ = chunk_document(twin)
        assert manifest_a == manifest_b
