"""Chunk-store lifecycle: refcounts, GC, compaction, retirement.

Hot storage must stay O(live instances): stored manifests pin the
chunks they name, completed instances release them via compaction and
retirement, and ``gc()`` deletes only zero-reference chunks — from the
base store's single table and from *every* replica shard.  The guard
property everything hangs on: a chunk referenced by any live manifest
can never be collected.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.cloud.hbase import CerChunkStore, SimHBase
from repro.cloud.pool import DOC_TABLE, MANIFEST_TABLE, DocumentPool
from repro.document.delta import chunk_document
from repro.errors import ReplayDetected, StorageError


def _chunks(*payloads: bytes) -> dict[str, bytes]:
    return {hashlib.sha256(p).hexdigest(): p for p in payloads}


def monotonic_versions(trace):
    """The growing version subsequence one submitting client produces.

    Parallel-branch snapshots are not mutually monotonic (each branch
    lacks the sibling's CER until the join), so only versions whose CER
    chunk set contains everything stored so far are storable.
    """
    versions = []
    stored: set[str] = set()
    for step in trace.steps:
        manifest, _ = chunk_document(step.document)
        if stored <= set(manifest.cer_digests):
            versions.append(step.document)
            stored = set(manifest.cer_digests)
    return versions


# -- refcounted GC on the base store ------------------------------------------


class TestRefcountedGc:
    @pytest.fixture()
    def store(self):
        return CerChunkStore(SimHBase(region_servers=2))

    def test_pin_and_refcount(self, store):
        chunks = _chunks(b"aaa", b"bbb")
        store.put_chunks(chunks)
        digests = sorted(chunks)
        store.pin(digests)
        store.pin([digests[0]])
        assert store.refcount(digests[0]) == 2
        assert store.refcount(digests[1]) == 1
        store.unpin(digests)
        assert store.refcount(digests[0]) == 1
        assert store.refcount(digests[1]) == 0

    def test_unpin_underflow_raises(self, store):
        chunks = _chunks(b"aaa")
        store.put_chunks(chunks)
        with pytest.raises(StorageError, match="refcount underflow"):
            store.unpin(sorted(chunks))

    def test_gc_spares_pinned_chunks(self, store):
        """The guard property: a pinned chunk is never collected."""
        pinned = _chunks(b"live chunk")
        dead = _chunks(b"dead chunk")
        store.put_chunks({**pinned, **dead})
        store.pin(sorted(pinned))
        deleted, reclaimed = store.gc()
        assert deleted == 1
        assert reclaimed == len(b"dead chunk")
        (live,) = pinned
        assert live in store
        assert store.get_chunks([live]) == pinned
        assert sorted(dead)[0] not in store

    def test_gc_keeps_known_stats_and_hbase_consistent(self, store):
        chunks = _chunks(b"x" * 10, b"y" * 20, b"z" * 30)
        store.put_chunks(chunks)
        survivor = max(chunks)
        store.pin([survivor])
        deleted, reclaimed = store.gc()
        assert deleted == 2
        assert reclaimed == sum(
            len(p) for d, p in chunks.items() if d != survivor
        )
        # _known, stats, and the durable rows all agree.
        assert store.stats["unique_chunks"] == 1
        assert store.stats["unique_bytes"] == len(chunks[survivor])
        for digest in chunks:
            row = store.hbase.get(store.TABLE, digest)
            if digest == survivor:
                assert digest in store
                assert row.get(("c", "b")) == chunks[digest]
            else:
                assert digest not in store
                assert row == {}

    def test_reput_after_gc_is_a_fresh_write(self, store):
        chunks = _chunks(b"come and go")
        store.put_chunks(chunks)
        store.gc()
        hits_before = store.stats["dedup_hits"]
        assert store.put_chunks(chunks) == 1
        assert store.stats["dedup_hits"] == hits_before
        assert store.stats["unique_chunks"] == 1

    def test_gc_lifecycle_counters(self, store):
        chunks = _chunks(b"one", b"two")
        store.put_chunks(chunks)
        store.pin(sorted(chunks))
        store.unpin(sorted(chunks))
        store.gc()
        store.gc()  # second sweep finds nothing
        assert store.lifecycle == {
            "pins": 2,
            "unpins": 2,
            "gc_runs": 2,
            "gc_chunks_deleted": 2,
            "gc_bytes_reclaimed": len(b"one") + len(b"two"),
        }


class TestReplicatedGc:
    def test_gc_deletes_every_replica_row(self):
        store = CerChunkStore(SimHBase(region_servers=3),
                              shards=3, replicas=2)
        chunks = _chunks(b"replicated payload")
        store.put_chunks(chunks)
        (digest,) = chunks
        shards = store.replica_shards(digest)
        assert len(shards) == 2
        for shard_id in shards:
            row = store.hbase.get(store._table(shard_id), digest)
            assert row.get(("c", "b")) == chunks[digest]
        deleted, reclaimed = store.gc()
        assert (deleted, reclaimed) == (1, len(chunks[digest]))
        for shard_id in shards:
            assert store.hbase.get(store._table(shard_id), digest) == {}
        assert digest not in store

    def test_gc_spares_pinned_replicated_chunks(self):
        store = CerChunkStore(SimHBase(region_servers=2),
                              shards=2, replicas=2)
        chunks = _chunks(b"pinned", b"collectable")
        store.put_chunks(chunks)
        pinned = min(chunks)
        store.pin([pinned])
        deleted, _ = store.gc()
        assert deleted == 1
        assert store.get_chunks([pinned]) == {pinned: chunks[pinned]}


# -- stats invariants (satellite) ---------------------------------------------


class TestStatsInvariants:
    @pytest.mark.parametrize("make_store", [
        lambda: CerChunkStore(SimHBase(region_servers=2)),
        lambda: CerChunkStore(SimHBase(region_servers=2),
                              shards=2, replicas=2),
    ], ids=["base", "replicated"])
    def test_dedup_ratio_on_empty_store(self, make_store):
        assert make_store().dedup_ratio == 1.0

    def test_repeated_digests_across_put_calls(self):
        """Re-presented digests are dedup hits, never double-counted.

        Within one ``put_chunks`` call duplicate digests cannot occur
        (the payload dict is keyed by digest), so re-presentation is
        the only representable duplication.
        """
        store = CerChunkStore(SimHBase(region_servers=2))
        chunks = _chunks(b"payload-a", b"payload-b")
        assert store.put_chunks(chunks) == 2
        assert store.put_chunks(chunks) == 0
        assert store.stats["dedup_hits"] == 2
        assert store.stats["unique_chunks"] == 2
        total = sum(len(p) for p in chunks.values())
        assert store.stats["unique_bytes"] == total
        assert store.stats["logical_bytes"] == 2 * total
        assert store.dedup_ratio == 2.0

    def test_known_matches_hbase_after_deletes(self):
        store = CerChunkStore(SimHBase(region_servers=2))
        chunks = _chunks(*[f"chunk {i}".encode() for i in range(6)])
        store.put_chunks(chunks)
        keep = sorted(chunks)[:2]
        store.pin(keep)
        store.gc()
        for digest in chunks:
            in_known = digest in store._known
            in_hbase = store.hbase.get(store.TABLE, digest) != {}
            assert in_known == in_hbase == (digest in keep)
        assert store.stats["unique_chunks"] == len(keep)


# -- pool lifecycle: pin on store, compact, retire ----------------------------


class TestPoolLifecycle:
    @pytest.fixture()
    def pool(self):
        return DocumentPool(SimHBase(region_servers=2), delta=True)

    @pytest.fixture()
    def stored(self, pool, fig9a_trace):
        versions = monotonic_versions(fig9a_trace)
        assert len(versions) >= 3
        process_id = versions[0].process_id
        pool.register_process(process_id)
        for document in versions:
            pool.store(document)
        return process_id, versions

    def test_store_pins_manifest_chunks(self, pool, stored):
        process_id, versions = stored
        manifest = pool.latest_manifest(process_id)
        assert all(pool.chunks.refcount(d) >= 1
                   for d in manifest.chunk_digests)
        # One pin per stored version that names the chunk.
        final_chunks, _ = chunk_document(versions[-1])
        first_chunks, _ = chunk_document(versions[0])
        shared = set(first_chunks.chunk_digests) \
            & set(final_chunks.chunk_digests)
        assert any(pool.chunks.refcount(d) == len(versions)
                   for d in shared)

    def test_gc_cannot_touch_live_instance(self, pool, stored):
        process_id, versions = stored
        deleted, _ = pool.gc()
        assert deleted == 0
        assert pool.latest_bytes(process_id) == versions[-1].to_bytes()

    def test_compact_collapses_history(self, pool, stored):
        process_id, versions = stored
        old_manifests = [
            pool.latest_manifest(process_id)  # final, for reference
        ]
        removed = pool.compact(process_id)
        assert removed == len(versions) - 1
        history = pool.history(process_id)
        assert len(history) == 1
        assert history[0].to_bytes() == versions[-1].to_bytes()
        assert pool.latest_bytes(process_id) == versions[-1].to_bytes()
        # Refcounts collapsed to the single sealed manifest.
        final = old_manifests[0]
        assert all(pool.chunks.refcount(d) == 1
                   for d in final.chunk_digests)
        # Old versions' by-digest index rows are gone, the final stays.
        for document in versions[:-1]:
            manifest, _ = chunk_document(document)
            assert pool.manifest_by_digest(manifest.doc_digest) is None
        assert pool.manifest_by_digest(final.doc_digest) is not None

    def test_compact_is_idempotent(self, pool, stored):
        process_id, _ = stored
        assert pool.compact(process_id) > 0
        assert pool.compact(process_id) == 0

    def test_compact_then_gc_keeps_document_readable(self, pool, stored):
        """Compaction drops manifests, not shared chunks.

        With monotonic CER accumulation every intermediate version's
        chunks are a subset of the final manifest's, so a post-compact
        sweep finds nothing to delete — and must not break reads.
        """
        process_id, versions = stored
        before = pool.chunks.stats["unique_bytes"]
        pool.compact(process_id)
        deleted, reclaimed = pool.gc()
        assert (deleted, reclaimed) == (0, 0)
        assert pool.chunks.stats["unique_bytes"] == before
        # Still fully readable from the sealed manifest.
        assert pool.latest_bytes(process_id) == versions[-1].to_bytes()

    def test_retire_requires_archive(self, pool, stored):
        process_id, _ = stored
        with pytest.raises(StorageError, match="archived before"):
            pool.retire(process_id)

    def test_retire_frees_everything_but_blocks_replay(
            self, pool, stored):
        process_id, versions = stored
        pool.archive(process_id)
        pool.retire(process_id)
        assert pool.is_retired(process_id)
        deleted, _ = pool.gc()
        assert deleted > 0
        assert pool.chunks.stats["unique_chunks"] == 0
        assert pool.chunks.stats["unique_bytes"] == 0
        with pytest.raises(StorageError):
            pool.latest_bytes(process_id)
        # The manifest index is empty too.
        assert pool.hbase.scan(MANIFEST_TABLE) == []
        # Retired ids stay registered: replays and re-stores bounce.
        assert pool.is_registered(process_id)
        with pytest.raises(ReplayDetected):
            pool.register_process(process_id)
        with pytest.raises(StorageError, match="retired"):
            pool.store(versions[-1])

    def test_retire_is_idempotent(self, pool, stored):
        process_id, _ = stored
        pool.archive(process_id)
        pool.retire(process_id)
        pool.retire(process_id)
        assert pool.is_retired(process_id)

    def test_retiring_one_instance_spares_the_other(
            self, pool, fig9a_trace, fig9b_run):
        trace_b, _ = fig9b_run
        versions_a = monotonic_versions(fig9a_trace)
        versions_b = monotonic_versions(trace_b)
        for versions in (versions_a, versions_b):
            pool.register_process(versions[0].process_id)
            for document in versions:
                pool.store(document)
        pid_a = versions_a[0].process_id
        pid_b = versions_b[0].process_id
        pool.archive(pid_a)
        pool.retire(pid_a)
        pool.gc()
        assert pool.latest_bytes(pid_b) == versions_b[-1].to_bytes()
        manifest_b = pool.latest_manifest(pid_b)
        assert all(pool.chunks.refcount(d) >= 1
                   for d in manifest_b.chunk_digests)

    def test_purge_releases_chunk_refs(self, pool, stored):
        process_id, _ = stored
        pool.purge(process_id)
        deleted, _ = pool.gc()
        assert deleted > 0
        assert pool.chunks.stats["unique_chunks"] == 0

    def test_lifecycle_requires_delta_mode(self, fig9a_trace):
        pool = DocumentPool(SimHBase(region_servers=2))
        final = fig9a_trace.final_document
        pool.register_process(final.process_id)
        pool.store(final)
        with pytest.raises(StorageError, match="delta mode"):
            pool.compact(final.process_id)
        pool.archive(final.process_id)
        with pytest.raises(StorageError, match="delta mode"):
            pool.retire(final.process_id)
        with pytest.raises(StorageError, match="delta mode"):
            pool.gc()

    def test_region_data_bytes_shrink_after_lifecycle(self, pool, stored):
        process_id, _ = stored
        hb = pool.hbase

        def data_bytes() -> int:
            return sum(region.data_bytes
                       for server in hb.servers.values()
                       for region in server.regions)

        before = data_bytes()
        pool.archive(process_id)
        pool.retire(process_id)
        pool.gc()
        after = data_bytes()
        assert after < before
        # Only the metadata markers of the registered id remain in the
        # document table; chunk and manifest tables are empty.
        (row_key, row), = hb.scan(DOC_TABLE)
        assert row_key == process_id
        assert all(family == "meta" for (family, _) in row)
