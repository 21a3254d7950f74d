"""The chunk store: one shard's plain reads, factor-R placement over
more shards, read-repair, corruption."""

from __future__ import annotations

import hashlib

import pytest

from repro.cloud.hbase import CerChunkStore, SimHBase
from repro.cloud.pool import DocumentPool
from repro.errors import CloudError, DeltaMismatch, StorageError


def chunk(text: str) -> tuple[str, bytes]:
    data = text.encode("utf-8")
    return hashlib.sha256(data).hexdigest(), data


@pytest.fixture()
def hbase():
    return SimHBase(region_servers=3)


@pytest.fixture()
def store(hbase):
    return CerChunkStore(hbase, shards=3, replicas=2)


class CallCounter:
    """Counts the data-path calls a chunk store makes on its cluster."""

    def __init__(self, hbase: SimHBase) -> None:
        self.calls: dict[str, int] = {}
        for name in ("put", "get", "get_rows"):
            method = getattr(hbase, name)
            setattr(hbase, name, self._counting(name, method))

    def _counting(self, name, method):
        def call(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            return method(*args, **kwargs)
        return call


class TestOneShard:
    """One shard is the plain store: one table, batched reads, no
    per-chunk gets, and nothing to repair a single copy from."""

    def test_hbase_calls(self):
        hbase = SimHBase(region_servers=3)
        tables = set(hbase._tables)
        store = CerChunkStore(hbase)
        assert set(hbase._tables) - tables == {CerChunkStore.TABLE}
        counter = CallCounter(hbase)
        chunks = dict(chunk(f"one shard {i}") for i in range(12))
        store.put_chunks(chunks)
        store.put_chunks(chunks)
        assert counter.calls == {"put": 12}
        for wanted in (list(chunks)[:1], list(chunks), 3 * list(chunks)):
            before = counter.calls.get("get_rows", 0)
            assert store.get_chunks(wanted) == {d: chunks[d]
                                                for d in wanted}
            assert counter.calls["get_rows"] == before + 1
        assert "get" not in counter.calls

    def test_corrupt_copy_comes_back_as_stored(self, fig9a_trace):
        pool = DocumentPool(SimHBase(region_servers=2), delta=True)
        final = fig9a_trace.final_document
        pool.register_process(final.process_id)
        pool.store(final)
        victim = pool.latest_manifest(final.process_id).chunks[0].digest
        pool.hbase.put(CerChunkStore.TABLE, victim, "c", "b", b"rot")
        counter = CallCounter(pool.hbase)
        assert pool.chunks.get_chunks([victim]) == {victim: b"rot"}
        assert counter.calls == {"get_rows": 1}
        with pytest.raises(DeltaMismatch):
            pool.latest_bytes(final.process_id)


class TestValidation:
    def test_bad_replica_counts(self, hbase):
        with pytest.raises(StorageError):
            CerChunkStore(hbase, shards=2, replicas=0)
        with pytest.raises(StorageError):
            CerChunkStore(hbase, shards=2, replicas=True)
        with pytest.raises(StorageError):
            CerChunkStore(hbase, shards=2, replicas="2")

    def test_replicas_beyond_shards(self, hbase):
        with pytest.raises(StorageError, match="replicas on"):
            CerChunkStore(hbase, shards=2, replicas=3)

    def test_no_shards(self, hbase):
        with pytest.raises(StorageError):
            CerChunkStore(hbase, shards=0)


class TestWrites:
    def test_put_lands_on_r_distinct_shards(self, store, hbase):
        digest, data = chunk("hello sharded world")
        assert store.put_chunk(digest, data)
        shards = store.replica_shards(digest)
        assert len(shards) == len(set(shards)) == 2
        for shard_id in shards:
            row = hbase.get(store._table(shard_id), digest)
            assert row[("c", "b")] == data

    def test_duplicate_put_is_dedup_hit(self, store):
        digest, data = chunk("same bytes twice")
        assert store.put_chunk(digest, data)
        assert not store.put_chunk(digest, data)
        assert store.stats["dedup_hits"] == 1
        assert store.stats["unique_chunks"] == 1
        assert store.stats["logical_bytes"] == 2 * len(data)
        assert store.dedup_ratio == pytest.approx(2.0)

    def test_put_chunks_counts_new(self, store):
        chunks = dict(chunk(f"c{i}") for i in range(5))
        assert store.put_chunks(chunks) == 5
        assert store.put_chunks(chunks) == 0


class TestReads:
    def test_round_trip(self, store):
        chunks = dict(chunk(f"payload {i}") for i in range(20))
        store.put_chunks(chunks)
        assert store.get_chunks(list(chunks)) == chunks
        assert store.stats["replica_fallbacks"] == 0

    def test_missing_digest_absent_from_result(self, store):
        digest, data = chunk("present")
        store.put_chunk(digest, data)
        ghost, _ = chunk("never stored")
        out = store.get_chunks([digest, ghost])
        assert digest in out and ghost not in out


class TestReadRepair:
    def test_lost_primary_heals_from_replica(self, store, hbase):
        digest, data = chunk("repair me")
        store.put_chunk(digest, data)
        damaged = store.damage_replica(digest, shard_index=0)
        assert store.get_chunks([digest]) == {digest: data}
        assert store.stats["replica_fallbacks"] == 1
        assert store.stats["read_repairs"] == 1
        # The healed copy is durable: the damaged shard holds it again.
        row = hbase.get(store._table(damaged), digest)
        assert row[("c", "b")] == data

    def test_corrupt_primary_detected_and_healed(self, store):
        digest, data = chunk("bit rot victim")
        store.put_chunk(digest, data)
        store.damage_replica(digest, shard_index=0, corrupt=True)
        assert store.get_chunks([digest]) == {digest: data}
        assert store.stats["corrupt_replicas"] == 1
        assert store.stats["read_repairs"] == 1
        # Second read is clean — no further fallbacks needed.
        before = store.stats["replica_fallbacks"]
        assert store.get_chunks([digest]) == {digest: data}
        assert store.stats["replica_fallbacks"] == before

    @pytest.mark.parametrize("corrupt", [False, True],
                             ids=["lost", "corrupt"])
    def test_each_replica_read_once(self, store, hbase, corrupt):
        # The batched read already saw the primary; repair reads only
        # the replica after it, yet still heals the primary.
        digest, data = chunk("read me once")
        store.put_chunk(digest, data)
        store.damage_replica(digest, shard_index=0, corrupt=corrupt)
        gets = hbase.stats["gets"]
        assert store.get_chunks([digest]) == {digest: data}
        assert hbase.stats["gets"] - gets == 2
        assert store.stats["corrupt_replicas"] == int(corrupt)
        assert store.stats["read_repairs"] == 1

    def test_all_replicas_lost_is_a_miss(self, store):
        digest, data = chunk("gone forever")
        store.put_chunk(digest, data)
        store.damage_replica(digest, shard_index=0)
        store.damage_replica(digest, shard_index=1)
        assert store.get_chunks([digest]) == {}

    def test_all_replicas_corrupt_never_served(self, store):
        digest, data = chunk("fully rotten")
        store.put_chunk(digest, data)
        store.damage_replica(digest, shard_index=0, corrupt=True)
        store.damage_replica(digest, shard_index=1, corrupt=True)
        assert store.get_chunks([digest]) == {}

    def test_damage_index_out_of_range(self, store):
        digest, data = chunk("x")
        store.put_chunk(digest, data)
        with pytest.raises(CloudError):
            store.damage_replica(digest, shard_index=5)


class TestPlacementProperties:
    def test_replica_shards_deterministic(self, hbase):
        a = CerChunkStore(hbase, shards=3, replicas=2)
        cluster_b = SimHBase(region_servers=3)
        b = CerChunkStore(cluster_b, shards=3, replicas=2)
        for i in range(100):
            digest, _ = chunk(f"d{i}")
            assert a.replica_shards(digest) == b.replica_shards(digest)

    def test_shards_share_the_load(self, store):
        chunks = dict(chunk(f"spread {i}") for i in range(300))
        store.put_chunks(chunks)
        per_shard = {
            shard_id: sum(
                region.row_count for region in
                store.hbase.regions_of(store._table(shard_id))
            )
            for shard_id in store.shard_ids
        }
        assert all(count > 0 for count in per_shard.values())
        # Factor-2 replication stores 600 physical rows over 3 shards.
        assert sum(per_shard.values()) == 2 * len(chunks)
