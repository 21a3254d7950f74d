"""The chunk store: one shard's plain reads, factor-R placement of each
instance's chunk row over more shards, read-repair, corruption."""

from __future__ import annotations

import hashlib

import pytest

from repro.cloud.hbase import CerChunkStore, SimHBase
from repro.cloud.pool import DocumentPool
from repro.errors import CloudError, DeltaMismatch, StorageError

from .census import take_census

PID = "proc-a"


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
    """One shard is the plain store: one table, one column-restricted
    get per read, and nothing to repair a single copy from."""

    def test_hbase_calls(self):
        hbase = SimHBase(region_servers=3)
        tables = set(hbase._tables)
        store = CerChunkStore(hbase)
        assert set(hbase._tables) - tables == {CerChunkStore.TABLE}
        counter = CallCounter(hbase)
        chunks = dict(chunk(f"one shard {i}") for i in range(12))
        store.put_chunks(PID, chunks)
        store.put_chunks(PID, chunks, held=set(chunks))
        assert counter.calls == {"put": 12}
        for wanted in (list(chunks)[:1], list(chunks), 3 * list(chunks)):
            before = counter.calls.get("get", 0)
            assert store.get_chunks(PID, wanted) == {d: chunks[d]
                                                     for d in wanted}
            assert counter.calls["get"] == before + 1
        assert "get_rows" not in counter.calls

    def test_read_is_charged_for_the_cells_it_returns(self):
        """A column-restricted get moves the named cells, not the row."""
        hbase = SimHBase(region_servers=1)
        store = CerChunkStore(hbase)
        chunks = dict(chunk(f"{i}" * 4000) for i in range(8))
        store.put_chunks(PID, chunks)
        one = list(chunks)[:1]
        start = hbase.clock.now()
        store.get_chunks(PID, one)
        narrow = hbase.clock.now() - start
        start = hbase.clock.now()
        store.get_chunks(PID, list(chunks))
        wide = hbase.clock.now() - start
        assert narrow < wide
        assert narrow == pytest.approx(hbase.network.rpc_seconds(
            len(PID) + len("c") + 64, 4000))

    def test_corrupt_copy_comes_back_as_stored(self, fig9a_trace):
        pool = DocumentPool(SimHBase(region_servers=2), delta=True)
        final = fig9a_trace.final_document
        pid = final.process_id
        pool.register_process(pid)
        pool.store(final)
        victim = pool.latest_manifest(pid).chunks[0].digest
        pool.hbase.put(CerChunkStore.TABLE, pid, "c", victim, b"rot")
        counter = CallCounter(pool.hbase)
        assert pool.chunks.get_chunks(pid, [victim]) == {victim: b"rot"}
        assert counter.calls == {"get": 1}
        with pytest.raises(DeltaMismatch):
            pool.latest_bytes(pid)


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
        assert store.put_chunks(PID, {digest: data}) == 1
        shards = store.replica_shards(PID)
        assert len(shards) == len(set(shards)) == 2
        for shard_id in store.shard_ids:
            row = hbase.get(store._table(shard_id), PID)
            assert row == ({("c", digest): data} if shard_id in shards
                           else {})

    def test_duplicate_put_is_dedup_hit(self, store):
        digest, data = chunk("same bytes twice")
        assert store.put_chunks(PID, {digest: data}) == 1
        assert store.put_chunks(PID, {digest: data}, held={digest}) == 0
        assert store.stats["dedup_hits"] == 1
        assert store.stats["unique_chunks"] == 1
        assert store.stats["logical_bytes"] == 2 * len(data)
        assert store.dedup_ratio == pytest.approx(2.0)

    def test_put_chunks_counts_new(self, store):
        chunks = dict(chunk(f"c{i}") for i in range(5))
        assert store.put_chunks(PID, chunks) == 5
        assert store.put_chunks(PID, chunks, held=set(chunks)) == 0
        # Another instance holding the same bytes stores its own copy.
        assert store.put_chunks("proc-b", chunks) == 5
        assert store.stats["unique_chunks"] == 10


class TestReads:
    def test_round_trip(self, store):
        chunks = dict(chunk(f"payload {i}") for i in range(20))
        store.put_chunks(PID, chunks)
        assert store.get_chunks(PID, list(chunks)) == chunks
        assert store.stats["replica_fallbacks"] == 0

    def test_missing_digest_absent_from_result(self, store):
        digest, data = chunk("present")
        store.put_chunks(PID, {digest: data})
        ghost, _ = chunk("never stored")
        out = store.get_chunks(PID, [digest, ghost])
        assert digest in out and ghost not in out
        # Reads stay inside the instance's row.
        assert store.get_chunks("proc-b", [digest]) == {}


class TestReadRepair:
    def test_lost_primary_heals_from_replica(self, store, hbase):
        digest, data = chunk("repair me")
        store.put_chunks(PID, {digest: data})
        damaged = store.damage_replica(PID, digest, shard_index=0)
        assert store.get_chunks(PID, [digest]) == {digest: data}
        assert store.stats["replica_fallbacks"] == 1
        assert store.stats["read_repairs"] == 1
        # The healed copy is durable: the damaged shard holds it again.
        row = hbase.get(store._table(damaged), PID)
        assert row[("c", digest)] == data

    def test_corrupt_primary_detected_and_healed(self, store):
        digest, data = chunk("bit rot victim")
        store.put_chunks(PID, {digest: data})
        store.damage_replica(PID, digest, shard_index=0, corrupt=True)
        assert store.get_chunks(PID, [digest]) == {digest: data}
        assert store.stats["corrupt_replicas"] == 1
        assert store.stats["read_repairs"] == 1
        # Second read is clean — no further fallbacks needed.
        before = store.stats["replica_fallbacks"]
        assert store.get_chunks(PID, [digest]) == {digest: data}
        assert store.stats["replica_fallbacks"] == before

    @pytest.mark.parametrize("corrupt", [False, True],
                             ids=["lost", "corrupt"])
    def test_each_replica_read_once(self, store, hbase, corrupt):
        # The batched read already saw the primary; repair reads only
        # the replica after it, yet still heals the primary.
        digest, data = chunk("read me once")
        store.put_chunks(PID, {digest: data})
        store.damage_replica(PID, digest, shard_index=0, corrupt=corrupt)
        gets = hbase.stats["gets"]
        assert store.get_chunks(PID, [digest]) == {digest: data}
        assert hbase.stats["gets"] - gets == 2
        assert store.stats["corrupt_replicas"] == int(corrupt)
        assert store.stats["read_repairs"] == 1

    def test_all_replicas_lost_is_a_miss(self, store):
        digest, data = chunk("gone forever")
        store.put_chunks(PID, {digest: data})
        store.damage_replica(PID, digest, shard_index=0)
        store.damage_replica(PID, digest, shard_index=1)
        assert store.get_chunks(PID, [digest]) == {}

    def test_all_replicas_corrupt_never_served(self, store):
        digest, data = chunk("fully rotten")
        store.put_chunks(PID, {digest: data})
        store.damage_replica(PID, digest, shard_index=0, corrupt=True)
        store.damage_replica(PID, digest, shard_index=1, corrupt=True)
        assert store.get_chunks(PID, [digest]) == {}

    def test_damage_index_out_of_range(self, store):
        digest, data = chunk("x")
        store.put_chunks(PID, {digest: data})
        with pytest.raises(CloudError):
            store.damage_replica(PID, digest, shard_index=5)

    def test_repaired_pool_passes_the_census(self, fig9a_trace):
        """A lost copy and a corrupt copy of a stored instance's chunks
        are healed by the pool's next read of them."""
        hbase = SimHBase(region_servers=3)
        pool = DocumentPool(hbase, delta=True, chunk_replicas=2)
        final = fig9a_trace.final_document
        pid = final.process_id
        pool.register_process(pid)
        pool.store(final)
        first, second = pool.latest_manifest(pid).chunk_digests[:2]
        pool.chunks.damage_replica(pid, first, shard_index=0)
        pool.chunks.damage_replica(pid, second, shard_index=0,
                                   corrupt=True)
        with pytest.raises(AssertionError):
            take_census(hbase, replicas=2)
        assert pool.latest_bytes(pid) == final.to_bytes()
        assert pool.chunks.stats["read_repairs"] == 2
        take_census(hbase, replicas=2)


class TestPlacementProperties:
    def test_replica_shards_deterministic(self, hbase):
        a = CerChunkStore(hbase, shards=3, replicas=2)
        cluster_b = SimHBase(region_servers=3)
        b = CerChunkStore(cluster_b, shards=3, replicas=2)
        for i in range(100):
            assert a.replica_shards(f"p{i}") == b.replica_shards(f"p{i}")

    def test_shards_share_the_load(self, store):
        chunks = dict(chunk(f"spread {i}") for i in range(30))
        for i in range(30):
            store.put_chunks(f"proc-{i}", chunks)
        per_shard = {
            shard_id: sum(
                region.row_count for region in
                store.hbase.regions_of(store._table(shard_id))
            )
            for shard_id in store.shard_ids
        }
        assert all(count > 0 for count in per_shard.values())
        # Factor-2 replication stores 60 instance rows over 3 shards.
        assert sum(per_shard.values()) == 2 * 30
        assert store.stats["unique_chunks"] == 30 * len(chunks)
