"""Chunk-store lifecycle: collection, compaction, retirement, restarts.

Hot storage must stay O(live instances).  Each instance's chunks live
in its own row of the chunk table.  A store writes the chunks its
instance's latest manifest does not name yet; compaction deletes the
chunk cells that only dropped manifests name; retirement and purge
delete the instance's chunk row, from every replica shard.  All of it
follows from the durable manifests, so a pool rebuilt over the same
HBase does exactly what the original would.  The guard property: a
chunk a live manifest names is never deleted — the census, taken
straight from HBase, checks it at the end of each pool test.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.cloud import CloudSystem, run_process_in_cloud
from repro.cloud.hbase import CerChunkStore, SimHBase
from repro.cloud.pool import DOC_TABLE, DocumentPool
from repro.document import build_initial_document
from repro.document.delta import chunk_document
from repro.errors import ReplayDetected, StorageError
from repro.workloads import build_world
from repro.workloads.generator import (
    auto_responders,
    chain_definition,
    participant_pool,
)

from .census import take_census

PID = "proc-a"


def _chunks(*payloads: bytes) -> dict[str, bytes]:
    return {hashlib.sha256(p).hexdigest(): p for p in payloads}


def _chunk_cells(store: CerChunkStore, process_id: str = PID,
                 shard_id: str | None = None):
    """The chunk cells of one instance's row, straight from HBase."""
    table = store._table(shard_id or store.shard_ids[0])
    return {qualifier: value for (_, qualifier), value
            in store.hbase.get(table, process_id).items()}


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


def rows_and_cells(hbase: SimHBase) -> dict[str, dict[str, dict]]:
    """Every table's rows and cell values (timestamps aside)."""
    return {
        table: {row_key: {cq: cell.value for cq, cell in row.items()}
                for region in hbase.regions_of(table)
                for row_key, row in region.rows.items()}
        for table in sorted(hbase._tables)
    }


# -- collection on the base store ---------------------------------------------


class TestRefcountedGc:
    """A chunk cell is collected once no kept manifest of its instance
    names it; the store counts what its tables hold."""

    @pytest.fixture()
    def store(self):
        return CerChunkStore(SimHBase(region_servers=2))

    def test_gc_spares_pinned_chunks(self, store):
        """The guard property: deleting the chunks a dropped manifest
        alone names leaves every other cell of the row in place."""
        pinned = _chunks(b"live chunk")
        dead = _chunks(b"dead chunk")
        store.put_chunks(PID, {**pinned, **dead})
        store.delete_chunks(PID, sorted(dead))
        (live,) = pinned
        assert store.get_chunks(PID, [live]) == pinned
        assert store.get_chunks(PID, sorted(dead)) == {}
        assert _chunk_cells(store) == pinned

    def test_gc_keeps_known_stats_and_hbase_consistent(self, store):
        chunks = _chunks(b"x" * 10, b"y" * 20, b"z" * 30)
        store.put_chunks(PID, chunks)
        survivor = max(chunks)
        store.delete_chunks(PID, [d for d in chunks if d != survivor])
        # The stats and the durable cells agree.
        assert store.stats["unique_chunks"] == 1
        assert store.stats["unique_bytes"] == len(chunks[survivor])
        assert _chunk_cells(store) == {survivor: chunks[survivor]}

    def test_reput_after_gc_is_a_fresh_write(self, store):
        chunks = _chunks(b"come and go")
        store.put_chunks(PID, chunks)
        store.delete_chunks(PID)
        hits_before = store.stats["dedup_hits"]
        assert store.put_chunks(PID, chunks) == 1
        assert store.stats["dedup_hits"] == hits_before
        assert store.stats["unique_chunks"] == 1

    def test_gc_lifecycle_counters(self, store):
        """The deletions show in the held-chunk counters, which is how a
        fleet's lifecycle sweep counts what it deleted."""
        chunks = _chunks(b"one", b"two")
        store.put_chunks(PID, chunks)
        store.put_chunks("proc-b", _chunks(b"three"))
        before = store.stats
        store.delete_chunks(PID)
        store.delete_chunks(PID)  # a second pass finds nothing
        after = store.stats
        assert before["unique_chunks"] - after["unique_chunks"] == 2
        assert before["unique_bytes"] - after["unique_bytes"] \
            == len(b"one") + len(b"two")
        assert after["unique_chunks"] == 1


class TestReplicatedGc:
    def test_gc_deletes_every_replica_row(self):
        store = CerChunkStore(SimHBase(region_servers=3),
                              shards=3, replicas=2)
        chunks = _chunks(b"replicated payload")
        store.put_chunks(PID, chunks)
        (digest,) = chunks
        shards = store.replica_shards(PID)
        assert len(shards) == 2
        for shard_id in shards:
            assert _chunk_cells(store, shard_id=shard_id) == chunks
        store.delete_chunks(PID)
        for shard_id in store.shard_ids:
            assert _chunk_cells(store, shard_id=shard_id) == {}
        assert store.stats["unique_chunks"] == 0

    def test_gc_spares_pinned_replicated_chunks(self):
        store = CerChunkStore(SimHBase(region_servers=2),
                              shards=2, replicas=2)
        chunks = _chunks(b"pinned", b"collectable")
        store.put_chunks(PID, chunks)
        pinned = min(chunks)
        store.delete_chunks(PID, [max(chunks)])
        for shard_id in store.shard_ids:
            assert _chunk_cells(store, shard_id=shard_id) \
                == {pinned: chunks[pinned]}
        assert store.get_chunks(PID, [pinned]) == {pinned: chunks[pinned]}


# -- stats invariants ----------------------------------------------------------


class TestStatsInvariants:
    @pytest.mark.parametrize("make_store", [
        lambda: CerChunkStore(SimHBase(region_servers=2)),
        lambda: CerChunkStore(SimHBase(region_servers=2),
                              shards=2, replicas=2),
    ], ids=["base", "replicated"])
    def test_dedup_ratio_on_empty_store(self, make_store):
        assert make_store().dedup_ratio == 1.0

    def test_repeated_digests_across_put_calls(self):
        """Digests the instance already holds are dedup hits, never
        written or counted twice."""
        store = CerChunkStore(SimHBase(region_servers=2))
        chunks = _chunks(b"payload-a", b"payload-b")
        assert store.put_chunks(PID, chunks) == 2
        assert store.put_chunks(PID, chunks, held=set(chunks)) == 0
        assert store.stats["dedup_hits"] == 2
        assert store.stats["unique_chunks"] == 2
        total = sum(len(p) for p in chunks.values())
        assert store.stats["unique_bytes"] == total
        assert store.stats["logical_bytes"] == 2 * total
        assert store.dedup_ratio == 2.0

    def test_known_matches_hbase_after_deletes(self):
        store = CerChunkStore(SimHBase(region_servers=2))
        chunks = _chunks(*[f"chunk {i}".encode() for i in range(6)])
        store.put_chunks(PID, chunks)
        keep = sorted(chunks)[:2]
        store.delete_chunks(PID, sorted(chunks)[2:])
        cells = _chunk_cells(store)
        for digest in chunks:
            assert (digest in cells) == (digest in keep)
        assert store.stats["unique_chunks"] == len(keep)


# -- pool lifecycle: store, compact, retire ------------------------------------


class TestPoolLifecycle:
    @pytest.fixture()
    def pool(self):
        pool = DocumentPool(SimHBase(region_servers=2), delta=True)
        yield pool
        take_census(pool.hbase)

    @pytest.fixture()
    def stored(self, pool, fig9a_trace):
        versions = monotonic_versions(fig9a_trace)
        assert len(versions) >= 3
        process_id = versions[0].process_id
        pool.register_process(process_id)
        for document in versions:
            pool.store(document)
        return process_id, versions

    def test_store_pins_manifest_chunks(self, pool, fig9a_trace):
        """Every version's chunks are in the instance's row, and each
        store wrote only the chunks the latest manifest did not name."""
        versions = monotonic_versions(fig9a_trace)
        process_id = versions[0].process_id
        pool.register_process(process_id)
        writes = []
        put = pool.hbase.put

        def counted(table, row_key, family, qualifier, value):
            if table == CerChunkStore.TABLE:
                writes.append(qualifier)
            return put(table, row_key, family, qualifier, value)

        pool.hbase.put = counted
        named: set[str] = set()
        for document in versions:
            manifest, _ = chunk_document(document)
            before = len(writes)
            pool.store(document)
            assert set(writes[before:]) == set(manifest.chunk_digests) \
                - named
            named = set(manifest.chunk_digests)
        cells = _chunk_cells(pool.chunks, process_id)
        for document in versions:
            manifest, _ = chunk_document(document)
            assert set(manifest.chunk_digests) <= set(cells)

    def test_gc_cannot_touch_live_instance(self, pool, stored):
        """Compacting a live instance keeps every chunk its latest
        manifest names."""
        process_id, versions = stored
        final = pool.latest_manifest(process_id)
        pool.compact(process_id)
        cells = _chunk_cells(pool.chunks, process_id)
        assert set(final.chunk_digests) == set(cells)
        assert pool.latest_bytes(process_id) == versions[-1].to_bytes()

    def test_compact_collapses_history(self, pool, stored):
        process_id, versions = stored
        removed = pool.compact(process_id)
        assert removed == len(versions) - 1
        history = pool.history(process_id)
        assert len(history) == 1
        assert history[0].to_bytes() == versions[-1].to_bytes()
        assert pool.latest_bytes(process_id) == versions[-1].to_bytes()
        # A retrieve that names a dropped version gets the latest in full.
        early, _ = chunk_document(versions[0])
        latest, held = pool.delta_manifests(process_id, early.doc_digest)
        assert held is None
        assert latest == pool.latest_manifest(process_id)

    def test_compact_is_idempotent(self, pool, stored):
        process_id, _ = stored
        assert pool.compact(process_id) > 0
        assert pool.compact(process_id) == 0

    def test_compact_then_gc_keeps_document_readable(self, pool, stored):
        """Compaction deletes exactly the chunks only dropped manifests
        name, and reads stay byte-identical."""
        process_id, versions = stored
        final, _ = chunk_document(versions[-1])
        stale_only = {chunk.digest: chunk.length
                      for document in versions[:-1]
                      for chunk in chunk_document(document)[0].chunks
                      if chunk.digest not in set(final.chunk_digests)}
        before = pool.chunks.stats["unique_bytes"]
        pool.compact(process_id)
        assert pool.chunks.stats["unique_bytes"] \
            == before - sum(stale_only.values())
        assert not set(stale_only) & set(_chunk_cells(pool.chunks,
                                                      process_id))
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
        assert pool.chunks.stats["unique_chunks"] == 0
        assert pool.chunks.stats["unique_bytes"] == 0
        assert pool.hbase.scan(CerChunkStore.TABLE) == []
        with pytest.raises(StorageError):
            pool.latest_bytes(process_id)
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
        cells_b = _chunk_cells(pool.chunks, pid_b)
        pool.archive(pid_a)
        pool.compact(pid_a)
        pool.retire(pid_a)
        assert pool.latest_bytes(pid_b) == versions_b[-1].to_bytes()
        assert _chunk_cells(pool.chunks, pid_b) == cells_b
        assert take_census(pool.hbase).instances == 1

    def test_purge_releases_chunk_refs(self, pool, stored):
        process_id, _ = stored
        pool.purge(process_id)
        assert pool.chunks.stats["unique_chunks"] == 0
        assert _chunk_cells(pool.chunks, process_id) == {}

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
        after = data_bytes()
        assert after < before
        # Only the metadata markers of the registered id remain in the
        # document table; the chunk table is empty.
        (row_key, row), = hb.scan(DOC_TABLE)
        assert row_key == process_id
        assert all(family == "meta" for (family, _) in row)
        assert take_census(hb).bytes == 0

    def test_versions_after_compaction_are_numbered_past_it(
            self, pool, stored):
        """Compaction keeps the final version's ``hist`` qualifier; the
        next version is numbered past it instead of overwriting it."""
        process_id, versions = stored
        pool.compact(process_id)
        (kept,) = [q for (f, q) in pool.hbase.get(DOC_TABLE, process_id)
                   if f == "hist"]
        assert int(kept) == len(versions) - 1
        merged = versions[-1].clone()
        merged.header.set("Note", "after compaction")
        assert pool.store(merged) == len(versions)
        assert [d.to_bytes() for d in pool.history(process_id)] \
            == [versions[-1].to_bytes(), merged.to_bytes()]


# -- a pool rebuilt over the same HBase ------------------------------------------


DESIGNER = "designer@enterprise.example"
TFC = "tfc@cloud.example"


@pytest.fixture(scope="module")
def chain_world(backend):
    participants = participant_pool(3)
    definition = chain_definition(6, participants, designer=DESIGNER)
    world = build_world([DESIGNER, *participants, TFC], bits=1024,
                        backend=backend)
    return world, definition


def finished_chain(chain_world, backend, replicas):
    """A delta cloud that ran one ``chain:6:3`` instance to the end."""
    world, definition = chain_world
    system = CloudSystem(world.directory, world.keypair(TFC),
                         backend=backend, delta_routing=True,
                         chunk_replicas=replicas)
    initial = build_initial_document(definition, world.keypair(DESIGNER),
                                     backend=backend, created_at=0.0)
    run_process_in_cloud(system, definition, initial,
                         world.keypair(DESIGNER), world.keypairs,
                         auto_responders(definition))
    return system, initial.process_id


def copy_cells(hbase: SimHBase) -> SimHBase:
    """A cluster holding the same rows and cells, written afresh."""
    twin = SimHBase(region_servers=len(hbase.servers))
    for table, rows in rows_and_cells(hbase).items():
        twin.create_table(table)
        for row_key, cells in sorted(rows.items()):
            for (family, qualifier), value in sorted(cells.items()):
                twin.put(table, row_key, family, qualifier, value)
    return twin


def _finish(pool: DocumentPool, process_id: str) -> None:
    pool.compact(process_id)
    pool.archive(process_id)
    pool.retire(process_id)
    pool.flush_hot_tables()


class TestRebuiltPool:
    """A restarted pool knows nothing its HBase does not hold, and
    retires a finished instance all the same."""

    @pytest.mark.parametrize("kill", [False, True],
                             ids=["running", "after-kill"])
    @pytest.mark.parametrize("replicas", [None, 2], ids=["R1", "R2"])
    def test_rebuilt_pool_leaves_what_the_original_would(
            self, chain_world, backend, replicas, kill):
        system, process_id = finished_chain(chain_world, backend, replicas)
        twin = copy_cells(system.hbase)
        if kill:
            twin.kill_server("rs0")
        rebuilt = DocumentPool(twin, delta=True, chunk_replicas=replicas)
        assert rebuilt.latest_bytes(process_id) \
            == system.pool.latest_bytes(process_id)
        _finish(system.pool, process_id)
        _finish(rebuilt, process_id)
        assert rows_and_cells(twin) == rows_and_cells(system.hbase)
        assert take_census(twin, replicas or 1).bytes == 0
