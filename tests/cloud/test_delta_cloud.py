"""Delta transfers through the cloud stack: pool, portal, client.

The cloud side of delta routing stores manifests plus each instance's
content-addressed chunks and serves one-round-trip delta retrieves.  Everything here
checks the two invariants the design hangs on: reassembled bytes are
exactly the bytes full-mode storage would serve, and every failure mode
(missing chunk, over-assumed cache, rollback) either falls back to a
full transfer or raises — never silently corrupts.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cloud import CloudSystem, run_process_in_cloud
from repro.cloud.hbase import CerChunkStore, SimHBase
from repro.cloud.pool import DOC_TABLE, DocumentPool
from repro.document import build_initial_document, verify_document
from repro.document.delta import DeltaDocument, Manifest, chunk_document
from repro.document.document import grows_by_append
from repro.errors import (
    DeltaError,
    DeltaFallbackRequired,
    PortalError,
    TamperDetected,
)
from repro.workloads.figure9 import DESIGNER, PARTICIPANTS, figure9_responders

TFC = "tfc@cloud.example"


@pytest.fixture()
def delta_system(world, backend):
    return CloudSystem(world.directory, world.keypair(TFC), portals=2,
                       backend=backend, delta_routing=True)


@pytest.fixture()
def full_system(world, backend):
    return CloudSystem(world.directory, world.keypair(TFC), portals=2,
                       backend=backend)


@pytest.fixture()
def initial(world, fig9b, backend):
    return build_initial_document(fig9b, world.keypair(DESIGNER),
                                  backend=backend)


# -- pool --------------------------------------------------------------------


class TestDeltaPool:
    @pytest.fixture()
    def pool(self):
        return DocumentPool(SimHBase(region_servers=2), delta=True)

    def test_round_trips_byte_identical(self, pool, fig9a_trace):
        early = fig9a_trace.steps[0].document
        final = fig9a_trace.final_document
        pool.register_process(final.process_id)
        assert pool.store(early) == 0
        assert pool.store(final) == 1
        assert pool.latest_bytes(final.process_id) == final.to_bytes()
        history = pool.history(final.process_id)
        assert [d.to_bytes() for d in history] == \
            [early.to_bytes(), final.to_bytes()]

    def test_versions_share_chunks(self, pool, fig9a_trace):
        # Parallel-branch snapshots are not mutually monotonic (each
        # branch lacks the sibling's CER until the join), so store the
        # growing subsequence a single submitting client would produce.
        documents = [s.document for s in fig9a_trace.steps]
        pool.register_process(documents[0].process_id)
        stored_cers: set[str] = set()
        stored = 0
        for document in documents:
            manifest, _ = chunk_document(document)
            if stored_cers <= set(manifest.cer_digests):
                pool.store(document)
                stored_cers = set(manifest.cer_digests)
                stored += 1
        assert stored >= 3
        stats = pool.chunks.stats
        assert stats["dedup_hits"] > 0
        # Shared CERs are stored once: unique storage is well under the
        # sum of all version sizes.
        assert stats["unique_bytes"] < stats["logical_bytes"] / 2

    def test_rollback_rejected(self, pool, fig9a_trace):
        early = fig9a_trace.steps[0].document
        final = fig9a_trace.final_document
        pool.register_process(final.process_id)
        pool.store(final)
        with pytest.raises(TamperDetected, match="rollback"):
            pool.store(early)

    def test_manifest_lookup_by_digest(self, pool, fig9a_trace):
        """A held version is found by its document digest among the
        instance's own stored versions, and only there."""
        early = fig9a_trace.steps[0].document
        final = fig9a_trace.final_document
        pid = final.process_id
        pool.register_process(pid)
        pool.store(early)
        pool.store(final)
        manifest = pool.latest_manifest(pid)
        held, _ = chunk_document(early)
        assert pool.delta_manifests(pid) == (manifest, None)
        assert pool.delta_manifests(pid, manifest.doc_digest) \
            == (manifest, manifest)
        assert pool.delta_manifests(pid, held.doc_digest) == (manifest, held)
        assert pool.delta_manifests(pid, "0" * 64) == (manifest, None)
        # A digest crafted to match more than the key is not a match.
        crafted = held.doc_digest + '","format":"dra4wfms-manifest/1'
        assert pool.delta_manifests(pid, crafted) == (manifest, None)
        other = final.clone()
        other.header.set("ProcessId", "another-instance")
        pool.register_process("another-instance")
        pool.store(other)
        assert pool.delta_manifests("another-instance",
                                    held.doc_digest)[1] is None

    def test_manifest_cells_decode_once(self, pool, fig9a_trace,
                                        monkeypatch):
        decodes = []
        from_bytes = Manifest.from_bytes.__func__

        def counted(cls, data):
            decodes.append(data)
            return from_bytes(cls, data)

        monkeypatch.setattr(Manifest, "from_bytes", classmethod(counted))
        final = fig9a_trace.final_document
        pool.register_process(final.process_id)
        pool.store(final)
        manifest = pool.latest_manifest(final.process_id)
        assert pool.delta_manifests(final.process_id,
                                    manifest.doc_digest)[1] == manifest
        assert pool.latest_bytes(final.process_id) == final.to_bytes()
        # The pool stored these cells itself: no read decodes them.
        assert decodes == []
        # A pool that did not store them decodes the cell once.
        other = DocumentPool(pool.hbase, delta=True)
        for _ in range(3):
            assert other.latest_manifest(final.process_id) == manifest
        assert other.delta_manifests(final.process_id,
                                     manifest.doc_digest)[1] == manifest
        assert len(decodes) == 1
        # A cell whose bytes differ is decoded afresh.
        pool.hbase.put(DOC_TABLE, final.process_id, "doc", "manifest",
                       manifest.to_bytes().replace(b",", b", "))
        assert other.latest_manifest(final.process_id) == manifest
        assert len(decodes) == 2

    def test_lost_chunk_raises_not_corrupts(self, pool, fig9a_trace):
        final = fig9a_trace.final_document
        pool.register_process(final.process_id)
        pool.store(final)
        victim = pool.latest_manifest(final.process_id).chunks[0]
        pool.hbase.delete_cells(CerChunkStore.TABLE, final.process_id,
                                [("c", victim.digest)])
        with pytest.raises(DeltaError, match="missing"):
            pool.latest_bytes(final.process_id)

    def test_summarize_sees_full_size(self, pool, fig9a_trace):
        final = fig9a_trace.final_document
        pool.register_process(final.process_id)
        pool.store(final)
        summary = pool.summarize(final.process_id)
        assert summary.size_bytes == final.size_bytes
        assert summary.versions == 1


# -- portal + client protocol ------------------------------------------------


class TestDeltaProtocol:
    def _execute(self, system, world, backend, client, data, activity_id,
                 response):
        return client.agent.execute_activity(
            data, activity_id, response, mode="advanced",
            tfc_identity=system.tfc.identity,
            tfc_public_key=system.tfc.public_key,
        )

    def test_revisit_retrieve_is_a_delta(self, delta_system, world,
                                         backend, initial):
        designer = delta_system.client(world.keypair(DESIGNER))
        pid = designer.upload_initial(initial)
        client = delta_system.client(world.keypair(PARTICIPANTS["A"]))

        data = client.retrieve_bytes(pid)
        assert data == delta_system.pool.latest_bytes(pid)
        first_wire = client.bytes_received
        assert first_wire >= len(data)  # cold: manifest + every chunk

        result = self._execute(delta_system, world, backend, client, data,
                               "A", {"attachment": "x"})
        client.submit_document(result.document)
        # The submit shipped only the new CER chunks, not the document.
        assert client.bytes_sent < result.document.size_bytes

        before = client.bytes_received
        again = client.retrieve_bytes(pid)
        assert again == delta_system.pool.latest_bytes(pid)
        # The revisit moves the TFC's finalisation delta, not the
        # document: a small fraction of the full size.
        assert client.bytes_received - before < len(again) / 2

        portal_stats = [p.stats for p in delta_system.portals]
        assert sum(s["delta_retrievals"] for s in portal_stats) >= 2
        assert sum(s["delta_submissions"] for s in portal_stats) >= 1
        assert sum(s["delta_fallbacks"] for s in portal_stats) == 0

    def test_full_cloud_refuses_delta_retrieve(self, full_system, world,
                                               initial):
        designer = full_system.client(world.keypair(DESIGNER))
        pid = designer.upload_initial(initial)
        with pytest.raises(PortalError, match="does not serve delta"):
            designer.portal.retrieve_delta(designer.session, pid)

    def test_over_assumed_submit_falls_back(self, delta_system, world,
                                            backend, initial):
        """A client whose cloud-known set is wrong (it assumes the cloud
        holds chunks it does not) triggers the fallback path: the portal
        names the chunks it lacks, the client resubmits the delta with
        them, the process keeps moving."""
        designer = delta_system.client(world.keypair(DESIGNER))
        pid = designer.upload_initial(initial)
        client = delta_system.client(world.keypair(PARTICIPANTS["A"]))
        data = client.retrieve_bytes(pid)
        result = self._execute(delta_system, world, backend, client, data,
                               "A", {"attachment": "x"})
        # Poison the cache model: claim the cloud holds everything,
        # including the brand-new CER chunks it has never seen.
        manifest, _ = chunk_document(result.document)
        client._cloud_known[pid].update(manifest.chunk_digests)

        entries = client.submit_document(result.document)
        assert {e.activity_id for e in entries} == {"B1", "B2"}
        stats = [p.stats for p in delta_system.portals]
        assert sum(s["delta_fallbacks"] for s in stats) == 1
        assert sum(s["submissions"] for s in stats) == 1
        assert sum(s["delta_submissions"] for s in stats) == 1
        # The resubmitted delta stored the real document: the TFC's
        # finalisation of it.
        assert grows_by_append(result.document.to_bytes(),
                               delta_system.pool.latest_bytes(pid))

    def test_submission_reads_only_its_manifests_instance(
            self, delta_system, world, backend, fig9b, initial):
        """The portal fetches a delta's unshipped chunks from the row of
        the instance its manifest names, and rejects a document whose
        header names another instance."""
        designer = delta_system.client(world.keypair(DESIGNER))
        pid = designer.upload_initial(initial)
        other = designer.upload_initial(build_initial_document(
            fig9b, world.keypair(DESIGNER), backend=backend))
        client = delta_system.client(world.keypair(PARTICIPANTS["A"]))
        data = client.retrieve_bytes(pid)
        result = self._execute(delta_system, world, backend, client, data,
                               "A", {"attachment": "x"})
        manifest, chunks = chunk_document(result.document)
        forged = dataclasses.replace(manifest, process_id=other)
        stored = {p: delta_system.pool.latest_bytes(p) for p in (pid, other)}
        with pytest.raises(DeltaFallbackRequired) as refused:
            client.portal.submit_delta(
                client.session, DeltaDocument(manifest=forged, chunks={}))
        # The other instance's row holds no chunk of this one.
        assert set(refused.value.missing) == set(manifest.chunk_digests)
        with pytest.raises(PortalError, match="names process"):
            client.portal.submit_delta(
                client.session, DeltaDocument(manifest=forged,
                                              chunks=chunks))
        assert {p: delta_system.pool.latest_bytes(p)
                for p in (pid, other)} == stored
        assert delta_system.tfc.records == []

    @pytest.mark.parametrize("missing, deltas", [(("0" * 64,), 2),
                                                 ((), 1)])
    def test_second_fallback_ships_the_full_document(
            self, delta_system, world, backend, initial, monkeypatch,
            missing, deltas):
        """A delta refused again after resending the named chunks, or
        refused without naming any, goes as the full document."""
        designer = delta_system.client(world.keypair(DESIGNER))
        pid = designer.upload_initial(initial)
        client = delta_system.client(world.keypair(PARTICIPANTS["A"]))
        data = client.retrieve_bytes(pid)
        result = self._execute(delta_system, world, backend, client, data,
                               "A", {"attachment": "x"})
        attempts = []

        def refuse(session, delta):
            attempts.append(delta)
            raise DeltaFallbackRequired("refused", missing=missing)

        monkeypatch.setattr(client.portal, "submit_delta", refuse)
        entries = client.submit_document(result.document)
        assert {e.activity_id for e in entries} == {"B1", "B2"}
        assert len(attempts) == deltas
        stats = [p.stats for p in delta_system.portals]
        assert sum(s["submissions"] for s in stats) == 1
        assert sum(s["delta_submissions"] for s in stats) == 0
        assert grows_by_append(result.document.to_bytes(),
                               delta_system.pool.latest_bytes(pid))


# -- end to end --------------------------------------------------------------


class TestDeltaCloudRun:
    def _run(self, system, world, fig9b, backend):
        initial = build_initial_document(fig9b, world.keypair(DESIGNER),
                                         backend=backend)
        final = run_process_in_cloud(
            system, fig9b, initial, world.keypair(DESIGNER),
            world.keypairs, figure9_responders(1),
        )
        out = sum(p.stats["bytes_out"] for p in system.portals)
        into = sum(p.stats["bytes_in"] for p in system.portals)
        return final, into + out

    def test_delta_run_matches_full_run(self, delta_system, full_system,
                                        world, fig9b, backend):
        delta_final, delta_bytes = self._run(delta_system, world, fig9b,
                                             backend)
        full_final, full_bytes = self._run(full_system, world, fig9b,
                                           backend)
        # Same workflow, same responders → same executed history.
        assert len(delta_final.cers()) == len(full_final.cers())
        verify_document(delta_final, world.directory, backend,
                        tfc_identities={TFC})
        # The whole point: the delta cloud moved fewer bytes.
        assert delta_bytes < full_bytes
        assert delta_system.pool.chunks.stats["dedup_hits"] > 0
