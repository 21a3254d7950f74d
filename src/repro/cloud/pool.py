"""The pool of DRA4WfMS documents (paper §4.2, Fig. 7).

Documents are stored in the simulated HBase: "a DRA4WfMS document is
stored as a cell in a row of an HBase table".  The pool keeps

* the latest document of every process instance (``doc:latest``),
* the full version history (``hist:<seq>``) — an auditor can replay how
  the instance grew, and
* a TO-DO index table mapping each participant to the process instances
  waiting on them ("a very similar procedure is used to obtain the
  TO-DO list in a WfMS").

With delta routing a version cell holds a manifest of chunks kept in
a :class:`~repro.cloud.hbase.CerChunkStore` (``doc:manifest``);
:meth:`DocumentPool.row_bytes` reads either kind of row.

Replay protection lives here too: :meth:`register_process` refuses a
process id that was already registered, implementing the §2.1 claim
that the unique process id resists replay attacks.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from ..document.delta import Manifest, assemble, chunk_document, seed_chunks
from ..document.document import Dra4wfmsDocument, grows_by_append
from ..errors import (
    DeltaError,
    ReplayDetected,
    StorageError,
    TamperDetected,
)
from .hbase import CerChunkStore, SimHBase

__all__ = ["PoolEntry", "DocumentPool"]

DOC_TABLE = "dra4wfms_documents"
TODO_TABLE = "dra4wfms_todo"
MANIFEST_TABLE = "dra4wfms_manifests"

#: Stored manifest cells a pool keeps decoded.  A hop reads the latest
#: manifest of its instance several times and the version its receiver
#: last retrieved once; a small constant covers them, as a larger one
#: only holds more memory.
_DECODED_MANIFESTS = 16

_FAMILY_DOC = "doc"
_FAMILY_HIST = "hist"
_FAMILY_META = "meta"


@dataclass(frozen=True)
class PoolEntry:
    """One TO-DO item: a process instance awaiting a participant."""

    participant: str
    process_id: str
    activity_id: str


@dataclass(frozen=True)
class ProcessSummary:
    """Searchable metadata of one pooled process instance.

    Derived from CER metadata only — no decryption, so the pool can
    index documents without holding any keys (§4.2's "interfaces for
    users to search and manage DRA4WfMS documents").
    """

    process_id: str
    process_name: str
    designer: str
    executions: int
    participants: tuple[str, ...]
    size_bytes: int
    versions: int


class DocumentPool:
    """HBase-backed storage for DRA4WfMS documents.

    With ``delta=True`` the pool stores each document version as a
    small **manifest** (ordered chunk digests, see
    :mod:`repro.document.delta`) plus content-addressed chunks in a
    shared :class:`~repro.cloud.hbase.CerChunkStore` — so the k-th
    version of an instance writes one new CER chunk and one manifest
    instead of the whole document, and chunks dedup across versions
    *and* across instances; ``chunk_replicas`` keeps that many copies
    of each chunk over one shard per region server.  Reads reassemble
    and digest-check the full canonical bytes, so everything downstream
    of the pool sees exactly the bytes a full-storage pool would serve.
    """

    def __init__(self, hbase: SimHBase, delta: bool = False,
                 chunk_replicas: int | None = None) -> None:
        self.hbase = hbase
        self.delta = delta
        for table in (DOC_TABLE, TODO_TABLE):
            if not hbase.has_table(table):
                hbase.create_table(table)
        self.chunks: CerChunkStore | None = None
        #: Manifest cell bytes → the manifest they decode to, the least
        #: recently used first out (see :meth:`_manifest`).
        self._decoded: OrderedDict[bytes, Manifest] = OrderedDict()
        if delta:
            self.chunks = (
                CerChunkStore(hbase) if chunk_replicas is None
                else CerChunkStore(hbase, shards=len(hbase.servers),
                                   replicas=chunk_replicas))
            if not hbase.has_table(MANIFEST_TABLE):
                hbase.create_table(MANIFEST_TABLE)

    # -- replay guard ------------------------------------------------------------

    def register_process(self, process_id: str) -> None:
        """Reserve a process id; a second registration is a replay."""
        row = self.hbase.get(DOC_TABLE, process_id)
        if (_FAMILY_META, "registered") in row:
            raise ReplayDetected(
                f"process id {process_id!r} was already registered; "
                f"replayed initial documents are rejected"
            )
        self.hbase.put(DOC_TABLE, process_id, _FAMILY_META, "registered",
                       b"1")

    def is_registered(self, process_id: str) -> bool:
        """True when the process id is known to the pool."""
        row = self.hbase.get(DOC_TABLE, process_id)
        return (_FAMILY_META, "registered") in row

    # -- documents ----------------------------------------------------------------

    def store(self, document: Dra4wfmsDocument) -> int:
        """Store a new version of a process's document; returns the seq.

        The rollback guard refuses a version that lost a stored CER.  In
        full mode a version that only appends to the stored one
        (:func:`~repro.document.document.grows_by_append`) passes without
        a parse, and any other must keep every stored CER id.
        """
        process_id = document.process_id
        if not self.is_registered(process_id):
            raise StorageError(
                f"process {process_id!r} was never registered; upload the "
                f"initial document through a portal first"
            )
        if self.delta:
            return self._store_delta(document)
        data = document.to_bytes()
        row = self.hbase.get(DOC_TABLE, process_id)
        if (_FAMILY_META, "retired") in row:
            raise StorageError(
                f"process {process_id!r} was retired from hot storage; "
                f"its evidence lives in the archival bundle"
            )
        previous = row.get((_FAMILY_DOC, "latest"))
        if previous is not None and not grows_by_append(previous, data):
            # Monotonicity guard: a process document only ever grows.
            # Storing a copy that lost CERs is a rollback/truncation
            # attack — the one alteration signature verification alone
            # cannot catch, because a prefix of the cascade is itself a
            # validly-signed document.
            old_ids = {
                cer.cer_id
                for cer in Dra4wfmsDocument.from_bytes(previous).cers()
            }
            new_ids = {cer.cer_id for cer in document.cers()}
            missing = old_ids - new_ids
            if missing:
                raise TamperDetected(
                    f"submitted document for {process_id!r} is missing "
                    f"previously stored CERs {sorted(missing)} "
                    f"(rollback attack)"
                )
        seq = sum(1 for (family, _) in row if family == _FAMILY_HIST)
        self.hbase.put(DOC_TABLE, process_id, _FAMILY_HIST, f"{seq:08d}",
                       data)
        self.hbase.put(DOC_TABLE, process_id, _FAMILY_DOC, "latest", data)
        return seq

    def _store_delta(self, document: Dra4wfmsDocument) -> int:
        """Delta-mode store: new chunks + a manifest, not the document."""
        process_id = document.process_id
        manifest, payloads = chunk_document(document)
        row = self.hbase.get(DOC_TABLE, process_id)
        if (_FAMILY_META, "retired") in row:
            raise StorageError(
                f"process {process_id!r} was retired from hot storage; "
                f"its evidence lives in the archival bundle"
            )
        previous = row.get((_FAMILY_DOC, "manifest"))
        if previous is not None:
            # Monotonicity guard, chunk-level: every CER chunk of the
            # previously stored version must reappear *byte-identical*
            # in the new one.  Strictly stronger than the id-set check
            # of full mode (it also catches a CER replaced in place),
            # and O(chunk list) instead of O(parse document).
            old_cers = set(self._manifest(previous).cer_digests)
            new_cers = set(manifest.cer_digests)
            missing = old_cers - new_cers
            if missing:
                raise TamperDetected(
                    f"submitted document for {process_id!r} drops "
                    f"{len(missing)} previously stored CER chunk(s) "
                    f"(rollback attack)"
                )
        assert self.chunks is not None
        self.chunks.put_chunks(payloads)
        # Every stored manifest version takes one reference on each
        # chunk it names; compaction/retirement releases them, and only
        # a zero-ref chunk is ever GC-eligible.
        self.chunks.pin(manifest.chunk_digests)
        manifest_bytes = manifest.to_bytes()
        self._keep_decoded(manifest_bytes, manifest)
        seq = sum(1 for (family, _) in row if family == _FAMILY_HIST)
        self.hbase.put(DOC_TABLE, process_id, _FAMILY_HIST, f"{seq:08d}",
                       manifest_bytes)
        self.hbase.put(DOC_TABLE, process_id, _FAMILY_DOC, "manifest",
                       manifest_bytes)
        # Manifest-by-digest lookup: a delta retrieve names the version
        # the client already holds by its document digest.
        self.hbase.put(MANIFEST_TABLE, manifest.doc_digest, "m", "b",
                       manifest_bytes)
        return seq

    # -- delta-mode accessors -----------------------------------------------

    def _manifest(self, cell: bytes) -> Manifest:
        """The manifest a stored cell holds, decoded once per cell
        content: every later read of equal bytes, and of the bytes this
        pool stored, reuses it."""
        manifest = self._decoded.get(cell)
        if manifest is None:
            manifest = Manifest.from_bytes(cell)
        self._keep_decoded(cell, manifest)
        return manifest

    def _keep_decoded(self, cell: bytes, manifest: Manifest) -> None:
        self._decoded[cell] = manifest
        self._decoded.move_to_end(cell)
        if len(self._decoded) > _DECODED_MANIFESTS:
            self._decoded.popitem(last=False)

    def latest_manifest(self, process_id: str) -> Manifest:
        """Manifest of the most recent stored version (delta mode only)."""
        if not self.delta:
            raise StorageError("pool is not in delta mode")
        row = self.hbase.get(DOC_TABLE, process_id)
        data = row.get((_FAMILY_DOC, "manifest"))
        if data is None:
            raise StorageError(f"no document stored for {process_id!r}")
        return self._manifest(data)

    def manifest_by_digest(self, doc_digest: str) -> Manifest | None:
        """Manifest of any stored version, by document digest, or None."""
        if not self.delta:
            raise StorageError("pool is not in delta mode")
        row = self.hbase.get(MANIFEST_TABLE, doc_digest)
        data = row.get(("m", "b"))
        if data is None:
            return None
        return self._manifest(data)

    def _fetch_chunks(self, manifest: Manifest) -> dict[str, bytes]:
        assert self.chunks is not None
        fetched = self.chunks.get_chunks(manifest.chunk_digests)
        missing = [d for d in manifest.chunk_digests if d not in fetched]
        if missing:
            raise DeltaError(
                f"chunk store is missing {len(missing)} chunk(s) of "
                f"manifest {manifest.doc_digest[:12]}…"
            )
        return fetched

    def assemble_bytes(self, manifest: Manifest) -> bytes:
        """Reassembled, digest-checked canonical bytes of *manifest*."""
        return assemble(manifest, self._fetch_chunks(manifest))

    # -- stored versions ---------------------------------------------------

    def _version_bytes(self, cell: bytes) -> bytes:
        """Canonical bytes of one stored version cell: the document
        itself, or in delta mode its manifest's reassembled chunks."""
        if self.delta:
            return self.assemble_bytes(self._manifest(cell))
        return cell

    def row_bytes(self, row: dict[tuple[str, str], bytes]) -> bytes | None:
        """Canonical bytes of the latest version a document-table row
        holds, or None when it holds none (retired, or never stored)."""
        cell = row.get((_FAMILY_DOC, "manifest" if self.delta else "latest"))
        return None if cell is None else self._version_bytes(cell)

    def latest_bytes(self, process_id: str) -> bytes:
        """Canonical bytes of the most recent stored version."""
        data = self.row_bytes(self.hbase.get(DOC_TABLE, process_id))
        if data is None:
            raise StorageError(f"no document stored for {process_id!r}")
        return data

    def latest(self, process_id: str) -> Dra4wfmsDocument:
        """The most recent stored document of an instance.

        In delta mode the returned document's canonical memo is
        pre-seeded from the digest-checked chunks, so downstream
        serialization/chunking of the (unchanged) history is O(new CER)
        instead of O(document).
        """
        if self.delta:
            manifest = self.latest_manifest(process_id)
            fetched = self._fetch_chunks(manifest)
            document = Dra4wfmsDocument.from_bytes(
                assemble(manifest, fetched)
            )
            seed_chunks(document, manifest, fetched)
            return document
        return Dra4wfmsDocument.from_bytes(self.latest_bytes(process_id))

    def history(self, process_id: str) -> list[Dra4wfmsDocument]:
        """Every stored version, oldest first."""
        row = self.hbase.get(DOC_TABLE, process_id)
        return [
            Dra4wfmsDocument.from_bytes(self._version_bytes(data))
            for (family, _), data in sorted(row.items())
            if family == _FAMILY_HIST
        ]

    def process_ids(self) -> list[str]:
        """All registered process ids."""
        return [key for key, _ in self.hbase.scan(DOC_TABLE)]

    # -- search & management (§4.2) ------------------------------------------

    def summarize(self, process_id: str) -> ProcessSummary:
        """Metadata summary of one instance (no decryption)."""
        row = self.hbase.get(DOC_TABLE, process_id)
        data = self.row_bytes(row)
        if data is None:
            raise StorageError(f"no document stored for {process_id!r}")
        return self._summary(process_id, row, data)

    @staticmethod
    def _summary(process_id: str, row: dict[tuple[str, str], bytes],
                 data: bytes) -> ProcessSummary:
        document = Dra4wfmsDocument.from_bytes(data)
        completed = [
            cer for cer in document.cers(include_definition=False)
            if cer.kind in ("standard", "tfc")
        ]
        # Executors sign standard CERs in the basic model and
        # intermediate CERs in the advanced model (the TFC signs the
        # tfc-kind ones).
        executors = {
            cer.participant
            for cer in document.cers(include_definition=False)
            if cer.kind in ("standard", "intermediate")
        }
        versions = sum(1 for (family, _) in row if family == _FAMILY_HIST)
        return ProcessSummary(
            process_id=process_id,
            process_name=document.process_name,
            designer=document.designer,
            executions=len(completed),
            participants=tuple(sorted(executors)),
            size_bytes=len(data),
            versions=versions,
        )

    def search(self,
               process_name: str | None = None,
               participant: str | None = None,
               designer: str | None = None,
               min_executions: int | None = None,
               include_archived: bool = False) -> list[ProcessSummary]:
        """Search pooled instances by metadata filters (AND semantics)."""
        out: list[ProcessSummary] = []
        for process_id, row in self.hbase.scan(DOC_TABLE):
            if not include_archived and \
                    (_FAMILY_META, "archived") in row:
                continue
            data = self.row_bytes(row)
            if data is None:
                continue
            summary = self._summary(process_id, row, data)
            if process_name is not None and \
                    summary.process_name != process_name:
                continue
            if designer is not None and summary.designer != designer:
                continue
            if participant is not None and \
                    participant not in summary.participants and \
                    participant != summary.designer:
                continue
            if min_executions is not None and \
                    summary.executions < min_executions:
                continue
            out.append(summary)
        return out

    # -- lifecycle management (§4.2 "manage DRA4WfMS documents") ---------------

    def archive(self, process_id: str) -> None:
        """Mark a finished instance archived (hidden from default search,
        still retrievable — legal evidence must never be silently lost)."""
        if not self.is_registered(process_id):
            raise StorageError(f"unknown process {process_id!r}")
        self.hbase.put(DOC_TABLE, process_id, _FAMILY_META, "archived",
                       b"1")

    def is_archived(self, process_id: str) -> bool:
        """True when the instance is archived."""
        row = self.hbase.get(DOC_TABLE, process_id)
        return (_FAMILY_META, "archived") in row

    def _hist_manifests(
        self, row: dict[tuple[str, str], bytes],
    ) -> list[tuple[str, Manifest]]:
        """An instance row's history manifests, oldest first."""
        return [
            (qualifier, Manifest.from_bytes(data))
            for (family, qualifier), data in sorted(row.items())
            if family == _FAMILY_HIST
        ]

    def compact(self, process_id: str) -> int:
        """Collapse an instance's per-hop manifests into one (delta mode).

        Every intermediate version's manifest is dropped from the
        history and the manifest-by-digest index, and its chunk
        references are released — the final document's signature
        cascade already embeds every earlier hop, so nothing
        evidentiary is lost.  Returns how many manifests were removed.
        The sealed final manifest stays both as ``doc:manifest`` and as
        the single remaining history cell.
        """
        if not self.delta:
            raise StorageError("manifest compaction requires delta mode")
        row = self.hbase.get(DOC_TABLE, process_id)
        final_bytes = row.get((_FAMILY_DOC, "manifest"))
        if final_bytes is None:
            raise StorageError(f"no document stored for {process_id!r}")
        final = Manifest.from_bytes(final_bytes)
        assert self.chunks is not None
        stale = self._hist_manifests(row)[:-1]
        with self.hbase.clock.trace("pool.compact", "pool"):
            for _, manifest in stale:
                self.chunks.unpin(manifest.chunk_digests)
            self.hbase.delete_cells(
                DOC_TABLE, process_id,
                [(_FAMILY_HIST, qualifier) for qualifier, _ in stale])
            self.hbase.delete_rows(MANIFEST_TABLE, sorted({
                manifest.doc_digest for _, manifest in stale
                if manifest.doc_digest != final.doc_digest
            }))
            self.hbase.put(DOC_TABLE, process_id, _FAMILY_META,
                           "compacted", b"1")
        return len(stale)

    def retire(self, process_id: str) -> None:
        """Drop an archived instance from hot storage (delta mode).

        Releases every remaining chunk reference and deletes the
        instance's manifests, so the next :meth:`CerChunkStore.gc`
        sweep reclaims chunks no other live instance shares.  Requires
        :meth:`archive` first — and the operator is expected to export
        an archival bundle *before* retiring, because afterwards the
        pool can no longer serve the document.  The process id stays
        registered, so replayed initial documents are still rejected,
        and further stores are refused.
        """
        if not self.delta:
            raise StorageError("retire requires delta mode")
        row = self.hbase.get(DOC_TABLE, process_id)
        if (_FAMILY_META, "registered") not in row:
            raise StorageError(f"unknown process {process_id!r}")
        if (_FAMILY_META, "archived") not in row:
            raise StorageError(
                f"process {process_id!r} must be archived before it can "
                f"be retired from hot storage"
            )
        if (_FAMILY_META, "retired") in row:
            return
        assert self.chunks is not None
        history = self._hist_manifests(row)
        with self.hbase.clock.trace("pool.retire", "pool"):
            for _, manifest in history:
                self.chunks.unpin(manifest.chunk_digests)
            self.hbase.delete_cells(
                DOC_TABLE, process_id,
                [(_FAMILY_HIST, qualifier) for qualifier, _ in history]
                + [(_FAMILY_DOC, "manifest")])
            self.hbase.delete_rows(MANIFEST_TABLE, sorted({
                manifest.doc_digest for _, manifest in history
            }))
            self.hbase.put(DOC_TABLE, process_id, _FAMILY_META, "retired",
                           b"1")

    def is_retired(self, process_id: str) -> bool:
        """True when the instance was retired from hot storage."""
        row = self.hbase.get(DOC_TABLE, process_id)
        return (_FAMILY_META, "retired") in row

    def gc(self) -> tuple[int, int]:
        """Sweep zero-reference chunks; ``(chunks_deleted, bytes)``."""
        if not self.delta:
            raise StorageError("chunk GC requires delta mode")
        assert self.chunks is not None
        return self.chunks.gc()

    def flush_hot_tables(self) -> int:
        """Flush the tables a lifecycle sweep filled with tombstones.

        Retire + GC leave the document, manifest-index, and chunk
        region WALs full of delete markers; explicitly flushing (the
        HBase operator move after a bulk delete) resets those logs so
        the hot path stops paying to rewrite them on every put.
        Returns how many regions flushed.
        """
        flushed = self.hbase.flush_table(DOC_TABLE)
        if self.delta:
            flushed += self.hbase.flush_table(MANIFEST_TABLE)
        if self.chunks is not None:
            flushed += self.chunks.flush()
        return flushed

    def purge(self, process_id: str) -> None:
        """Irreversibly delete an instance and its TO-DO entries.

        The process id stays registered so a replayed initial document
        is still rejected after the purge.
        """
        row = self.hbase.get(DOC_TABLE, process_id)
        if (_FAMILY_META, "registered") not in row:
            raise StorageError(f"unknown process {process_id!r}")
        if self.delta and self.chunks is not None:
            # Release the purged versions' chunk references and their
            # by-digest index rows, or the refcounts would pin chunks
            # of a document that no longer exists.
            history = self._hist_manifests(row)
            for _, manifest in history:
                self.chunks.unpin(manifest.chunk_digests)
            self.hbase.delete_rows(MANIFEST_TABLE, sorted({
                manifest.doc_digest for _, manifest in history
            }))
        self.hbase.delete_row(DOC_TABLE, process_id)
        self.hbase.put(DOC_TABLE, process_id, _FAMILY_META, "registered",
                       b"1")
        self.hbase.put(DOC_TABLE, process_id, _FAMILY_META, "purged",
                       b"1")
        # Drop any dangling TO-DO entries for the purged instance.
        for key, _ in self.hbase.scan(TODO_TABLE):
            if key.split("\x00")[1] == process_id:
                self.hbase.delete_row(TODO_TABLE, key)

    # -- TO-DO index ------------------------------------------------------------------

    @staticmethod
    def _todo_key(participant: str, process_id: str, activity_id: str) -> str:
        return f"{participant}\x00{process_id}\x00{activity_id}"

    def add_todo(self, participant: str, process_id: str,
                 activity_id: str) -> None:
        """Record that *participant* must execute *activity_id* next."""
        self.hbase.put(
            TODO_TABLE,
            self._todo_key(participant, process_id, activity_id),
            "todo", "pending", b"1",
        )

    def remove_todo(self, participant: str, process_id: str,
                    activity_id: str) -> None:
        """Clear a TO-DO entry once the activity result arrives."""
        self.hbase.delete_row(
            TODO_TABLE, self._todo_key(participant, process_id, activity_id)
        )

    def todo_for(self, participant: str) -> list[PoolEntry]:
        """The participant's TO-DO list (paper §4.2 "Search" operation)."""
        prefix = f"{participant}\x00"
        rows = self.hbase.scan(TODO_TABLE, start_key=prefix,
                               stop_key=prefix + "￿")
        entries = []
        for key, _ in rows:
            _, process_id, activity_id = key.split("\x00")
            entries.append(PoolEntry(
                participant=participant,
                process_id=process_id,
                activity_id=activity_id,
            ))
        return entries
