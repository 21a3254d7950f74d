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
the instance's row of a :class:`~repro.cloud.hbase.CerChunkStore`
(``doc:manifest``); :meth:`DocumentPool.row_bytes` reads either kind
of row.

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
    :mod:`repro.document.delta`) plus the chunks its instance's latest
    manifest does not name yet, in the instance's row of a
    :class:`~repro.cloud.hbase.CerChunkStore` — so the k-th version of
    an instance writes its new CER chunk and one manifest instead of
    the whole document; ``chunk_replicas`` keeps that many copies of
    each instance's chunks over one shard per region server.  Reads
    reassemble and digest-check the full canonical bytes, so everything
    downstream of the pool sees exactly the bytes a full-storage pool
    would serve.  The pool keeps no record of its chunks outside HBase:
    what to write and what to delete follows from the durable
    manifests, so a pool rebuilt over the same HBase carries on as the
    original would.
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
        """Store a new version of a process's document; returns the seq,
        one past the highest ``hist`` qualifier (compaction keeps the
        last one).

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
        row = self.hbase.get(DOC_TABLE, process_id)
        if (_FAMILY_META, "retired") in row:
            raise StorageError(
                f"process {process_id!r} was retired from hot storage; "
                f"its evidence lives in the archival bundle"
            )
        if self.delta:
            latest, cell = "manifest", self._delta_cell(document, row)
        else:
            latest, cell = "latest", self._full_cell(document, row)
        seq = max((int(qualifier) + 1 for family, qualifier in row
                   if family == _FAMILY_HIST), default=0)
        self.hbase.put(DOC_TABLE, process_id, _FAMILY_HIST, f"{seq:08d}",
                       cell)
        self.hbase.put(DOC_TABLE, process_id, _FAMILY_DOC, latest, cell)
        return seq

    @staticmethod
    def _full_cell(document: Dra4wfmsDocument,
                   row: dict[tuple[str, str], bytes]) -> bytes:
        """Full mode: the document's bytes, past the rollback guard."""
        data = document.to_bytes()
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
                    f"submitted document for {document.process_id!r} is "
                    f"missing previously stored CERs {sorted(missing)} "
                    f"(rollback attack)"
                )
        return data

    def _delta_cell(self, document: Dra4wfmsDocument,
                    row: dict[tuple[str, str], bytes]) -> bytes:
        """Delta mode: write the chunks the instance's latest manifest
        does not name yet, past the rollback guard; return the manifest
        bytes."""
        manifest, payloads = chunk_document(document)
        previous = row.get((_FAMILY_DOC, "manifest"))
        held: set[str] = set()
        if previous is not None:
            stored = self._manifest(previous)
            # Monotonicity guard, chunk-level: every CER chunk of the
            # previously stored version must reappear *byte-identical*
            # in the new one.  Strictly stronger than the id-set check
            # of full mode (it also catches a CER replaced in place),
            # and O(chunk list) instead of O(parse document).
            missing = set(stored.cer_digests) - set(manifest.cer_digests)
            if missing:
                raise TamperDetected(
                    f"submitted document for {document.process_id!r} "
                    f"drops {len(missing)} previously stored CER chunk(s) "
                    f"(rollback attack)"
                )
            held = set(stored.chunk_digests)
        assert self.chunks is not None
        self.chunks.put_chunks(document.process_id, payloads, held)
        manifest_bytes = manifest.to_bytes()
        self._keep_decoded(manifest_bytes, manifest)
        return manifest_bytes

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
        return self.delta_manifests(process_id)[0]

    def delta_manifests(self, process_id: str,
                        held_digest: str | None = None,
                        ) -> tuple[Manifest, Manifest | None]:
        """The latest manifest of an instance, and the manifest of its
        stored version whose document digest is *held_digest* (None when
        it stores no such version), from one read of its row.

        History cells are searched newest first, each by its bytes, so
        only the cell found is decoded (see :meth:`_manifest`).
        """
        if not self.delta:
            raise StorageError("pool is not in delta mode")
        row = self.hbase.get(DOC_TABLE, process_id)
        data = row.get((_FAMILY_DOC, "manifest"))
        if data is None:
            raise StorageError(f"no document stored for {process_id!r}")
        latest = self._manifest(data)
        if held_digest is None:
            return latest, None
        if held_digest == latest.doc_digest:
            return latest, latest
        for (family, _), cell in sorted(row.items(), reverse=True):
            if family == _FAMILY_HIST and \
                    Manifest.describes(cell, held_digest):
                held = self._manifest(cell)
                return latest, (held if held.doc_digest == held_digest
                                else None)
        return latest, None

    def _fetch_chunks(self, manifest: Manifest) -> dict[str, bytes]:
        assert self.chunks is not None
        fetched = self.chunks.get_chunks(manifest.process_id,
                                         manifest.chunk_digests)
        missing = [d for d in manifest.chunk_digests if d not in fetched]
        if missing:
            raise DeltaError(
                f"chunk store is missing {len(missing)} chunk(s) of "
                f"manifest {manifest.doc_digest[:12]}…"
            )
        return fetched

    # -- stored versions ---------------------------------------------------

    def _version_bytes(self, cell: bytes) -> bytes:
        """Canonical bytes of one stored version cell: the document
        itself, or in delta mode its manifest's reassembled chunks."""
        if self.delta:
            manifest = self._manifest(cell)
            return assemble(manifest, self._fetch_chunks(manifest))
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

    def compact(self, process_id: str) -> int:
        """Collapse an instance's per-hop manifests into one (delta mode).

        Every intermediate version's manifest is dropped from the
        history, then the chunk cells that only dropped manifests name
        (a separator an earlier version ended with) — the final
        document's signature cascade already embeds every earlier hop,
        so nothing evidentiary is lost.  Returns how many manifests were
        removed.  The sealed final manifest stays both as
        ``doc:manifest`` and as the single remaining history cell.
        """
        if not self.delta:
            raise StorageError("manifest compaction requires delta mode")
        row = self.hbase.get(DOC_TABLE, process_id)
        final_bytes = row.get((_FAMILY_DOC, "manifest"))
        if final_bytes is None:
            raise StorageError(f"no document stored for {process_id!r}")
        assert self.chunks is not None
        history = [(qualifier, Manifest.from_bytes(data))
                   for (family, qualifier), data in sorted(row.items())
                   if family == _FAMILY_HIST]
        stale, kept = history[:-1], history[-1:]
        named = {digest for _, manifest in kept
                 for digest in manifest.chunk_digests}
        named.update(Manifest.from_bytes(final_bytes).chunk_digests)
        dropped = {digest for _, manifest in stale
                   for digest in manifest.chunk_digests}
        with self.hbase.clock.trace("pool.compact", "pool"):
            self.hbase.delete_cells(
                DOC_TABLE, process_id,
                [(_FAMILY_HIST, qualifier) for qualifier, _ in stale])
            self.chunks.delete_chunks(process_id, sorted(dropped - named))
            self.hbase.put(DOC_TABLE, process_id, _FAMILY_META,
                           "compacted", b"1")
        return len(stale)

    def retire(self, process_id: str) -> None:
        """Drop an archived instance from hot storage (delta mode).

        Deletes the instance's manifests, then its chunk row on every
        replica: no manifest is kept, so no chunk of it is named.
        Requires :meth:`archive` first — and the operator is expected to export
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
        with self.hbase.clock.trace("pool.retire", "pool"):
            self.hbase.delete_cells(
                DOC_TABLE, process_id,
                [(family, qualifier) for family, qualifier in row
                 if family == _FAMILY_HIST]
                + [(_FAMILY_DOC, "manifest")])
            self.chunks.delete_chunks(process_id)
            self.hbase.put(DOC_TABLE, process_id, _FAMILY_META, "retired",
                           b"1")

    def is_retired(self, process_id: str) -> bool:
        """True when the instance was retired from hot storage."""
        row = self.hbase.get(DOC_TABLE, process_id)
        return (_FAMILY_META, "retired") in row

    def flush_hot_tables(self) -> int:
        """Flush the tables a lifecycle sweep filled with tombstones.

        Compaction and retirement leave the document and chunk region
        WALs full of delete markers; explicitly flushing (the HBase
        operator move after a bulk delete) resets those logs so a
        region-server crash stops replaying them.  Returns how many
        regions flushed.
        """
        flushed = self.hbase.flush_table(DOC_TABLE)
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
        self.hbase.delete_row(DOC_TABLE, process_id)
        if self.chunks is not None:
            self.chunks.delete_chunks(process_id)
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
