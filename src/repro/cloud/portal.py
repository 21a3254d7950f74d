"""Portal servers: the cloud front door (paper §3, Fig. 7).

"A user connects to one of the portal servers to access the DRA4WfMS
cloud system."  A portal

* authenticates users by public-key challenge/response against the PKI
  directory (no passwords to breach);
* serves the TO-DO search, document retrieval and document storage
  operations of §4.2;
* verifies every submitted document before accepting it — the cloud
  provider never needs to be *trusted*, because a tampered document is
  rejected by the same cryptographic checks any AEA runs;
* finalises submissions through the TFC server (advanced model:
  timestamp + policy re-encryption + routing) and notifies the next
  participants.

Portals are stateless with respect to process instances: all state is
in the pool, so any number of portals can serve the same cloud (the
scalability argument of §3).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.tfc import TfcServer
from ..crypto.backend import CryptoBackend, default_backend
from ..crypto.pki import KeyDirectory
from ..document.delta import DeltaDocument, Manifest, assemble, seed_chunks
from ..document.document import (Dra4wfmsDocument, grows_by_append,
                                  process_id_of)
from ..document.vcache import VerificationCache
from ..document.verify import verify_document
from ..errors import (
    DeltaFallbackRequired,
    DeltaMismatch,
    PortalError,
    ReproError,
    RuntimeFault,
)
from .network import WAN, NetworkModel
from .notify import NotificationService
from .pool import DocumentPool, PoolEntry
from .simclock import SimClock

__all__ = ["Session", "PortalServer"]


@dataclass(frozen=True)
class Session:
    """An authenticated portal session."""

    token: str
    identity: str
    portal_id: str


class PortalServer:
    """One stateless portal instance."""

    def __init__(self,
                 portal_id: str,
                 pool: DocumentPool,
                 directory: KeyDirectory,
                 tfc: TfcServer,
                 notifier: NotificationService,
                 clock: SimClock,
                 network: NetworkModel = WAN,
                 backend: CryptoBackend | None = None,
                 verify_cache: VerificationCache | None = None) -> None:
        self.portal_id = portal_id
        self.pool = pool
        self.directory = directory
        self.tfc = tfc
        self.notifier = notifier
        self.clock = clock
        self.network = network
        self.backend = backend or default_backend()
        #: Opt-in shared signature cache: portals of one cloud may share
        #: it (and the TFC's) so a document verified at any front door
        #: costs only its new CERs at the next.  ``None`` → cold.
        self.verify_cache = verify_cache
        self._challenges: dict[str, bytes] = {}
        self._sessions: dict[str, Session] = {}
        self.stats = {"logins": 0, "searches": 0, "retrievals": 0,
                      "uploads": 0, "submissions": 0, "rejected": 0,
                      "delta_retrievals": 0, "delta_submissions": 0,
                      "delta_fallbacks": 0,
                      "bytes_in": 0, "bytes_out": 0}

    # -- authentication ------------------------------------------------------

    def challenge(self, identity: str) -> bytes:
        """Start a login: return a nonce the user must sign."""
        if identity not in self.directory:
            raise PortalError(f"unknown identity {identity!r}")
        nonce = self.backend.random(32)
        self._challenges[identity] = nonce
        return nonce

    def login(self, identity: str, signature: bytes) -> Session:
        """Complete a login by verifying the signed nonce."""
        nonce = self._challenges.pop(identity, None)
        if nonce is None:
            raise PortalError(f"no pending challenge for {identity!r}")
        try:
            self.backend.verify(
                self.directory.public_key_of(identity),
                b"dra4wfms-portal-login\x00" + nonce,
                signature,
            )
        except ReproError as exc:
            raise PortalError(f"authentication failed: {exc}") from exc
        token = self.backend.random(16).hex()
        session = Session(token=token, identity=identity,
                          portal_id=self.portal_id)
        self._sessions[token] = session
        self.stats["logins"] += 1
        self.clock.advance(self.network.rpc_seconds(64, 64),
                           component="portal")
        return session

    def _require(self, session: Session) -> Session:
        stored = self._sessions.get(session.token)
        if stored is None or stored.identity != session.identity:
            raise PortalError("invalid or expired session")
        return stored

    # -- §4.2 operations ----------------------------------------------------------

    def search_todo(self, session: Session) -> list[PoolEntry]:
        """TO-DO list of the logged-in participant."""
        self._require(session)
        with self.clock.trace("portal.search_todo", "portal"):
            self.stats["searches"] += 1
            self.clock.advance(self.network.rpc_seconds(64, 512),
                               component="portal")
            return self.pool.todo_for(session.identity)

    def retrieve(self, session: Session, process_id: str) -> bytes:
        """Fetch the latest document of a process instance."""
        self._require(session)
        with self.clock.trace("portal.retrieve", "portal"):
            data = self.pool.latest_bytes(process_id)
            self.stats["retrievals"] += 1
            self.stats["bytes_out"] += len(data)
            self.clock.advance(self.network.rpc_seconds(64, len(data)),
                               component="portal")
            return data

    def retrieve_delta(self, session: Session, process_id: str,
                       have_digest: str | None = None,
                       also_have: frozenset[str] | set[str] = frozenset(),
                       ) -> DeltaDocument:
        """One-round delta retrieve: manifest + chunks the client lacks.

        *have_digest* names the document version the client last
        received (the ``doc_digest`` of that manifest); *also_have*
        lists digests of chunks the client holds beyond that version —
        typically the CERs it produced itself on an earlier submit.
        The response carries the latest manifest plus only the chunks
        not covered by either, so a returning participant pays one WAN
        round trip for the handful of CERs appended since its last
        visit.  The held version is looked up among the instance's own
        stored versions; an unknown or ``None`` *have_digest* degrades
        to "all chunks" (a cold client's first contact, or a version
        compaction dropped), never to an error.

        Raises :class:`~repro.errors.DeltaFallbackRequired` when the
        chunk store cannot supply a referenced chunk — the client
        retries with a full :meth:`retrieve`.
        """
        self._require(session)
        if not self.pool.delta:
            raise PortalError("this cloud does not serve delta transfers")
        with self.clock.trace("portal.retrieve_delta", "portal"):
            manifest, held = self.pool.delta_manifests(process_id,
                                                       have_digest)
            known: set[str] = set(also_have)
            if held is not None:
                known.update(held.chunk_digests)
            missing = [d for d in manifest.chunk_digests if d not in known]
            chunks = self.pool.chunks.get_chunks(process_id, missing)
            if len(chunks) != len(set(missing)):
                self.stats["delta_fallbacks"] += 1
                raise DeltaFallbackRequired(
                    f"chunk store cannot serve {process_id!r}; retry with "
                    f"a full retrieve"
                )
            delta = DeltaDocument(manifest=manifest, chunks=chunks)
            request = 64 + len(have_digest or "") + 64 * len(also_have)
            self.stats["retrievals"] += 1
            self.stats["delta_retrievals"] += 1
            self.stats["bytes_in"] += request
            self.stats["bytes_out"] += delta.wire_bytes
            self.clock.advance(
                self.network.rpc_seconds(request, delta.wire_bytes),
                component="portal",
            )
            return delta

    def upload_initial(self, session: Session, data: bytes) -> str:
        """Start a process: verify, register (replay guard), store, notify.

        Returns the process id.
        """
        self._require(session)
        with self.clock.trace("portal.upload_initial", "portal"):
            document = Dra4wfmsDocument.from_bytes(data)
            self.stats["bytes_in"] += len(data)
            self.clock.advance(self.network.transfer_seconds(len(data)),
                               component="portal")
            try:
                with self.clock.trace("portal.verify", "crypto"):
                    definition = verify_document(
                        document, self.directory, self.backend,
                        definition_reader=(self.tfc.identity,
                                           self.tfc.keypair.private_key),
                        cache=self.verify_cache,
                    ).definition
            except ReproError as exc:
                self.stats["rejected"] += 1
                raise PortalError(
                    f"initial document rejected: {exc}") from exc

            try:
                self.pool.register_process(document.process_id)
            except ReproError as exc:
                self.stats["rejected"] += 1
                raise PortalError(
                    f"initial document rejected: {exc}") from exc
            self.pool.store(document)
            start = definition.activity(definition.start_activity)
            self.pool.add_todo(start.participant, document.process_id,
                               start.activity_id)
            self.notifier.notify(start.participant, document.process_id,
                                 start.activity_id)
            self.stats["uploads"] += 1
            return document.process_id

    def submit(self, session: Session, data: bytes) -> list[PoolEntry]:
        """Accept an executed document, finalise via TFC, store, notify.

        Returns the TO-DO entries created for the next activities
        (empty when the process terminated).
        """
        self._require(session)
        with self.clock.trace("portal.submit", "portal"):
            self.stats["bytes_in"] += len(data)
            self.clock.advance(self.network.transfer_seconds(len(data)),
                               component="portal")
            return self._accept_submission(data)

    def submit_delta(self, session: Session,
                     delta: DeltaDocument) -> list[PoolEntry]:
        """Accept an executed document shipped as manifest + new chunks.

        The portal reassembles the full canonical bytes from the
        delta's chunks plus the chunks stored for the instance the
        manifest names, digest-checks them against the manifest, and
        from there runs the *identical* verify → TFC → merge → store
        path a full submission takes — the bytes are the same, so the
        security posture is the same.  A document whose header names
        another instance is rejected.  Only the transfer is charged at
        delta size.

        Raises :class:`~repro.errors.DeltaFallbackRequired`, naming the
        missing digests, when the instance's stored chunks cannot supply
        a referenced chunk (the client assumed more than the pool holds);
        the client resubmits the delta with those chunks, or
        :meth:`submit` with the full bytes.
        """
        self._require(session)
        if not self.pool.delta:
            raise PortalError("this cloud does not accept delta transfers")
        with self.clock.trace("portal.submit_delta", "portal"):
            self.stats["bytes_in"] += delta.wire_bytes
            self.clock.advance(
                self.network.transfer_seconds(delta.wire_bytes),
                component="portal",
            )
            manifest = delta.manifest
            needed = [d for d in manifest.chunk_digests
                      if d not in delta.chunks]
            fetched = self.pool.chunks.get_chunks(manifest.process_id,
                                                  needed)
            if len(fetched) != len(set(needed)):
                self.stats["delta_fallbacks"] += 1
                missing = sorted(set(needed) - set(fetched))
                raise DeltaFallbackRequired(
                    f"submission references {len(missing)} chunk(s) this "
                    f"cloud does not hold; resubmit with them or the full "
                    f"document", missing=tuple(missing),
                )
            all_chunks = {**fetched, **delta.chunks}
            try:
                with self.clock.trace("delta.assemble", "delta"):
                    data = assemble(manifest, all_chunks)
            except DeltaMismatch as exc:
                self.stats["rejected"] += 1
                raise PortalError(f"submission rejected: {exc}") from exc
            entries = self._accept_submission(data, manifest=manifest,
                                              chunks=fetched)
            self.stats["delta_submissions"] += 1
            return entries

    def _accept_submission(self, data: bytes,
                           manifest: Manifest | None = None,
                           chunks: dict[str, bytes] | None = None,
                           ) -> list[PoolEntry]:
        """Shared verify → TFC → merge → store → notify path.

        *data* is always the **full** serialization — by the time a
        delta submission reaches this point it has been reassembled and
        digest-checked, so both entry points run the same checks over
        the same bytes.  The portal reads only the header; the TFC
        parses and verifies the bytes, resuming from the instance's
        previous submission when they extend it.  A delta submission
        also passes its *manifest*, whose process id the header must
        name, and the (canonical) *chunks* the store already held, which
        warm the finalized document's canonical memo for the stored
        history, so storing it chunks only new CERs.  Verification never
        reads the memo, and what is stored is canonical whatever bytes
        the client shipped.
        """
        try:
            process_id = process_id_of(data)
        except ReproError as exc:
            self.stats["rejected"] += 1
            raise PortalError(f"submission rejected: {exc}") from exc
        if manifest is not None and manifest.process_id != process_id:
            self.stats["rejected"] += 1
            raise PortalError(
                f"submission rejected: its manifest names process "
                f"{manifest.process_id!r}, its document {process_id!r}"
            )
        if not self.pool.is_registered(process_id):
            self.stats["rejected"] += 1
            raise PortalError(
                f"process {process_id!r} unknown to this cloud "
                f"(initial document was never uploaded)"
            )

        try:
            tfc_result = self.tfc.process(data)
        except RuntimeFault as exc:
            self.stats["rejected"] += 1
            raise PortalError(
                f"submission rejected (cloud deployment runs the advanced "
                f"operational model): {exc}"
            ) from exc
        except ReproError as exc:
            self.stats["rejected"] += 1
            raise PortalError(f"submission rejected: {exc}") from exc

        finalized = tfc_result.document
        if manifest is not None and chunks is not None:
            seed_chunks(finalized, manifest, chunks)
        stored = self.pool.latest_bytes(process_id)
        if grows_by_append(stored, finalized.to_bytes()):
            merged, definition = finalized, tfc_result.definition
        else:
            # A concurrent AND-split branch: merge with the pool copy so
            # the branches accumulate in one document, whose amendments
            # may include some this branch lacks.
            merged = Dra4wfmsDocument.from_bytes(stored).merge(finalized)
            definition = self._definition_of(merged)
        self.pool.store(merged)

        self.pool.remove_todo(
            definition.activity(tfc_result.activity_id).participant,
            merged.process_id, tfc_result.activity_id,
        )

        entries: list[PoolEntry] = []
        for activity_id in tfc_result.routing.next_activities:
            participant = definition.activity(activity_id).participant
            self.pool.add_todo(participant, merged.process_id, activity_id)
            self.notifier.notify(participant, merged.process_id, activity_id)
            entries.append(PoolEntry(
                participant=participant,
                process_id=merged.process_id,
                activity_id=activity_id,
            ))
        self.stats["submissions"] += 1
        return entries

    def search_documents(self, session: Session,
                         process_name: str | None = None,
                         min_executions: int | None = None):
        """Search the pool for instances the caller is involved in.

        The §4.2 "search and manage" interface, scoped to the session
        identity: users see instances where they participate (or which
        they designed), never the whole tenant population.
        """
        self._require(session)
        self.stats["searches"] += 1
        self.clock.advance(self.network.rpc_seconds(128, 1024),
                           component="portal")
        return self.pool.search(
            process_name=process_name,
            participant=session.identity,
            min_executions=min_executions,
        )

    def manage(self, session: Session, process_id: str,
               action: str) -> None:
        """Archive or purge an instance — designer-only.

        The workflow designer owns the instance's lifecycle; nobody
        else (not even the cloud operator through this interface) may
        hide or destroy the evidence trail.
        """
        self._require(session)
        document = self.pool.latest(process_id)
        if document.designer != session.identity:
            raise PortalError(
                f"only the designer ({document.designer!r}) may manage "
                f"process {process_id!r}"
            )
        if action == "archive":
            self.pool.archive(process_id)
        elif action == "purge":
            self.pool.purge(process_id)
        else:
            raise PortalError(f"unknown manage action {action!r}")

    # -- monitoring --------------------------------------------------------------------

    def monitor(self, session: Session, process_id: str):
        """Execution status of one process instance (metadata only)."""
        self._require(session)
        from ..core.state import execution_status

        document = self.pool.latest(process_id)
        definition = self._definition_of(document)
        return execution_status(document, definition)

    # -- internals -------------------------------------------------------------------------

    def _definition_of(self, document: Dra4wfmsDocument):
        from ..document.amendments import effective_definition

        if document.definition_is_encrypted:
            return effective_definition(
                document, self.tfc.identity,
                self.tfc.keypair.private_key, self.backend,
            )
        return effective_definition(document, backend=self.backend)
