"""The DRA4WfMS cloud system facade (paper §3, Fig. 7).

Wires together the simulated substrate — HDFS, HBase, document pool,
portal servers, TFC, notifications, MapReduce — and provides the
client-side helper (:class:`CloudClient`) plus a driver that runs an
entire workflow through the cloud exactly as Fig. 7's numbered arrows
describe: retrieve → execute in AEA → send back → verify/timestamp →
store → notify next participants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..core.aea import ActivityExecutionAgent, AeaResult, Responder
from ..core.tfc import TfcServer
from ..crypto.backend import CryptoBackend, default_backend
from ..crypto.keys import KeyPair
from ..crypto.pki import KeyDirectory
from ..document.delta import (
    ChunkCache,
    decode_delta,
    encode_delta,
    seed_chunks,
)
from ..document.document import Dra4wfmsDocument
from ..document.vcache import VerificationCache
from ..errors import (
    CloudError,
    DeltaError,
    DeltaFallbackRequired,
    JoinNotReady,
)
from ..model.definition import WorkflowDefinition
from .hbase import SimHBase
from .hdfs import SimHdfs
from .mapreduce import JobStats, MapReduceEngine
from .network import LAN, WAN
from .notify import NotificationService
from .pool import DOC_TABLE, DocumentPool
from .portal import PortalServer, Session
from .sharding import PortalPlacement
from .simclock import SimClock

__all__ = ["CloudSystem", "CloudClient", "drive_instance",
           "run_process_in_cloud"]

#: Polling rounds after which :func:`drive_instance` gives up.
_MAX_ROUNDS = 10_000


class CloudSystem:
    """A complete simulated DRA4WfMS cloud."""

    def __init__(self,
                 directory: KeyDirectory,
                 tfc_keypair: KeyPair,
                 portals: int = 2,
                 region_servers: int = 2,
                 datanodes: int = 3,
                 split_threshold_rows: int = 256,
                 backend: CryptoBackend | None = None,
                 verify_cache: VerificationCache | None = None,
                 delta_routing: bool = False,
                 placement: str = "round-robin",
                 chunk_replicas: int | None = None,
                 chunk_cache_bytes: int | None = None) -> None:
        if isinstance(portals, bool) or not isinstance(portals, int):
            raise CloudError(
                f"portal count must be an integer, got {portals!r} "
                f"({type(portals).__name__})"
            )
        if portals < 1:
            raise CloudError("need at least one portal server")
        if placement not in ("round-robin", "ring"):
            raise CloudError(
                f"unknown placement scheme {placement!r} "
                f"(expected 'round-robin' or 'ring')"
            )
        if chunk_replicas is not None and not delta_routing:
            raise CloudError(
                "chunk_replicas only applies to delta routing (the "
                "chunk store does not exist in full-document mode)"
            )
        self.backend = backend or default_backend()
        self.directory = directory
        #: When True the pool stores manifests + content-addressed CER
        #: chunks, and clients ship/receive deltas (see docs/ROUTING.md).
        #: Off by default — full-document routing, as before.
        self.delta_routing = delta_routing
        #: When supplied, all portals and the TFC share this signature
        #: cache: a signature checked at any front door costs hashing,
        #: not RSA, anywhere else in the cloud.  Resuming from the last
        #: verified copy (the TFC's and every client agent's
        #: :class:`~repro.document.resume.KeptPasses`) does not need it.
        self.verify_cache = verify_cache
        #: LRU byte budget for every client's peer chunk cache (delta
        #: mode).  ``None`` (default) keeps the historic unbounded
        #: cache; 0 is a degenerate-but-legal budget (the cache still
        #: holds at least its most recent chunk).
        self.chunk_cache_bytes = chunk_cache_bytes
        #: All components charge simulated costs here; the fleet
        #: scheduler runs its event heap on this clock and captures
        #: per-component service times from it (see :mod:`repro.fleet`).
        self.clock = SimClock()
        self.hdfs = SimHdfs(datanodes=datanodes, clock=self.clock,
                            network=LAN)
        self.hbase = SimHBase(
            region_servers=region_servers, hdfs=self.hdfs,
            clock=self.clock, network=LAN,
            split_threshold_rows=split_threshold_rows,
        )
        self.pool = DocumentPool(self.hbase, delta=delta_routing,
                                 chunk_replicas=chunk_replicas)
        self.notifier = NotificationService(clock=self.clock, network=WAN)
        self.tfc = TfcServer(
            tfc_keypair, directory, backend=self.backend,
            clock=self.clock.now,
            verify_cache=verify_cache,
        )
        self.portals = [
            PortalServer(
                portal_id=f"portal{i}",
                pool=self.pool,
                directory=directory,
                tfc=self.tfc,
                notifier=self.notifier,
                clock=self.clock,
                network=WAN,
                backend=self.backend,
                verify_cache=verify_cache,
            )
            for i in range(portals)
        ]
        self._round_robin = 0
        #: Consistent-hash instance→portal pinning (``placement="ring"``).
        #: ``None`` keeps the historic round-robin front door.
        self.placement: PortalPlacement | None = None
        if placement == "ring":
            self.placement = PortalPlacement(
                [p.portal_id for p in self.portals])
        self._portal_by_id = {p.portal_id: p for p in self.portals}
        self.mapreduce = MapReduceEngine(self.hbase)

    # -- observability --------------------------------------------------------

    def attach_tracer(self, tracer) -> None:
        """Attach a :class:`repro.obs.Tracer` to this cloud (or detach
        with ``None``).

        One call covers the whole substrate: the shared clock's charge
        hook picks up every portal/HBase/HDFS/notify cost, and the TFC
        (which has no clock of its own) gets the span hook directly.
        """
        self.clock.tracer = tracer
        self.tfc.tracer = tracer

    # -- load balancing -------------------------------------------------------

    def next_portal(self) -> PortalServer:
        """Round-robin portal selection (any portal serves any user)."""
        portal = self.portals[self._round_robin % len(self.portals)]
        self._round_robin += 1
        return portal

    def portal_for(self, process_id: str) -> PortalServer:
        """The portal serving one process instance.

        Ring placement pins every instance to one portal by consistent
        hash of its process id (seed-stable, call-order-independent);
        without a ring every portal serves every instance and the
        round-robin-assigned client portal is as good as any.
        """
        if self.placement is None:
            return self.portals[0]
        return self._portal_by_id[self.placement.portal_for(process_id)]

    def client(self, keypair: KeyPair) -> "CloudClient":
        """A logged-in client for one participant."""
        return CloudClient(keypair, self)

    # -- fleet monitoring (MapReduce jobs of §4.2) -------------------------------

    def _count_pool(self, records) -> tuple[dict[str, int], JobStats]:
        """MapReduce: sum the ``(key, count)`` records that
        ``records(document)`` yields for each pooled latest document."""

        def map_fn(row_key, row):
            data = self.pool.row_bytes(row)
            if data is None:
                return ()
            return records(Dra4wfmsDocument.from_bytes(data))

        return self.mapreduce.run(DOC_TABLE, map_fn,
                                  lambda key, values: sum(values))

    def activity_statistics(self) -> tuple[dict[str, int], JobStats]:
        """MapReduce: executions per activity across all instances."""
        return self._count_pool(lambda document: (
            (cer.activity_id, 1)
            for cer in document.cers(include_definition=False)
            if cer.kind in ("standard", "tfc")))

    def participant_workload(self) -> tuple[dict[str, int], JobStats]:
        """MapReduce: executions per participant across the pool.

        The load-balancing input the paper's related work [14] computes
        server-side — here derived from CER metadata without decrypting
        anything.
        """
        return self._count_pool(lambda document: (
            (cer.participant, 1)
            for cer in document.cers(include_definition=False)
            if cer.kind in ("standard", "intermediate")))

    def instance_progress(self) -> tuple[dict[str, int], JobStats]:
        """MapReduce: completed executions per process instance."""
        return self._count_pool(lambda document: [(
            document.process_id,
            sum(1 for cer in document.cers(include_definition=False)
                if cer.kind in ("standard", "tfc")))])


@dataclass
class CloudClient:
    """Client-side helper: AEA + portal protocol (Fig. 7 arrows 1–6)."""

    keypair: KeyPair
    system: CloudSystem

    def __post_init__(self) -> None:
        self.agent = ActivityExecutionAgent(
            self.keypair, self.system.directory, self.system.backend)
        #: portal id → authenticated session at that front door.
        self._sessions: dict[str, Session] = {}
        if self.system.placement is None:
            self.portal: PortalServer = self.system.next_portal()
            self._login(self.portal)
        else:
            # Ring placement: log into every portal up front so
            # per-process routing never pays a mid-run login (and the
            # fleet's setup-cost capture covers all of them).
            for portal in self.system.portals:
                self._login(portal)
            self.portal = self.system.portals[0]
        #: Chunks this client holds (delta mode): everything the portal
        #: ever sent us plus everything we assembled locally — LRU-
        #: bounded when the cloud configures a byte budget.
        self.chunks = ChunkCache(max_bytes=self.system.chunk_cache_bytes)
        #: process id → doc_digest of the version we last retrieved.
        self._have: dict[str, str] = {}
        #: process id → digests of chunks we shipped in our own submits
        #: since the last retrieve (the portal must not send those back).
        self._own_chunks: dict[str, set[str]] = {}
        #: process id → digests of chunks the cloud is known to hold
        #: for that instance (it sent them to us, or accepted them from
        #: us) — what submits diff against.  The pool keeps each
        #: instance's chunks apart, so what one instance holds says
        #: nothing about another.
        self._cloud_known: dict[str, set[str]] = {}
        #: Wire accounting for the fleet/benchmark reports.
        self.bytes_received = 0
        self.bytes_sent = 0

    def _login(self, portal: PortalServer) -> Session:
        nonce = portal.challenge(self.keypair.identity)
        signature = self.system.backend.sign(
            self.keypair.private_key, b"dra4wfms-portal-login\x00" + nonce
        )
        session = portal.login(self.keypair.identity, signature)
        self._sessions[portal.portal_id] = session
        return session

    @property
    def session(self) -> Session:
        """The session at this client's default portal."""
        return self._sessions[self.portal.portal_id]

    def _route(self, process_id: str) -> tuple[PortalServer, Session]:
        """Portal + session serving one process (ring or default)."""
        if self.system.placement is None:
            return self.portal, self.session
        portal = self.system.portal_for(process_id)
        return portal, self._sessions[portal.portal_id]

    @property
    def identity(self) -> str:
        """The participant this client acts for."""
        return self.keypair.identity

    def todo(self):
        """Pending work items."""
        return self.portal.search_todo(self.session)

    def upload_initial(self, document: Dra4wfmsDocument) -> str:
        """Start a process instance."""
        portal, session = self._route(document.process_id)
        data = document.to_bytes()
        self.bytes_sent += len(data)
        return portal.upload_initial(session, data)

    # -- delta-aware transfer helpers ------------------------------------

    def retrieve_bytes(self, process_id: str) -> bytes:
        """Latest document bytes, moving only unseen chunks when possible.

        Delta mode is one round trip: the request names the version
        this client last received plus the digests of chunks it shipped
        itself on intervening submits, and the reply carries the latest
        manifest plus only the chunks not covered by either.  The
        document is reassembled and digest-checked locally.  Any delta
        failure falls back to a full retrieve — delta routing is an
        optimisation, never a liveness risk.
        """
        data, _ = self._retrieve(process_id)
        return data

    def _retrieve(self, process_id: str):
        """Shared retrieve: ``(bytes, manifest-or-None)``."""
        portal, session = self._route(process_id)
        if not self.system.delta_routing:
            data = portal.retrieve(session, process_id)
            self.bytes_received += len(data)
            return data, None
        own = self._own_chunks.get(process_id, set())
        try:
            delta = portal.retrieve_delta(
                session, process_id,
                self._have.get(process_id), frozenset(own),
            )
            with self.system.clock.trace("delta.decode", "delta"):
                data = decode_delta(delta, self.chunks)
        except (DeltaFallbackRequired, DeltaError, KeyError):
            data = portal.retrieve(session, process_id)
            self.bytes_received += len(data)
            return data, None
        self.bytes_received += delta.wire_bytes
        # The request itself carries the have-digest plus one digest
        # per chunk we asked the portal not to resend.
        self.bytes_sent += 64 + 64 * len(own)
        self._have[process_id] = delta.manifest.doc_digest
        # The new manifest covers every chunk we submitted before this
        # retrieve, so the have-digest subsumes the own-chunk list.
        self._own_chunks.pop(process_id, None)
        # Everything in the manifest lives in the instance's chunks.
        self._cloud_known.setdefault(process_id, set()).update(
            delta.manifest.chunk_digests)
        return data, delta.manifest

    def submit_document(self, document: Dra4wfmsDocument) -> list:
        """Submit an executed document, shipping only new chunks.

        A chunk this client counts as held may be missing from the
        instance's stored chunks (it assumed more than the pool holds):
        the portal names the missing chunks, and this client forgets
        them and resubmits the delta once with them before it ships the
        full document.
        """
        portal, session = self._route(document.process_id)
        if not self.system.delta_routing:
            data = document.to_bytes()
            self.bytes_sent += len(data)
            return portal.submit(session, data)
        known = self._cloud_known.setdefault(document.process_id, set())
        for retry in (False, True):
            with self.system.clock.trace("delta.encode", "delta"):
                delta = encode_delta(document, known=known)
            try:
                entries = portal.submit_delta(session, delta)
                break
            except DeltaFallbackRequired as exc:
                if retry or not exc.missing:
                    data = document.to_bytes()
                    self.bytes_sent += len(data)
                    return portal.submit(session, data)
                known.difference_update(exc.missing)
        self.bytes_sent += delta.wire_bytes
        known.update(delta.manifest.chunk_digests)
        self.chunks.add_all(delta.chunks)
        # Remember what we shipped so the next retrieve of this process
        # can ask the portal not to send our own CERs back.
        self._own_chunks.setdefault(
            document.process_id, set()).update(delta.chunks)
        return entries

    def checkout(self, process_id: str, activity_id: str,
                 responder: Responder) -> AeaResult:
        """Retrieve the latest document and execute it in the local AEA.

        Raises :class:`~repro.errors.JoinNotReady` when an AND-join is
        still missing sibling branches — retry after they arrive.

        The agent gets the retrieved bytes, so a returning participant
        verifies only what was appended since its last visit.  In delta
        mode the executed document's memo is then seeded from the
        retrieved chunks, so the submit chunks only the new CER.
        """
        data, manifest = self._retrieve(process_id)
        result = self.agent.execute_activity(
            data, activity_id, responder,
            mode="advanced",
            tfc_identity=self.system.tfc.identity,
            tfc_public_key=self.system.tfc.public_key,
        )
        if manifest is not None:
            seed_chunks(result.document, manifest, self.chunks)
        return result

    def execute(self, process_id: str, activity_id: str,
                responder: Responder) -> list:
        """Check out, execute in the local AEA, submit back (one hop).

        Raises :class:`~repro.errors.JoinNotReady` as :meth:`checkout`.
        """
        return self.submit_document(
            self.checkout(process_id, activity_id, responder).document)

    def monitor(self, process_id: str):
        """Execution status of one instance."""
        portal, session = self._route(process_id)
        return portal.monitor(session, process_id)


def drive_instance(clients: Sequence[CloudClient], process_id: str,
                   responders: Mapping[str, Responder]) -> int:
    """Poll *clients* until *process_id* has no work left; return hops.

    Every round, each client in turn executes the pending activities of
    the instance on its TO-DO list.  AND-joins that are not yet ready
    are retried in a later round, after the sibling branch lands.
    """
    hops = 0
    for _ in range(_MAX_ROUNDS):
        progressed = False
        pending = False
        for client in clients:
            for entry in client.todo():
                if entry.process_id != process_id:
                    continue
                pending = True
                responder = responders.get(entry.activity_id)
                if responder is None:
                    raise CloudError(
                        f"no responder for activity {entry.activity_id!r}"
                    )
                try:
                    client.execute(process_id, entry.activity_id, responder)
                except JoinNotReady:
                    continue
                progressed = True
                hops += 1
        if not pending:
            return hops
        if not progressed:
            raise CloudError(
                f"process {process_id!r} deadlocked: pending work exists "
                f"but nothing can execute"
            )
    raise CloudError(f"process {process_id!r} exceeded {_MAX_ROUNDS} rounds")


def run_process_in_cloud(
    system: CloudSystem,
    definition: WorkflowDefinition,
    initial_document: Dra4wfmsDocument,
    designer: KeyPair,
    keypairs: dict[str, KeyPair],
    responders: dict[str, Responder],
) -> Dra4wfmsDocument:
    """Drive one process instance through the cloud to completion.

    The designer uploads the initial document, then every other
    participant logs in and polls (see :func:`drive_instance`).
    Returns the final pooled document.
    """
    designer_client = system.client(designer)
    process_id = designer_client.upload_initial(initial_document)
    clients = [
        system.client(keypair)
        for identity, keypair in keypairs.items()
        if identity != designer.identity
    ]
    drive_instance(clients, process_id, responders)
    return system.pool.latest(process_id)
