"""Content-addressed chunking of DRA4WfMS documents (delta routing).

A DRA4WfMS document is append-only: every hop adds one CER and changes
nothing else.  Routed naively, an n-activity instance therefore moves
O(n²) bytes — hop k re-transfers the k-1 CERs the receiver (or the
portal) already holds.  This module splits the canonical serialization
into **content-addressed chunks** at CER boundaries:

* each CER subtree becomes one chunk (its exact canonical bytes — the
  same bytes its signature digests cover);
* the glue between CERs (document/header/section markup) becomes
  interstitial chunks;
* a :class:`Manifest` records the ordered chunk digests plus the digest
  of the whole document.

Concatenating the chunks in manifest order reproduces the canonical
serialization **byte for byte** (:func:`canonicalize_segments`
guarantees segment concatenation equals ``canonicalize(root)``), so a
reassembled document is indistinguishable from a full transfer — the
verifier runs over identical bytes, which is the entire security
argument (see ``docs/ROUTING.md``).

Chunks are keyed by their SHA-256; two versions of an instance that
contain the same bytes share one stored chunk.  A peer that already
holds version k of a document needs only the chunks it has never seen —
one CER per hop — plus the new manifest.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field

from ..errors import DeltaError, DeltaMismatch
from ..xmlsec.canonical import canonicalize_boundaries
from .document import Dra4wfmsDocument
from .sections import CER_TAG

__all__ = [
    "Chunk",
    "ChunkCache",
    "DeltaDocument",
    "Manifest",
    "assemble",
    "chunk_bytes",
    "chunk_digest",
    "chunk_document",
    "decode_delta",
    "encode_delta",
    "seed_chunks",
]

#: Format tag embedded in every serialized manifest (versioned so a
#: future chunking change cannot be confused with this one).
MANIFEST_FORMAT = "dra4wfms-manifest/1"


def chunk_digest(data: bytes) -> str:
    """Content address of a chunk: lowercase SHA-256 hex."""
    return hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class Chunk:
    """One manifest entry: a content-addressed slice of the document."""

    digest: str
    length: int
    is_cer: bool


@dataclass(frozen=True)
class Manifest:
    """Ordered chunk list reconstituting one document version.

    ``doc_digest`` is the SHA-256 of the full canonical serialization;
    reassembly always re-checks it, so a wrong, missing, or reordered
    chunk can never silently produce an accepted document.
    """

    process_id: str
    doc_digest: str
    doc_bytes: int
    chunks: tuple[Chunk, ...]

    @property
    def chunk_digests(self) -> list[str]:
        return [c.digest for c in self.chunks]

    @property
    def cer_digests(self) -> list[str]:
        """Digests of the CER chunks only, in document order."""
        return [c.digest for c in self.chunks if c.is_cer]

    def to_bytes(self) -> bytes:
        """Deterministic JSON serialization (sorted keys, no spaces),
        encoded once per manifest."""
        return self._encoded

    @functools.cached_property
    def _encoded(self) -> bytes:
        payload = {
            "format": MANIFEST_FORMAT,
            "process_id": self.process_id,
            "doc_digest": self.doc_digest,
            "doc_bytes": self.doc_bytes,
            "chunks": [[c.digest, c.length, c.is_cer] for c in self.chunks],
        }
        return json.dumps(payload, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")

    @staticmethod
    def describes(data: bytes, doc_digest: str) -> bool:
        """Whether encoded manifest *data* may describe the document
        whose digest is *doc_digest*, read without decoding it.  The
        encoding has one ``doc_digest`` key and escapes every quote
        inside a string, so a false match needs a crafted
        *doc_digest*; decode a match and compare to be sure."""
        needle = f'"doc_digest":"{doc_digest}"'
        return needle.encode("utf-8", "replace") in data

    @classmethod
    def from_bytes(cls, data: bytes) -> "Manifest":
        try:
            payload = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise DeltaError(f"malformed manifest: {exc}") from exc
        if not isinstance(payload, dict):
            raise DeltaError("malformed manifest: not a JSON object")
        if payload.get("format") != MANIFEST_FORMAT:
            raise DeltaError(
                f"unsupported manifest format {payload.get('format')!r}"
            )
        try:
            chunks = tuple(
                Chunk(digest=str(d), length=int(n), is_cer=bool(c))
                for d, n, c in payload["chunks"]
            )
            return cls(
                process_id=str(payload["process_id"]),
                doc_digest=str(payload["doc_digest"]),
                doc_bytes=int(payload["doc_bytes"]),
                chunks=chunks,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DeltaError(f"malformed manifest: {exc}") from exc


def chunk_bytes(document: Dra4wfmsDocument) -> list[tuple[Chunk, bytes]]:
    """Split *document* into ordered (chunk, bytes) pairs.

    Uses the document's canonical memo, so on the hot append-then-ship
    path only the newly appended CER is actually re-serialized — and
    only its digest is actually re-hashed: CER chunk digests are cached
    on the memo under the same invalidation contract as the bytes
    themselves (a mutation discards both).
    """
    memo = document._memo
    pairs: list[tuple[Chunk, bytes]] = []
    for is_cer, data, node in canonicalize_boundaries(document.root,
                                                      CER_TAG, memo):
        digest = None
        if node is not None and memo is not None:
            digest = memo.chunk_digest_of(node)
        if digest is None:
            digest = chunk_digest(data)
            if node is not None and memo is not None:
                memo.store_chunk_digest(node, digest)
        pairs.append((Chunk(digest=digest, length=len(data),
                            is_cer=is_cer), data))
    return pairs


def chunk_document(
    document: Dra4wfmsDocument,
) -> tuple[Manifest, dict[str, bytes]]:
    """Manifest plus digest-keyed chunk payloads for *document*."""
    pairs = chunk_bytes(document)
    digest = hashlib.sha256()
    total = 0
    for chunk, data in pairs:
        digest.update(data)
        total += chunk.length
    manifest = Manifest(
        process_id=document.process_id,
        doc_digest=digest.hexdigest(),
        doc_bytes=total,
        chunks=tuple(chunk for chunk, _ in pairs),
    )
    return manifest, {chunk.digest: data for chunk, data in pairs}


def assemble(manifest: Manifest, lookup) -> bytes:
    """Reassemble the full document bytes described by *manifest*.

    *lookup* maps a chunk digest to its bytes (raising ``KeyError`` for
    unknown digests — callers translate that into their own fallback).
    The result is verified against both the per-chunk digests and the
    whole-document digest before being returned; any corruption raises
    :class:`~repro.errors.DeltaMismatch`.
    """
    parts: list[bytes] = []
    for chunk in manifest.chunks:
        data = lookup[chunk.digest]
        if len(data) != chunk.length or chunk_digest(data) != chunk.digest:
            raise DeltaMismatch(
                f"chunk {chunk.digest[:12]}… does not match its content "
                f"address"
            )
        parts.append(data)
    blob = b"".join(parts)
    if (len(blob) != manifest.doc_bytes
            or hashlib.sha256(blob).hexdigest() != manifest.doc_digest):
        raise DeltaMismatch(
            f"reassembled document does not match manifest digest "
            f"{manifest.doc_digest[:12]}… (process {manifest.process_id})"
        )
    return blob


class ChunkCache:
    """Digest-keyed chunk bytes a routing peer has already seen.

    Chunks are immutable by construction (the digest *is* the key), so
    the cache needs no invalidation — only insert/lookup, plus counters
    for the benchmark reports.  With *max_bytes* set the cache is
    **LRU-bounded**: once the stored payloads exceed the byte budget the
    least-recently-used chunks are evicted (a long-lived routing peer
    touching thousands of instances must not accumulate the fleet's
    whole chunk history).  Eviction is safe by construction — a digest
    the peer no longer holds is re-requested or triggers the full-
    transfer fallback, never a wrong document.

    Both membership probes (``in``) and lookups count toward the
    hit/miss counters: callers commonly probe before reading, and a
    cache report that ignored probes would undercount traffic.
    """

    def __init__(self, max_bytes: int | None = None) -> None:
        if max_bytes is not None and max_bytes < 0:
            raise DeltaError("chunk cache byte budget must be >= 0")
        #: Insertion/access ordered: first key = least recently used.
        self._chunks: dict[str, bytes] = {}
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.evicted_bytes = 0
        #: Incremental byte counter — ``total_bytes`` must stay O(1),
        #: it is probed on every bounded insert.
        self._total_bytes = 0

    def __len__(self) -> int:
        return len(self._chunks)

    def _touch(self, digest: str) -> None:
        """Mark *digest* most recently used."""
        self._chunks[digest] = self._chunks.pop(digest)

    def __contains__(self, digest: str) -> bool:
        if digest in self._chunks:
            self.hits += 1
            self._touch(digest)
            return True
        self.misses += 1
        return False

    def __getitem__(self, digest: str) -> bytes:
        data = self._chunks.get(digest)
        if data is None:
            self.misses += 1
            raise KeyError(digest)
        self.hits += 1
        self._touch(digest)
        return data

    def _evict_to_budget(self) -> None:
        if self.max_bytes is None:
            return
        while self._total_bytes > self.max_bytes and len(self._chunks) > 1:
            # Oldest entry first; the just-inserted chunk is never
            # evicted ahead of colder ones (it is the newest), and a
            # single chunk larger than the whole budget stays resident
            # — evicting the bytes currently in use would only force an
            # immediate refetch.
            digest, data = next(iter(self._chunks.items()))
            del self._chunks[digest]
            self._total_bytes -= len(data)
            self.evictions += 1
            self.evicted_bytes += len(data)

    def add(self, digest: str, data: bytes) -> None:
        if chunk_digest(data) != digest:
            raise DeltaMismatch(
                f"refusing to cache chunk under wrong digest "
                f"{digest[:12]}…"
            )
        if digest in self._chunks:
            self._touch(digest)
            return
        self._chunks[digest] = data
        self._total_bytes += len(data)
        self._evict_to_budget()

    def add_all(self, chunks: dict[str, bytes]) -> None:
        for digest, data in chunks.items():
            self.add(digest, data)

    @property
    def total_bytes(self) -> int:
        """Stored payload bytes (maintained incrementally, O(1))."""
        return self._total_bytes

    def audit_total_bytes(self) -> int:
        """Full O(n) recount — tests assert it equals :attr:`total_bytes`."""
        return sum(len(data) for data in self._chunks.values())


@dataclass(frozen=True)
class DeltaDocument:
    """What actually crosses the wire in delta mode.

    The manifest describes the complete document; ``chunks`` carries
    only the payloads the receiver is not known to hold.  ``wire_bytes``
    is the transfer size the network layer charges for; it reuses the
    manifest's one encoding.
    """

    manifest: Manifest
    chunks: dict[str, bytes] = field(default_factory=dict)

    @property
    def wire_bytes(self) -> int:
        return (len(self.manifest.to_bytes())
                + sum(len(data) for data in self.chunks.values()))

    @property
    def full_bytes(self) -> int:
        """Size of the document a full transfer would have moved."""
        return self.manifest.doc_bytes


def encode_delta(document: Dra4wfmsDocument,
                 known: "ChunkCache | set[str] | None" = None,
                 ) -> DeltaDocument:
    """Encode *document* for a receiver that already holds *known* chunks."""
    manifest, payloads = chunk_document(document)
    if known is None:
        missing = payloads
    else:
        missing = {digest: data for digest, data in payloads.items()
                   if digest not in known}
    return DeltaDocument(manifest=manifest, chunks=missing)


def _boundary_nodes(root, boundary_tag):
    """Maximal *boundary_tag* subtrees of *root*, in document order."""
    nodes = []

    def walk(node):
        if not isinstance(node.tag, str):
            return
        if node.tag == boundary_tag:
            nodes.append(node)
            return
        for child in node:
            walk(child)

    walk(root)
    return nodes


def seed_chunks(document: Dra4wfmsDocument, manifest: Manifest,
                chunks) -> None:
    """Warm *document*'s canonical memo from canonical chunks.

    *document* must have been parsed from the byte concatenation the
    *manifest* describes (i.e. the output of :func:`assemble`, which
    checked every chunk digest and the whole-document digest), or be a
    path copy of such a document with CERs appended since (only its
    leading CERs are seeded), and *chunks* may hold only chunks known
    to be **canonical**: those the
    pool's chunk store holds, or that this side serialized itself.  A
    digest proves only which bytes arrived, and a client can ship a
    CER in a non-canonical form of the same infoset.  A canonical CER
    chunk is exactly the canonical serialization of the parsed CER
    subtree — round-trip stability
    (``canonicalize(parse(canonicalize(e))) == canonicalize(e)``)
    guarantees it — so the memo can be pre-loaded with the chunk string,
    its encoded bytes, and its content digest at zero serialization
    cost.  Without this, every ``from_bytes`` on the portal/store path
    starts cold and re-serializes the whole history on its next
    chunking or merge.

    This is a producer-side optimisation only: verification never reads
    the memo.  *chunks* is any digest→bytes mapping (``dict`` or
    :class:`ChunkCache`); missing digests just leave those entries cold.
    Structural mismatch (fewer CERs than the manifest names) silently
    seeds nothing.
    """
    memo = document._memo
    nodes = _boundary_nodes(document.root, CER_TAG)
    cer_chunks = [c for c in manifest.chunks if c.is_cer]
    if len(nodes) < len(cer_chunks):
        return
    for node, chunk in zip(nodes, cer_chunks):
        try:
            data = chunks[chunk.digest]
        except KeyError:
            continue
        if len(data) != chunk.length:
            continue
        memo.store(node, data.decode("utf-8"))
        memo.store_chunk(node, data, chunk.digest)


class _ChunkOverlay:
    """Lookup view: freshly received chunks first, then the cache.

    Assembly must never depend on the cache *retaining* bytes the
    receiver literally holds in hand — an LRU-bounded cache may evict
    one received chunk while inserting the next.
    """

    def __init__(self, fresh: dict[str, bytes], cache: ChunkCache) -> None:
        self._fresh = fresh
        self._cache = cache

    def __getitem__(self, digest: str) -> bytes:
        data = self._fresh.get(digest)
        if data is not None:
            return data
        return self._cache[digest]


def decode_delta(delta: DeltaDocument, cache: ChunkCache) -> bytes:
    """Reassemble a received :class:`DeltaDocument` against *cache*.

    Newly received chunks are verified and added to *cache* first, so
    repeated decodes of a growing document stay O(new CER) in received
    payload.  Raises ``KeyError`` when the sender assumed a chunk this
    cache does not hold, and :class:`~repro.errors.DeltaMismatch` when
    any byte fails its content address.
    """
    cache.add_all(delta.chunks)
    return assemble(delta.manifest, _ChunkOverlay(delta.chunks, cache))
