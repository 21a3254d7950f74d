"""Content-addressed signature-verification cache (incremental verify).

Every hop in DRA4WfMS re-runs whole-document verification: the AEA, the
TFC notary, the portal, and the auditor each re-check every signature in
the cascade from the definition CER forward — O(n) RSA verifies per
hop, O(n²) per process instance.  But a hop only ever *appends* CERs;
the prefix a receiver already verified arrives byte-identical.  The
cache remembers exactly which bytes each successful RSA check covered,
so an unchanged prefix costs hashing instead of modular exponentiation
and only the suffix appended since the last hop needs cryptographic
work.

A cache entry's key is a SHA-256 over

* the signer's public key ``(n, e)``,
* the canonical bytes of the ``<Signature>`` element itself (SignedInfo
  with all reference digests, SignatureValue, KeyInfo), and
* the canonical digest of every element the signature references, in
  reference order.

Any byte-level change to a cached CER — its result, its signature, a
covered predecessor signature, the header — changes the key, so a
tampered document can never hit the cache: it misses and falls through
to the full cryptographic check, which rejects it.  The tamper matrix
in ``tests/document/test_tamper_matrix.py`` proves this for every
section × mutation combination, warm and cold.

Keys are computed with :mod:`hashlib` rather than the pluggable crypto
backend, so entries are backend-independent: a document verified under
:class:`~repro.crypto.backend.PureBackend` warms the cache for
:class:`~repro.crypto.fast.FastBackend` and vice versa
(``tests/document/test_cross_backend_verify.py``).

The cache still canonicalizes and hashes every covered element to
prove the prefix unchanged.  A receiver that sees an instance again
skips even that by resuming from the document it verified last time
(:mod:`repro.document.resume`): that is the holder's own history,
kept apart from these shareable keys.

The cache is **opt-in** everywhere (``verify_document(..., cache=…)``):
the trust model is unchanged, and a receiver that does not want to rely
on its own history — an auditor, a portal doing a cold re-check —
simply omits it and gets the original O(n) verification.
"""

from __future__ import annotations

import hashlib
import threading
import xml.etree.ElementTree as ET
from collections import OrderedDict
from dataclasses import dataclass

from ..crypto.pure.rsa import RsaPublicKey
from ..errors import ReproError
from ..xmlsec.digest import pass_digest
from ..xmlsec.xmldsig import pass_referenced_ids

__all__ = ["CacheStats", "VerificationCache"]

#: Domain separator, bumped whenever the key derivation changes so stale
#: persisted keys can never alias a newer scheme.
_KEY_VERSION = b"repro.vcache.v1\x00"


def _sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def _sized(chunk: bytes) -> bytes:
    """Length-prefix *chunk* so concatenated fields cannot alias."""
    return len(chunk).to_bytes(8, "big") + chunk


@dataclass
class CacheStats:
    """Counters surfaced through :class:`repro.core.monitor.WorkflowMonitor`."""

    #: A probed signature was found already verified for these exact bytes.
    hits: int = 0
    #: A probed signature needed (or failed) the full cryptographic check.
    misses: int = 0
    #: Fresh verifications recorded into the cache.
    stores: int = 0
    #: Entries dropped — LRU eviction or explicit :meth:`VerificationCache.clear`.
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of probes answered from the cache (0.0 when unused)."""
        probes = self.hits + self.misses
        return self.hits / probes if probes else 0.0

    def snapshot(self) -> dict[str, int | float]:
        """Plain-dict view for monitoring dashboards."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "invalidations": self.invalidations,
            "hit_rate": self.hit_rate,
        }


class VerificationCache:
    """Bounded, thread-safe set of successfully verified signature keys.

    Safe to share between components (AEAs, the TFC, portals) and across
    threads: entries are content-addressed facts ("this signature
    verified over exactly these bytes under this key"), never document
    state, so sharing cannot leak one process instance's trust into
    another.
    """

    def __init__(self, max_entries: int = 65536) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: OrderedDict[bytes, None] = OrderedDict()
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    # -- key derivation ------------------------------------------------------

    @staticmethod
    def key_for(signature, public_key: RsaPublicKey,
                id_index: dict[str, ET.Element],
                digests: dict[int, bytes] | None = None) -> bytes | None:
        """Content key of *signature* in its current document context.

        Returns ``None`` when the signature cannot be keyed (malformed
        references, missing targets) — such signatures take the full
        verification path, which rejects them with a precise error.

        *digests* is an optional per-verification memo (element identity
        → canonical digest, see :func:`~repro.xmlsec.digest.pass_digest`):
        within one document, predecessor signatures are referenced by
        every successor in the cascade, so memoising keeps each
        element's canonicalization to one per verify pass.  A
        :class:`~repro.xmlsec.digest.PassDigests` also shares the pass's
        one parse of the signature's references.
        """
        hasher = hashlib.sha256(_KEY_VERSION)
        n = public_key.n
        hasher.update(_sized(n.to_bytes((n.bit_length() + 7) // 8, "big")))
        hasher.update(_sized(public_key.e.to_bytes(8, "big")))
        try:
            hasher.update(_sized(pass_digest(signature.element, digests,
                                              _sha256)))
            referenced = pass_referenced_ids(signature, digests)
        except ReproError:
            return None
        for ref_id in referenced:
            target = id_index.get(ref_id)
            if target is None:
                return None
            try:
                hasher.update(pass_digest(target, digests, _sha256))
            except ReproError:
                return None
        return hasher.digest()

    # -- lookup / insert -----------------------------------------------------

    def seen(self, key: bytes) -> bool:
        """Probe for *key*; counts a hit or a miss."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return True
            self.stats.misses += 1
            return False

    def record(self, key: bytes) -> None:
        """Remember a freshly verified key, evicting LRU past the bound."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return
            self._entries[key] = None
            self.stats.stores += 1
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.invalidations += 1

    def clear(self) -> None:
        """Drop every entry (counted as invalidations)."""
        with self._lock:
            self.stats.invalidations += len(self._entries)
            self._entries.clear()
