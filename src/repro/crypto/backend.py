"""Pluggable crypto backend protocol and the pure-Python implementation.

Every higher layer (XML security, documents, runtime) performs crypto
exclusively through a :class:`CryptoBackend`, so the whole system can run
either on the from-scratch primitives (:class:`PureBackend`) or on the
``cryptography`` wheel (:class:`repro.crypto.fast.FastBackend`) without
any other code change.  The test suite runs both and asserts they
interoperate (documents signed by one verify under the other).
"""

from __future__ import annotations

import secrets
from typing import Protocol, runtime_checkable

from ..errors import ReproError
from .pure.drbg import HmacDrbg
from .pure.modes import open_sealed, seal
from .pure.rsa import RsaPrivateKey, RsaPublicKey, generate_keypair
from .pure.sha256 import sha256

__all__ = [
    "CryptoBackend",
    "PureBackend",
    "VerifyJob",
    "default_backend",
    "sequential_verify_batch",
    "set_default_backend",
]

#: Symmetric data-key size in bytes (AES-128) used for element encryption.
DATA_KEY_BYTES = 16

#: One batched verification job: ``(public_key, message, signature,
#: algorithm)`` where *algorithm* is ``"pkcs1v15"`` or ``"pss"``.
VerifyJob = tuple[RsaPublicKey, bytes, bytes, str]


@runtime_checkable
class CryptoBackend(Protocol):
    """Operations the DRA4WfMS stack needs from a crypto provider."""

    name: str

    def digest(self, data: bytes) -> bytes:
        """SHA-256 digest of *data*."""

    def random(self, nbytes: int) -> bytes:
        """*nbytes* of cryptographically strong randomness."""

    def generate_keypair(self, bits: int = 2048) -> RsaPrivateKey:
        """Generate a fresh RSA key pair."""

    def sign(self, key: RsaPrivateKey, message: bytes) -> bytes:
        """RSASSA-PKCS1-v1_5/SHA-256 signature over *message*."""

    def verify(self, key: RsaPublicKey, message: bytes, signature: bytes) -> None:
        """Verify a signature; raise ``SignatureError`` on mismatch."""

    def sign_pss(self, key: RsaPrivateKey, message: bytes) -> bytes:
        """RSASSA-PSS/SHA-256 signature (randomised, MGF1, 32-byte salt)."""

    def verify_pss(self, key: RsaPublicKey, message: bytes,
                   signature: bytes) -> None:
        """Verify a PSS signature; raise ``SignatureError`` on mismatch."""

    def verify_batch(self, jobs: "list[VerifyJob]",
                     workers: int | None = None) -> list[Exception | None]:
        """Verify many signatures, in order, on the calling thread.

        Returns one entry per job, in job order: ``None`` for a valid
        signature, the ``SignatureError`` otherwise; any other exception
        propagates.  *workers* is accepted and ignored.  Nothing in
        ``repro`` calls this; it stays for wrappers that delegate it
        (``perfbench/layers.py``).
        """

    def wrap_key(self, key: RsaPublicKey, data_key: bytes) -> bytes:
        """Encrypt a symmetric data key to *key* (RSAES-PKCS1-v1_5)."""

    def unwrap_key(self, key: RsaPrivateKey, wrapped: bytes) -> bytes:
        """Decrypt a wrapped data key."""

    def seal(self, data_key: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Authenticated symmetric encryption (nonce || ct || tag)."""

    def open_sealed(self, data_key: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
        """Verify and decrypt the output of :meth:`seal`."""

    def seal_gcm(self, data_key: bytes, plaintext: bytes,
                 aad: bytes = b"") -> bytes:
        """AES-GCM sealing (96-bit IV || ciphertext || 16-byte tag)."""

    def open_gcm(self, data_key: bytes, sealed: bytes,
                 aad: bytes = b"") -> bytes:
        """Verify and decrypt the output of :meth:`seal_gcm`."""


class PureBackend:
    """Backend built entirely on :mod:`repro.crypto.pure`.

    Parameters
    ----------
    seed:
        When given, all randomness (key generation, nonces, padding) is
        drawn from a deterministic HMAC-DRBG — reproducible test runs.
    """

    name = "pure"

    def __init__(self, seed: bytes | None = None) -> None:
        self._rng = HmacDrbg(seed) if seed is not None else None

    def digest(self, data: bytes) -> bytes:
        return sha256(data)

    def random(self, nbytes: int) -> bytes:
        if self._rng is not None:
            return self._rng.generate(nbytes)
        return secrets.token_bytes(nbytes)

    def generate_keypair(self, bits: int = 2048) -> RsaPrivateKey:
        return generate_keypair(bits, self._rng)

    def sign(self, key: RsaPrivateKey, message: bytes) -> bytes:
        return key.sign(message)

    def verify(self, key: RsaPublicKey, message: bytes, signature: bytes) -> None:
        key.verify(message, signature)

    def sign_pss(self, key: RsaPrivateKey, message: bytes) -> bytes:
        return key.sign_pss(message, self._rng)

    def verify_pss(self, key: RsaPublicKey, message: bytes,
                   signature: bytes) -> None:
        key.verify_pss(message, signature)

    def verify_batch(self, jobs: list[VerifyJob],
                     workers: int | None = None) -> list[Exception | None]:
        return sequential_verify_batch(self, jobs)

    def wrap_key(self, key: RsaPublicKey, data_key: bytes) -> bytes:
        return key.encrypt(data_key, self._rng)

    def unwrap_key(self, key: RsaPrivateKey, wrapped: bytes) -> bytes:
        return key.decrypt(wrapped)

    def seal(self, data_key: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        return seal(data_key, plaintext, aad, self._rng)

    def open_sealed(self, data_key: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
        return open_sealed(data_key, sealed, aad)

    def seal_gcm(self, data_key: bytes, plaintext: bytes,
                 aad: bytes = b"") -> bytes:
        from .pure.gcm import gcm_encrypt

        iv = self.random(12)
        ciphertext, tag = gcm_encrypt(data_key, iv, plaintext, aad)
        return iv + ciphertext + tag

    def open_gcm(self, data_key: bytes, sealed: bytes,
                 aad: bytes = b"") -> bytes:
        from ..errors import DecryptionError
        from .pure.gcm import gcm_decrypt

        if len(sealed) < 28:
            raise DecryptionError("GCM blob too short")
        return gcm_decrypt(data_key, sealed[:12], sealed[12:-16],
                           sealed[-16:], aad)


def _verify_one(backend: CryptoBackend, job: VerifyJob) -> ReproError | None:
    """A job's verdict.  Only a :class:`~repro.errors.ReproError` (both
    backends raise ``SignatureError`` for every bad signature) is one;
    anything else propagates, so a crash never reads as a bad signature."""
    public_key, message, signature, algorithm = job
    try:
        if algorithm == "pss":
            backend.verify_pss(public_key, message, signature)
        elif algorithm == "pkcs1v15":
            backend.verify(public_key, message, signature)
        else:
            raise ValueError(f"unknown batch algorithm {algorithm!r}")
    except ReproError as exc:
        return exc
    return None


def sequential_verify_batch(backend: CryptoBackend,
                            jobs: list[VerifyJob]) -> list[Exception | None]:
    """The one batch implementation: in order, one check per job."""
    return [_verify_one(backend, job) for job in jobs]


_default: CryptoBackend | None = None


def default_backend() -> CryptoBackend:
    """Return the process-wide default backend.

    Prefers the fast (``cryptography``-based) backend when the wheel is
    importable, falling back to the pure backend otherwise.
    """
    global _default
    if _default is None:
        try:
            from .fast import FastBackend

            _default = FastBackend()
        except ImportError:  # pragma: no cover - environment dependent
            _default = PureBackend()
    return _default


def set_default_backend(backend: CryptoBackend | None) -> None:
    """Override (or with ``None``, reset) the process-wide default backend."""
    global _default
    _default = backend
