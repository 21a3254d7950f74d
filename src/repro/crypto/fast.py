"""Fast crypto backend delegating to the ``cryptography`` wheel.

Exposes exactly the :class:`~repro.crypto.backend.CryptoBackend`
protocol over OpenSSL-backed primitives.  Keys remain the plain integer
dataclasses from :mod:`repro.crypto.pure.rsa`, so documents produced by
the pure backend verify here and vice versa — the property tests in
``tests/crypto/test_cross_backend.py`` rely on this.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
import os

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import padding, rsa
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from ..errors import DecryptionError, KeyError_, SignatureError
from .backend import sequential_verify_batch
from .pure.rsa import RsaPrivateKey, RsaPublicKey

__all__ = ["FastBackend"]


def _to_lib_private(key: RsaPrivateKey) -> rsa.RSAPrivateKey:
    p, q, d, n, e = key.p, key.q, key.d, key.n, key.e
    iqmp = rsa.rsa_crt_iqmp(p, q)
    dmp1 = rsa.rsa_crt_dmp1(d, p)
    dmq1 = rsa.rsa_crt_dmq1(d, q)
    pub = rsa.RSAPublicNumbers(e, n)
    return rsa.RSAPrivateNumbers(p, q, d, dmp1, dmq1, iqmp, pub).private_key()


def _to_lib_public(key: RsaPublicKey) -> rsa.RSAPublicKey:
    return rsa.RSAPublicNumbers(key.e, key.n).public_key()


class FastBackend:
    """OpenSSL-backed implementation of the backend protocol.

    RSA keys converted from the integer dataclasses are memoised per
    fingerprint because the conversion (CRT parameter recomputation) is
    itself significant compared to a signature.
    """

    name = "fast"

    def __init__(self) -> None:
        self._priv_cache: dict[int, rsa.RSAPrivateKey] = {}
        self._pub_cache: dict[tuple[int, int], rsa.RSAPublicKey] = {}

    # -- conversions (memoised) ---------------------------------------------

    def _priv(self, key: RsaPrivateKey) -> rsa.RSAPrivateKey:
        cached = self._priv_cache.get(key.n)
        if cached is None:
            cached = self._priv_cache[key.n] = _to_lib_private(key)
        return cached

    def _pub(self, key: RsaPublicKey) -> rsa.RSAPublicKey:
        cached = self._pub_cache.get((key.n, key.e))
        if cached is None:
            cached = self._pub_cache[(key.n, key.e)] = _to_lib_public(key)
        return cached

    # -- protocol -------------------------------------------------------------

    def digest(self, data: bytes) -> bytes:
        return hashlib.sha256(data).digest()

    def random(self, nbytes: int) -> bytes:
        return os.urandom(nbytes)

    def generate_keypair(self, bits: int = 2048) -> RsaPrivateKey:
        if bits < 512:
            raise KeyError_("refusing to generate RSA keys below 512 bits")
        key = rsa.generate_private_key(public_exponent=65537, key_size=bits)
        numbers = key.private_numbers()
        return RsaPrivateKey(
            n=numbers.public_numbers.n,
            e=numbers.public_numbers.e,
            d=numbers.d,
            p=numbers.p,
            q=numbers.q,
        )

    def sign(self, key: RsaPrivateKey, message: bytes) -> bytes:
        return self._priv(key).sign(message, padding.PKCS1v15(), hashes.SHA256())

    def verify(self, key: RsaPublicKey, message: bytes, signature: bytes) -> None:
        try:
            self._pub(key).verify(
                signature, message, padding.PKCS1v15(), hashes.SHA256()
            )
        except InvalidSignature as exc:
            raise SignatureError("signature does not verify") from exc

    def sign_pss(self, key: RsaPrivateKey, message: bytes) -> bytes:
        return self._priv(key).sign(
            message,
            padding.PSS(mgf=padding.MGF1(hashes.SHA256()), salt_length=32),
            hashes.SHA256(),
        )

    def verify_pss(self, key: RsaPublicKey, message: bytes,
                   signature: bytes) -> None:
        try:
            self._pub(key).verify(
                signature, message,
                padding.PSS(mgf=padding.MGF1(hashes.SHA256()),
                            salt_length=32),
                hashes.SHA256(),
            )
        except InvalidSignature as exc:
            raise SignatureError("PSS signature does not verify") from exc

    def verify_batch(self, jobs, workers=None):
        return sequential_verify_batch(self, jobs)

    def wrap_key(self, key: RsaPublicKey, data_key: bytes) -> bytes:
        return self._pub(key).encrypt(data_key, padding.PKCS1v15())

    def unwrap_key(self, key: RsaPrivateKey, wrapped: bytes) -> bytes:
        try:
            return self._priv(key).decrypt(wrapped, padding.PKCS1v15())
        except ValueError as exc:
            raise DecryptionError("RSA unwrap failed") from exc

    # Symmetric sealing mirrors the byte layout of the pure backend
    # (nonce || AES-CTR ciphertext || 16-byte HMAC tag with the same
    # derived sub-keys), so sealed blobs are backend-portable.

    def seal(self, data_key: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        enc_key = hashlib.sha256(b"repro.enc\x00" + data_key).digest()[:16]
        mac_key = hashlib.sha256(b"repro.mac\x00" + data_key).digest()
        nonce = os.urandom(16)
        enc = Cipher(algorithms.AES(enc_key), modes.CTR(nonce)).encryptor()
        ciphertext = enc.update(plaintext) + enc.finalize()
        tag = _hmac.new(
            mac_key,
            len(aad).to_bytes(8, "big") + aad + nonce + ciphertext,
            hashlib.sha256,
        ).digest()[:16]
        return nonce + ciphertext + tag

    def open_sealed(self, data_key: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
        if len(sealed) < 32:
            raise DecryptionError("sealed blob too short")
        enc_key = hashlib.sha256(b"repro.enc\x00" + data_key).digest()[:16]
        mac_key = hashlib.sha256(b"repro.mac\x00" + data_key).digest()
        nonce, body, tag = sealed[:16], sealed[16:-16], sealed[-16:]
        expected = _hmac.new(
            mac_key,
            len(aad).to_bytes(8, "big") + aad + nonce + body,
            hashlib.sha256,
        ).digest()[:16]
        if not _hmac.compare_digest(tag, expected):
            raise DecryptionError("authentication tag mismatch")
        dec = Cipher(algorithms.AES(enc_key), modes.CTR(nonce)).decryptor()
        return dec.update(body) + dec.finalize()

    def seal_gcm(self, data_key: bytes, plaintext: bytes,
                 aad: bytes = b"") -> bytes:
        from cryptography.hazmat.primitives.ciphers.aead import AESGCM

        iv = os.urandom(12)
        return iv + AESGCM(data_key).encrypt(iv, plaintext, aad)

    def open_gcm(self, data_key: bytes, sealed: bytes,
                 aad: bytes = b"") -> bytes:
        from cryptography.exceptions import InvalidTag
        from cryptography.hazmat.primitives.ciphers.aead import AESGCM

        if len(sealed) < 28:
            raise DecryptionError("GCM blob too short")
        try:
            return AESGCM(data_key).decrypt(sealed[:12], sealed[12:], aad)
        except InvalidTag as exc:
            raise DecryptionError("GCM authentication tag mismatch") from exc
