"""Element-wise XML encryption (XML-Enc style).

The paper secures DRA4WfMS documents with *element-wise encryption*
[17,18,22]: each datum is encrypted under exactly the keys of the
participants allowed to read it, so one document can simultaneously
carry Peter's confidential input (readable by Amy only) and Tony's
(readable by John or Mary, decided later by the TFC).

The construction is hybrid:

* a fresh random AES-128 data key per encrypted element;
* the payload sealed with authenticated encryption
  (:meth:`CryptoBackend.seal`), with the element id, logical name and
  recipient list bound as associated data — moving a ciphertext to a
  different element or editing the recipient list breaks decryption;
* one ``<EncryptedKey>`` per authorised reader, wrapping the data key
  under that reader's RSA public key.

.. code-block:: xml

    <EncryptedData Id="enc-A1-X" Name="X" Algorithm="aes128ctr-hmacsha256">
      <KeyInfo>
        <EncryptedKey Recipient="amy@acme"><CipherValue>…</CipherValue></EncryptedKey>
      </KeyInfo>
      <CipherData><CipherValue>…</CipherValue></CipherData>
    </EncryptedData>

A routed document carries every earlier CER on every hop, so a reader
who decrypts all it may read meets the same ciphertexts again and again.
:class:`DecryptionMemo` remembers what one reader already decrypted, or
encrypted itself.
"""

from __future__ import annotations

import hashlib
import xml.etree.ElementTree as ET
from collections import OrderedDict

from ..crypto.backend import DATA_KEY_BYTES, CryptoBackend, default_backend
from ..crypto.pure.rsa import RsaPrivateKey, RsaPublicKey
from ..errors import ReproError, XmlEncryptionError
from .digest import b64, unb64

__all__ = [
    "DecryptionMemo",
    "EncryptedValue",
    "encrypt_value",
    "decrypt_value",
    "recipients_of",
    "is_encrypted_data",
]

ENC_TAG = "EncryptedData"

#: Default content-encryption algorithm (encrypt-then-MAC).
ALG_CTR_HMAC = "aes128ctr-hmacsha256"
#: AES-GCM alternative (single-pass AEAD).
ALG_GCM = "aes128gcm"
_SUPPORTED_ALGORITHMS = (ALG_CTR_HMAC, ALG_GCM)


def _aad(element_id: str, name: str, recipients: list[str]) -> bytes:
    """Associated data binding ciphertext to its location and readers."""
    return "\x00".join([element_id, name, *sorted(recipients)]).encode("utf-8")


class EncryptedValue:
    """Wrapper around an ``<EncryptedData>`` element."""

    def __init__(self, element: ET.Element) -> None:
        if element.tag != ENC_TAG:
            raise XmlEncryptionError(
                f"expected <{ENC_TAG}>, got <{element.tag}>"
            )
        self.element = element

    @property
    def element_id(self) -> str:
        """The ``Id`` attribute (signature reference target)."""
        eid = self.element.get("Id")
        if eid is None:
            raise XmlEncryptionError("EncryptedData has no Id")
        return eid

    @property
    def name(self) -> str:
        """Logical field name (e.g. the workflow variable)."""
        return self.element.get("Name", "")

    @property
    def recipients(self) -> list[str]:
        """Identities able to decrypt, sorted."""
        return sorted(
            node.get("Recipient", "")
            for node in self.element.findall("KeyInfo/EncryptedKey")
        )

    def wrapped_key_for(self, identity: str) -> bytes:
        """The RSA-wrapped data key addressed to *identity*."""
        for node in self.element.findall("KeyInfo/EncryptedKey"):
            if node.get("Recipient") == identity:
                cipher_value = node.find("CipherValue")
                if cipher_value is None:
                    raise XmlEncryptionError("EncryptedKey missing CipherValue")
                return unb64(cipher_value.text)
        raise XmlEncryptionError(
            f"{identity!r} is not an authorised reader of "
            f"{self.element_id!r} (readers: {', '.join(self.recipients) or 'none'})"
        )

    @property
    def ciphertext(self) -> bytes:
        """The sealed payload."""
        node = self.element.find("CipherData/CipherValue")
        if node is None:
            raise XmlEncryptionError("EncryptedData missing CipherData")
        return unb64(node.text)

    def decrypt(self, identity: str, private_key: RsaPrivateKey,
                backend: CryptoBackend | None = None) -> bytes:
        """Decrypt the payload as *identity*.

        Raises :class:`XmlEncryptionError` when the identity is not an
        authorised reader or the ciphertext/AAD was tampered with.  Only a
        :class:`~repro.errors.ReproError` of the backend (a
        :class:`~repro.errors.DecryptionError` on hostile input) reads as
        such a failure; any other exception is a crash and propagates.
        """
        backend = backend or default_backend()
        wrapped = self.wrapped_key_for(identity)
        try:
            data_key = backend.unwrap_key(private_key, wrapped)
        except ReproError as exc:
            raise XmlEncryptionError(
                f"cannot unwrap data key for {identity!r}: {exc}"
            ) from exc
        if len(data_key) != DATA_KEY_BYTES:
            raise XmlEncryptionError("unwrapped data key has wrong length")
        algorithm = self.element.get("Algorithm", ALG_CTR_HMAC)
        if algorithm not in _SUPPORTED_ALGORITHMS:
            raise XmlEncryptionError(
                f"unsupported encryption algorithm {algorithm!r}"
            )
        aad = _aad(self.element_id, self.name, self.recipients)
        try:
            if algorithm == ALG_GCM:
                return backend.open_gcm(data_key, self.ciphertext, aad)
            return backend.open_sealed(data_key, self.ciphertext, aad)
        except ReproError as exc:
            raise XmlEncryptionError(
                f"payload of {self.element_id!r} fails authentication: {exc}"
            ) from exc

    def memo_key(self, identity: str,
                 private_key: RsaPrivateKey) -> bytes | None:
        """SHA-256 of every input of :meth:`decrypt` as *identity*.

        Covers the reader's identity and key modulus, that reader's
        wrapped-key text, ``Algorithm``, ``Id`` and ``Name``, the
        recipient list and the ``CipherData`` text.  ``None`` when an
        input is missing, so :meth:`decrypt` raises.
        """
        element = self.element
        element_id = element.get("Id")
        cipher = element.find("CipherData/CipherValue")
        if element_id is None or cipher is None:
            return None
        recipients = []
        wrapped = None
        for node in element.findall("KeyInfo/EncryptedKey"):
            recipients.append(node.get("Recipient", ""))
            if wrapped is None and node.get("Recipient") == identity:
                wrapped = node.find("CipherValue")
                if wrapped is None:
                    return None
        if wrapped is None:
            return None
        inputs = (identity, hex(private_key.n), wrapped.text,
                  element.get("Algorithm", ALG_CTR_HMAC), element_id,
                  element.get("Name", ""), sorted(recipients), cipher.text)
        return hashlib.sha256(repr(inputs).encode("utf-8")).digest()


class DecryptionMemo:
    """Plaintexts a reader already decrypted or produced, keyed by the
    inputs of their decrypt.

    A hit needs the same :meth:`EncryptedValue.memo_key`: the digest of
    every input of one decrypt, so it stands for inputs that decrypt to
    that plaintext, whether this reader decrypted them (:meth:`decrypt`)
    or produced them (:meth:`record`: a TFC server re-encrypting a
    result for a reader set it belongs to).  Keying by the digest keeps
    an entry small.  Only successes are stored: a failing decrypt raises
    as without a memo, and is tried again next time.  Past :attr:`LIMIT`
    entries the oldest goes first.  Each access is one ``OrderedDict``
    call, so concurrent callers at worst decrypt the same value twice.

    A memo is a reader's private cache (each AEA and TFC server owns
    one); verification never reads it.
    """

    #: Entries kept; a full memo holds about 0.2 MiB.
    LIMIT = 1024

    __slots__ = ("_plaintexts",)

    def __init__(self) -> None:
        self._plaintexts: OrderedDict[bytes, bytes] = OrderedDict()

    def __len__(self) -> int:
        return len(self._plaintexts)

    def decrypt(self, value: EncryptedValue, identity: str,
                private_key: RsaPrivateKey,
                backend: CryptoBackend | None = None) -> bytes:
        """:meth:`EncryptedValue.decrypt`, unless this memo has the result."""
        key = value.memo_key(identity, private_key)
        if key is None:
            return value.decrypt(identity, private_key, backend)
        plaintext = self._plaintexts.get(key)
        if plaintext is None:
            plaintext = value.decrypt(identity, private_key, backend)
            self._store(key, plaintext)
        return plaintext

    def record(self, value: EncryptedValue, identity: str,
               private_key: RsaPrivateKey, plaintext: bytes) -> None:
        """Remember *plaintext* as what *value* decrypts to as
        *identity*, for a value this reader just encrypted from
        *plaintext* to a reader set that lists it."""
        key = value.memo_key(identity, private_key)
        if key is not None:
            self._store(key, plaintext)

    def _store(self, key: bytes, plaintext: bytes) -> None:
        self._plaintexts[key] = plaintext
        if len(self._plaintexts) > self.LIMIT:
            self._plaintexts.popitem(last=False)


def encrypt_value(element_id: str,
                  name: str,
                  plaintext: bytes,
                  recipients: dict[str, RsaPublicKey],
                  backend: CryptoBackend | None = None,
                  algorithm: str = ALG_CTR_HMAC) -> ET.Element:
    """Encrypt *plaintext* to every key in *recipients*.

    Returns the ``<EncryptedData>`` element.  At least one recipient is
    required — an unreadable ciphertext is always a policy bug.
    *algorithm* selects the content encryption: the default
    encrypt-then-MAC construction or ``aes128gcm``.
    """
    if not recipients:
        raise XmlEncryptionError(
            f"refusing to encrypt {name!r} with an empty recipient set"
        )
    if algorithm not in _SUPPORTED_ALGORITHMS:
        raise XmlEncryptionError(
            f"unsupported encryption algorithm {algorithm!r}"
        )
    backend = backend or default_backend()
    data_key = backend.random(DATA_KEY_BYTES)
    recipient_names = sorted(recipients)

    root = ET.Element(ENC_TAG, {
        "Id": element_id,
        "Name": name,
        "Algorithm": algorithm,
    })
    key_info = ET.SubElement(root, "KeyInfo")
    for identity in recipient_names:
        enc_key = ET.SubElement(key_info, "EncryptedKey",
                                {"Recipient": identity})
        cipher_value = ET.SubElement(enc_key, "CipherValue")
        cipher_value.text = b64(backend.wrap_key(recipients[identity], data_key))
    cipher_data = ET.SubElement(root, "CipherData")
    cipher_value = ET.SubElement(cipher_data, "CipherValue")
    aad = _aad(element_id, name, recipient_names)
    if algorithm == ALG_GCM:
        sealed = backend.seal_gcm(data_key, plaintext, aad)
    else:
        sealed = backend.seal(data_key, plaintext, aad)
    cipher_value.text = b64(sealed)
    return root


def decrypt_value(element: ET.Element, identity: str,
                  private_key: RsaPrivateKey,
                  backend: CryptoBackend | None = None) -> bytes:
    """Convenience wrapper: decrypt an ``<EncryptedData>`` element."""
    return EncryptedValue(element).decrypt(identity, private_key, backend)


def recipients_of(element: ET.Element) -> list[str]:
    """The authorised readers of an ``<EncryptedData>`` element."""
    return EncryptedValue(element).recipients


def is_encrypted_data(element: ET.Element) -> bool:
    """True when *element* is an ``<EncryptedData>`` node."""
    return element.tag == ENC_TAG
