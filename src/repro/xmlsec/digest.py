"""Digest helpers for XML signature references."""

from __future__ import annotations

import base64
import binascii
import xml.etree.ElementTree as ET
from typing import Callable

from ..crypto.backend import CryptoBackend, default_backend
from ..errors import XmlSecError
from .canonical import CanonicalMemo, canonicalize

__all__ = ["PassDigests", "digest_element", "pass_digest", "b64", "unb64"]


def digest_element(element: ET.Element,
                   backend: CryptoBackend | None = None) -> bytes:
    """SHA-256 digest of the canonical form of *element*."""
    backend = backend or default_backend()
    return backend.digest(canonicalize(element))


class PassDigests(dict):
    """A pass memo (see :func:`pass_digest`) that records text.

    It stores the canonical text of every element it digests on
    *record*, the verified tree's own :class:`CanonicalMemo`, for the
    tree's later serialization.  It never reads *record*: every digest
    comes from a fresh :func:`canonicalize` of the current tree.  It
    also holds the pass's parse of each signature's references.
    """

    def __init__(self, record: CanonicalMemo) -> None:
        super().__init__()
        self.record = record
        #: id(signature element) → its parsed references (see
        #: :func:`~repro.xmlsec.xmldsig.pass_references`)
        self.references: dict[int, list] = {}


def pass_digest(element: ET.Element, digests: dict[int, bytes] | None,
                hash_bytes: Callable[[bytes], bytes]) -> bytes:
    """*hash_bytes* of *element*'s canonical form, once per pass.

    *digests* maps ``id(element)`` to a digest already computed in this
    pass over a *static* tree, so it must never outlive the tree.
    """
    if digests is None:
        return hash_bytes(canonicalize(element))
    digest = digests.get(id(element))
    if digest is None:
        data = canonicalize(element)
        digest = digests[id(element)] = hash_bytes(data)
        if isinstance(digests, PassDigests):
            digests.record.store(element, data.decode("utf-8"))
    return digest


def b64(data: bytes) -> str:
    """Base64-encode *data* for embedding in XML text nodes."""
    return base64.b64encode(data).decode("ascii")


def unb64(text: str | None) -> bytes:
    """Decode Base64 text from an XML node (``None`` → empty).

    Raises :class:`~repro.errors.XmlSecError` on malformed input —
    corrupted Base64 in a hostile document must fail closed, not leak
    a :class:`binascii.Error`.
    """
    if text is None:
        return b""
    try:
        return base64.b64decode(text.strip().encode("ascii"),
                                validate=True)
    except (binascii.Error, UnicodeEncodeError, ValueError) as exc:
        raise XmlSecError(f"malformed base64 content: {exc}") from exc
