"""XML digital signatures (XML-DSig style) with multi-reference support.

A :class:`XmlSignature` mirrors the structure of a W3C XML signature:

.. code-block:: xml

    <Signature Id="sig-A3-0">
      <SignedInfo>
        <Reference URI="#enc-A3-result"><DigestValue>…</DigestValue></Reference>
        <Reference URI="#sig-A2-0"><DigestValue>…</DigestValue></Reference>
      </SignedInfo>
      <SignatureValue>…</SignatureValue>
      <KeyInfo><KeyName>tony@megacorp</KeyName></KeyInfo>
    </Signature>

Signing canonicalizes ``SignedInfo`` (which contains the digests of all
referenced elements) and RSA-signs those bytes; verification recomputes
every reference digest against the *current* document and then checks
the RSA signature.  Because a Reference may point at another Signature
element, signatures compose into the cascade of §2.1 of the paper: the
signature of activity ``Ai`` covers the signature elements of all its
predecessors, hence (transitively) everything they signed.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass

from ..crypto.backend import CryptoBackend, default_backend
from ..crypto.pure.rsa import RsaPrivateKey, RsaPublicKey
from ..errors import ReproError, XmlSignatureError
from .canonical import canonicalize
from .digest import PassDigests, b64, digest_element, pass_digest, unb64

__all__ = ["Reference", "XmlSignature", "sign_references", "find_by_id",
           "index_by_id", "pass_references", "pass_referenced_ids",
           "ALG_PKCS1V15", "ALG_PSS"]

#: Attribute used for intra-document references.
ID_ATTR = "Id"

#: Supported SignatureMethod algorithm identifiers.
ALG_PKCS1V15 = "rsa-pkcs1v15-sha256"
ALG_PSS = "rsa-pss-sha256"
_SUPPORTED_ALGORITHMS = (ALG_PKCS1V15, ALG_PSS)


@dataclass(frozen=True)
class Reference:
    """One signed reference: an element id plus its digest."""

    uri: str          # "#<element-id>"
    digest: bytes

    @property
    def target_id(self) -> str:
        """The referenced element id (URI without the leading ``#``)."""
        if not self.uri.startswith("#"):
            raise XmlSignatureError(f"unsupported reference URI {self.uri!r}")
        return self.uri[1:]


def index_by_id(root: ET.Element) -> dict[str, ET.Element]:
    """Map every ``Id`` attribute in the tree to its element.

    Duplicate ids raise — a signature over an ambiguous reference would
    be meaningless (and is a classic signature-wrapping attack vector).
    """
    index: dict[str, ET.Element] = {}
    for elem in root.iter():
        eid = elem.get(ID_ATTR)
        if eid is None:
            continue
        if eid in index:
            raise XmlSignatureError(f"duplicate element id {eid!r}")
        index[eid] = elem
    return index


def find_by_id(root: ET.Element, element_id: str) -> ET.Element:
    """Return the element whose ``Id`` equals *element_id*."""
    found = None
    for elem in root.iter():
        if elem.get(ID_ATTR) == element_id:
            if found is not None:
                raise XmlSignatureError(f"duplicate element id {element_id!r}")
            found = elem
    if found is None:
        raise XmlSignatureError(f"no element with id {element_id!r}")
    return found


class XmlSignature:
    """Wrapper around a ``<Signature>`` element."""

    def __init__(self, element: ET.Element) -> None:
        if element.tag != "Signature":
            raise XmlSignatureError(
                f"expected <Signature>, got <{element.tag}>"
            )
        self.element = element

    # -- accessors -----------------------------------------------------------

    @property
    def signature_id(self) -> str:
        """The ``Id`` attribute of the signature element."""
        sid = self.element.get(ID_ATTR)
        if sid is None:
            raise XmlSignatureError("signature element has no Id")
        return sid

    @property
    def signer(self) -> str:
        """The identity named in ``KeyInfo/KeyName``."""
        node = self.element.find("KeyInfo/KeyName")
        if node is None or not node.text:
            raise XmlSignatureError("signature has no KeyInfo/KeyName")
        return node.text

    @property
    def signature_value(self) -> bytes:
        """The raw RSA signature bytes."""
        node = self.element.find("SignatureValue")
        if node is None:
            raise XmlSignatureError("signature has no SignatureValue")
        return unb64(node.text)

    @property
    def algorithm(self) -> str:
        """The SignatureMethod algorithm identifier."""
        node = self.element.find("SignedInfo/SignatureMethod")
        if node is None:
            raise XmlSignatureError("signature has no SignatureMethod")
        return node.get("Algorithm", "")

    @property
    def references(self) -> list[Reference]:
        """All signed references, in document order, parsed afresh on
        every read (a verification pass uses :func:`pass_references`)."""
        signed_info = self.element.find("SignedInfo")
        if signed_info is None:
            raise XmlSignatureError("signature has no SignedInfo")
        refs = []
        for node in signed_info.findall("Reference"):
            uri = node.get("URI")
            if uri is None:
                raise XmlSignatureError("Reference missing URI")
            digest_node = node.find("DigestValue")
            if digest_node is None:
                raise XmlSignatureError("Reference missing DigestValue")
            refs.append(Reference(uri=uri, digest=unb64(digest_node.text)))
        return refs

    @property
    def referenced_ids(self) -> list[str]:
        """Ids of all referenced elements."""
        return [ref.target_id for ref in self.references]

    # -- verification ----------------------------------------------------------

    def verify(self, public_key: RsaPublicKey, root: ET.Element,
               backend: CryptoBackend | None = None,
               id_index: dict[str, ET.Element] | None = None,
               digest_memo: dict[int, bytes] | None = None) -> None:
        """Verify this signature against the document rooted at *root*.

        Checks (1) that every referenced element's current digest equals
        the signed digest, and (2) the RSA signature over the canonical
        ``SignedInfo``.  Raises :class:`XmlSignatureError` on failure; an
        exception from the backend that is not a
        :class:`~repro.errors.ReproError` is a crash, not a verdict, and
        propagates as it is.

        *digest_memo* maps ``id(element)`` to its already-computed
        digest.  Cascaded signatures reference overlapping element sets,
        so one verification pass over a document recomputes the same
        digests O(n) times; a memo scoped to a single pass over a
        *static* tree (the verifier never mutates it) makes that O(n)
        canonicalizations total without weakening any check — a wrong
        cached digest still fails the comparison below.  A
        :class:`~repro.xmlsec.digest.PassDigests` memo also records the
        canonical text of what it digests.
        """
        backend = backend or default_backend()
        index = id_index if id_index is not None else index_by_id(root)
        for ref in pass_references(self, digest_memo):
            target = index.get(ref.target_id)
            if target is None:
                raise XmlSignatureError(
                    f"referenced element {ref.target_id!r} not found"
                )
            actual = pass_digest(target, digest_memo, backend.digest)
            if actual != ref.digest:
                raise XmlSignatureError(
                    f"digest mismatch for element {ref.target_id!r} "
                    f"(document was altered)"
                )
        signed_info = self.element.find("SignedInfo")
        if signed_info is None:
            raise XmlSignatureError("signature has no SignedInfo")
        algorithm = self.algorithm
        if algorithm not in _SUPPORTED_ALGORITHMS:
            raise XmlSignatureError(
                f"unsupported SignatureMethod {algorithm!r} "
                f"(supported: {', '.join(_SUPPORTED_ALGORITHMS)})"
            )
        message, signature = canonicalize(signed_info), self.signature_value
        try:
            if algorithm == ALG_PSS:
                backend.verify_pss(public_key, message, signature)
            else:
                backend.verify(public_key, message, signature)
        except XmlSignatureError:
            raise
        except ReproError as exc:
            raise XmlSignatureError(
                f"RSA signature of {self.signature_id!r} invalid: {exc}"
            ) from exc


def pass_references(signature: XmlSignature,
                    memo: dict[int, bytes] | None) -> list[Reference]:
    """:attr:`XmlSignature.references`, parsed once per pass when *memo*
    is the pass's :class:`~repro.xmlsec.digest.PassDigests` (a static
    tree).  A parse that raises is not remembered: every reader raises
    what a fresh parse raises."""
    if not isinstance(memo, PassDigests):
        return signature.references
    refs = memo.references.get(id(signature.element))
    if refs is None:
        refs = memo.references[id(signature.element)] = signature.references
    return refs


def pass_referenced_ids(signature: XmlSignature,
                        memo: dict[int, bytes] | None) -> list[str]:
    """:attr:`XmlSignature.referenced_ids` through :func:`pass_references`."""
    return [ref.target_id for ref in pass_references(signature, memo)]


def sign_references(signature_id: str,
                    signer: str,
                    private_key: RsaPrivateKey,
                    targets: list[ET.Element],
                    backend: CryptoBackend | None = None,
                    algorithm: str = ALG_PKCS1V15) -> XmlSignature:
    """Create a ``<Signature>`` covering *targets* (each must carry an Id).

    Parameters
    ----------
    signature_id:
        Id given to the new Signature element so later signatures can
        reference it (the cascade).
    signer:
        Identity recorded in KeyInfo; verification resolves it to a
        public key through the PKI directory.
    targets:
        Elements to sign.  Their **current canonical form** is digested.
    algorithm:
        ``rsa-pkcs1v15-sha256`` (default, deterministic — what the
        2012-era XML-DSig stacks used) or ``rsa-pss-sha256``
        (randomised, the modern recommendation).
    """
    backend = backend or default_backend()
    if algorithm not in _SUPPORTED_ALGORITHMS:
        raise XmlSignatureError(
            f"unsupported SignatureMethod {algorithm!r}"
        )
    sig = ET.Element("Signature", {ID_ATTR: signature_id})
    signed_info = ET.SubElement(sig, "SignedInfo")
    ET.SubElement(signed_info, "CanonicalizationMethod",
                  {"Algorithm": "repro-exc-c14n"})
    ET.SubElement(signed_info, "SignatureMethod",
                  {"Algorithm": algorithm})
    for target in targets:
        target_id = target.get(ID_ATTR)
        if target_id is None:
            raise XmlSignatureError(
                f"cannot sign element <{target.tag}> without an Id"
            )
        ref = ET.SubElement(signed_info, "Reference", {"URI": f"#{target_id}"})
        ET.SubElement(ref, "DigestMethod", {"Algorithm": "sha256"})
        digest_value = ET.SubElement(ref, "DigestValue")
        digest_value.text = b64(digest_element(target, backend))
    signature_value = ET.SubElement(sig, "SignatureValue")
    payload = canonicalize(signed_info)
    if algorithm == ALG_PSS:
        signature_value.text = b64(backend.sign_pss(private_key, payload))
    else:
        signature_value.text = b64(backend.sign(private_key, payload))
    key_info = ET.SubElement(sig, "KeyInfo")
    key_name = ET.SubElement(key_info, "KeyName")
    key_name.text = signer
    return XmlSignature(sig)
