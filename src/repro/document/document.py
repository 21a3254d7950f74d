"""The DRA4WfMS document: a self-protecting workflow process instance.

A :class:`Dra4wfmsDocument` wraps the XML tree and provides typed access
to the header, the (possibly encrypted) workflow definition, and the
list of CERs.  The document *is* the process instance — there is no
server-side state anywhere in the basic model.
"""

from __future__ import annotations

import copy
import uuid
import xml.etree.ElementTree as ET

from ..errors import CanonicalizationError, DocumentFormatError, TamperDetected
from ..model.definition import WorkflowDefinition
from ..model.xpdl import definition_from_xml
from ..xmlsec.canonical import CanonicalMemo, canonicalize, parse_xml
from ..xmlsec.xmldsig import ID_ATTR, index_by_id
from ..xmlsec.xmlenc import ENC_TAG, EncryptedValue
from ..crypto.backend import CryptoBackend, default_backend
from ..crypto.pure.rsa import RsaPrivateKey
from .cer import CER, CerKey
from .history import CerHistory
from .sections import (
    APPDEF_TAG,
    CER_TAG,
    DOC_TAG,
    HEADER_TAG,
    KIND_DEFINITION,
    KIND_STANDARD,
    RESULTS_TAG,
    WFDEF_TAG,
)

__all__ = ["Dra4wfmsDocument", "appended_bytes", "grows_by_append",
           "new_process_id", "process_id_of"]

#: How every canonical document ends: the results section is the root's
#: last child, so a hop's new CERs go right before these bytes.
_CLOSING = f"</{RESULTS_TAG}></{DOC_TAG}>".encode("utf-8")


def new_process_id() -> str:
    """Fresh globally-unique process id (replay-attack resistance, §2.1)."""
    return uuid.uuid4().hex


def grows_by_append(stored: bytes, data: bytes) -> bool:
    """True when canonical *data* only appends to canonical *stored*.

    That is the case when *stored* minus its closing tags is a byte
    prefix of *data*: *data* then holds every element of *stored*,
    byte-identical and in place, and adds content only at the end of
    the results section.  It has lost no CER of *stored* and needs no
    merge with it.
    """
    return (stored.endswith(_CLOSING)
            and data.startswith(memoryview(stored)[:-len(_CLOSING)]))


def appended_bytes(stored: bytes, data: bytes) -> bytes | None:
    """What *data* adds inside the results section of *stored*.

    The bytes between *stored* minus its closing tags and the same
    closing tags at the end of *data*, when :func:`grows_by_append`
    holds and *data* ends that way; otherwise ``None``.
    """
    if (len(data) < len(stored) or not data.endswith(_CLOSING)
            or not grows_by_append(stored, data)):
        return None
    return data[len(stored) - len(_CLOSING):len(data) - len(_CLOSING)]


#: Bytes :func:`process_id_of` feeds its parser at a time: the document
#: start tag and the header fit in about two feeds.
_HEADER_FEED = 256


def process_id_of(data: bytes) -> str:
    """``Dra4wfmsDocument.from_bytes(data).process_id``, parsing only as
    far as the header.

    Raises what the full parse raises for the bytes read; a fault after
    the header goes unnoticed here.  The parser is fed
    :data:`_HEADER_FEED` bytes at a time, so it stops soon after the
    header instead of parsing on into the definition.
    """
    parser = ET.XMLPullParser(events=("start", "end"))
    depth = 0
    try:
        for offset in range(0, len(data), _HEADER_FEED):
            parser.feed(data[offset:offset + _HEADER_FEED])
            for event, element in parser.read_events():
                if event == "end":
                    depth -= 1
                    continue
                if depth == 0 and element.tag != DOC_TAG:
                    raise DocumentFormatError(
                        f"expected <{DOC_TAG}>, got <{element.tag}>")
                if depth == 1 and element.tag == HEADER_TAG:
                    value = element.get("ProcessId")
                    if not value:
                        raise DocumentFormatError("header has no ProcessId")
                    return value
                depth += 1
        parser.close()
    except ET.ParseError as exc:
        raise CanonicalizationError(f"malformed XML: {exc}") from exc
    raise DocumentFormatError("document has no Header")


def _own_copy(element: ET.Element, children: list[ET.Element]) -> ET.Element:
    """*element* with its own attribute dict, holding *children*.

    Not ``copy.copy``: on the C ElementTree it shares the attribute dict.
    """
    copied = element.makeelement(element.tag, dict(element.items()))
    copied.text = element.text
    copied.tail = element.tail
    copied.extend(children)
    return copied


class Dra4wfmsDocument:
    """Typed wrapper around a ``<DRA4WfMSDocument>`` XML tree."""

    def __init__(self, root: ET.Element) -> None:
        if root.tag != DOC_TAG:
            raise DocumentFormatError(
                f"expected <{DOC_TAG}>, got <{root.tag}>"
            )
        self.root = root
        # Per-document canonical-bytes memo.  The documented mutation
        # surface is append_cer/merge (which invalidate the stale
        # entries); code that mutates ``self.root`` behind the
        # document's back must call drop_canonical_cache() before the
        # next serialization (and must own the tree: see clone()).
        self._memo = CanonicalMemo()
        # The history the verification pass that accepted this tree
        # built (see history()); dropped as soon as the tree changes.
        self._history: CerHistory | None = None

    # -- serialization ---------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Canonical byte serialization (what gets routed and stored).

        Memoised per subtree: on a document with n CERs only the CERs
        appended since the last serialization are re-escaped; everything
        unchanged is spliced from the canonical memo, making the hot
        serialize-after-append path O(new CER) instead of O(document).
        """
        return canonicalize(self.root, self._memo)

    def drop_canonical_cache(self) -> None:
        """Invalidate every memoised serialization of this document, and
        the history of the pass that verified it.

        Required after any direct mutation of ``self.root`` that
        bypasses :meth:`append_cer`/:meth:`merge` (tamper-simulation
        harnesses, tests).
        """
        self._memo.clear()
        self._history = None

    @classmethod
    def from_bytes(cls, data: bytes) -> "Dra4wfmsDocument":
        """Parse a routed/stored document."""
        return cls(parse_xml(data))

    @property
    def size_bytes(self) -> int:
        """Size of the canonical serialization (the paper's Σ column)."""
        return len(self.to_bytes())

    def clone(self) -> "Dra4wfmsDocument":
        """Deep, independent copy (routing must never share mutable trees).

        The clone starts with a *cold* canonical memo: clones are the
        designated way to obtain a mutable copy (tamper simulations,
        branch documents), and inherited cache entries would go stale
        under direct tree edits.  The clone rebuilds its memo on first
        serialization.
        """
        return Dra4wfmsDocument(copy.deepcopy(self.root))

    def clone_for_append(self) -> "Dra4wfmsDocument":
        """Path copy for the hot hop path (execute → append CER → serialize).

        The copy gets its own root and results section and shares every
        other element with this document: the header, the definition CER
        and every CER.  Its canonical memo is this document's, minus the
        entries of the two replaced elements, and its :meth:`history`
        this document's.  Copying therefore creates two elements however
        long the cascade, and the copy serializes byte-identically to a
        deep copy.

        The contract: after this call neither this document nor the copy
        is mutated in place, except through :meth:`append_cer` (which
        adds a CER to the document's own results section) and
        :meth:`merge` (which mutates neither input).  Any other mutation
        needs :meth:`clone`.
        """
        results = self.results_section
        new_results = _own_copy(results, list(results))
        root = _own_copy(self.root, [new_results if child is results
                                     else child for child in self.root])
        copied = Dra4wfmsDocument(root)
        copied._memo = self._memo.without(self.root, results)
        copied._history = self._history
        return copied

    # -- header -----------------------------------------------------------------

    @property
    def header(self) -> ET.Element:
        """The ``<Header>`` element."""
        node = self.root.find(HEADER_TAG)
        if node is None:
            raise DocumentFormatError("document has no Header")
        return node

    @property
    def process_id(self) -> str:
        """The unique process id (distinguishes instances, resists replay)."""
        value = self.header.get("ProcessId")
        if not value:
            raise DocumentFormatError("header has no ProcessId")
        return value

    @property
    def process_name(self) -> str:
        """Human-readable workflow name."""
        return self.header.get("ProcessName", "")

    # -- workflow definition ------------------------------------------------------

    @property
    def definition_cer(self) -> CER:
        """The definition CER (the paper's ``CER(A0)``)."""
        node = self.root.find(f"{APPDEF_TAG}/{CER_TAG}")
        if node is None:
            raise DocumentFormatError("document has no definition CER")
        return CER(node)

    @property
    def designer(self) -> str:
        """Identity of the workflow designer."""
        return self.definition_cer.participant

    def _wfdef_section(self) -> ET.Element:
        node = self.definition_cer.element.find(WFDEF_TAG)
        if node is None:
            raise DocumentFormatError(
                "definition CER has no WorkflowDefinitionSection"
            )
        return node

    @property
    def definition_is_encrypted(self) -> bool:
        """True when the workflow definition is element-wise encrypted."""
        section = self._wfdef_section()
        return section.find(ENC_TAG) is not None

    def definition(self, identity: str | None = None,
                   private_key: RsaPrivateKey | None = None,
                   backend: CryptoBackend | None = None) -> WorkflowDefinition:
        """Parse (decrypting if necessary) the workflow definition.

        For an encrypted definition the caller must supply the identity
        and private key of an authorised reader.
        """
        section = self._wfdef_section()
        encrypted = section.find(ENC_TAG)
        if encrypted is None:
            node = section.find("WorkflowDefinition")
            if node is None:
                raise DocumentFormatError(
                    "WorkflowDefinitionSection holds neither a plaintext "
                    "nor an encrypted definition"
                )
            return definition_from_xml(node)
        if identity is None or private_key is None:
            raise DocumentFormatError(
                "the workflow definition is encrypted; pass the identity "
                "and private key of an authorised reader"
            )
        backend = backend or default_backend()
        plaintext = EncryptedValue(encrypted).decrypt(
            identity, private_key, backend
        )
        return definition_from_xml(parse_xml(plaintext))

    # -- CERs -------------------------------------------------------------------

    @property
    def results_section(self) -> ET.Element:
        """The ``<ActivityExecutionResults>`` element."""
        node = self.root.find(RESULTS_TAG)
        if node is None:
            raise DocumentFormatError(
                "document has no ActivityExecutionResults section"
            )
        return node

    def cers(self, include_definition: bool = True) -> list[CER]:
        """All CERs in document order (the paper's ``Set_of_CER``)."""
        out: list[CER] = []
        if include_definition:
            out.append(self.definition_cer)
        out.extend(CER(node) for node in self.results_section.findall(CER_TAG))
        return out

    def cer_index(self) -> dict[CerKey, CER]:
        """Index CERs by (activity, iteration, kind); rejects duplicates."""
        index: dict[CerKey, CER] = {}
        for cer in self.cers():
            if cer.key in index:
                raise DocumentFormatError(
                    f"duplicate CER for {cer.key}"
                )
            index[cer.key] = cer
        return index

    def find_cer(self, activity_id: str, iteration: int,
                 kind: str = KIND_STANDARD) -> CER | None:
        """Look up one CER, or ``None``."""
        return self.cer_index().get((activity_id, iteration, kind))

    def history(self) -> CerHistory:
        """This document's id index and CERs, with the rules routing
        reads (:class:`~repro.document.history.CerHistory`).

        A document :func:`~repro.document.verify.verify_document`
        accepted carries the history that pass built, and so do its
        path copies (:meth:`clone_for_append`) until they change; any
        other document builds it here, from the tree.
        """
        if self._history is not None:
            return self._history
        return CerHistory.of(self)

    def execution_count(self, activity_id: str) -> int:
        """How many times *activity_id* has completed
        (:meth:`CerHistory.execution_count`)."""
        return self.history().execution_count(activity_id)

    def cascade_signature_of(self, activity_id: str,
                             iteration: int) -> CER | None:
        """The CER whose signature successors must countersign
        (:meth:`CerHistory.cascade_signature_of`)."""
        return self.history().cascade_signature_of(activity_id, iteration)

    def pending_intermediate(self) -> list[CER]:
        """Intermediate CERs not yet finalised by a TFC server."""
        return self.history().pending_intermediate()

    def append_cer(self, cer: CER) -> None:
        """Append a new CER, rejecting id collisions.

        The ids are checked against the :meth:`history` of the pass
        that verified this document when it has one, which this only
        reads (a receiver's kept pass holds the same index), and
        against an index of the tree otherwise.
        """
        history = self._history
        existing = (index_by_id(self.root) if history is None
                    else history.ids)
        for elem in cer.element.iter():
            eid = elem.get(ID_ATTR)
            if eid is not None and eid in existing:
                raise DocumentFormatError(
                    f"cannot append CER: id {eid!r} already present"
                )
        results = self.results_section
        # Appending stales the serialization of every ancestor of the
        # insertion point — the results section and the document root —
        # but of no sibling CER: their cached chunks stay valid.
        self._memo.discard(self.root)
        self._memo.discard(results)
        self._history = None
        results.append(cer.element)

    # -- AND-join merge --------------------------------------------------------------

    def merge(self, other: "Dra4wfmsDocument") -> "Dra4wfmsDocument":
        """Union of two documents of the same process instance (AND-join).

        Paper §2.1: at an AND-join the receiving AEA holds one routed
        document per branch; the sets of CERs are unioned.  CERs present
        in both copies must be byte-identical — a divergence means one
        branch was altered.
        """
        if self.process_id != other.process_id:
            raise DocumentFormatError(
                f"cannot merge documents of different process instances "
                f"({self.process_id} vs {other.process_id})"
            )
        merged = self.clone_for_append()
        own = {cer.key: cer for cer in merged.cers()}
        results = merged.results_section
        for cer in other.cers(include_definition=False):
            mine = own.get(cer.key)
            if mine is None:
                merged._memo.discard(merged.root)
                merged._memo.discard(results)
                merged._history = None
                results.append(copy.deepcopy(cer.element))
            # Shared CERs must be byte-identical; both serializations
            # come from (and populate) the respective document's memo,
            # so a k-way join compares cached chunks instead of
            # re-escaping every shared CER pairwise.
            elif (canonicalize(mine.element, merged._memo)
                    != canonicalize(cer.element, other._memo)):
                raise TamperDetected(
                    f"CER {cer.cer_id!r} differs between branch documents"
                )
        # Definition sections must agree too.
        own_def = canonicalize(self.definition_cer.element, self._memo)
        other_def = canonicalize(other.definition_cer.element, other._memo)
        if own_def != other_def:
            raise TamperDetected(
                "workflow definitions differ between branch documents"
            )
        return merged
