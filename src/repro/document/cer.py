"""Characteristic execution results (CERs).

Paper §2.1: the *characteristic execution result* of activity ``Aq`` is
``CER(Aq) = ({R_Aq}_ee, [{R_Aq}_ee, Sig(X''_Ap1), …]_Pri(Aq))`` — the
element-wise encrypted execution result together with the cascaded
signature.  With loops, ``CER(Aq^k)`` is indexed by the iteration
``k``.  The advanced model adds the *intermediate* CER (``CERit``,
result encrypted to the TFC server) and the TFC-produced final CER
carrying the timestamp.

This module wraps a ``<CER>`` XML element with typed accessors; CERs
are created by :mod:`repro.document.builder` and the runtime agents.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from ..errors import DocumentFormatError
from ..xmlsec.xmldsig import ID_ATTR, XmlSignature
from ..xmlsec.xmlenc import ENC_TAG, EncryptedValue
from .sections import (
    CER_TAG,
    KIND_DEFINITION,
    KIND_INTERMEDIATE,
    KIND_STANDARD,
    KIND_TFC,
    RESULT_TAG,
    TIMESTAMP_TAG,
)

__all__ = ["CER", "CerKey"]

#: (activity_id, iteration, kind) — the unique key of a CER in a document.
CerKey = tuple[str, int, str]

#: CER Kind for run-time amendments (see repro.document.amendments).
KIND_AMENDMENT = "amendment"

_VALID_KINDS = (KIND_DEFINITION, KIND_STANDARD, KIND_INTERMEDIATE,
                KIND_TFC, KIND_AMENDMENT)


class CER:
    """Typed view over one ``<CER>`` element."""

    def __init__(self, element: ET.Element) -> None:
        if element.tag != CER_TAG:
            raise DocumentFormatError(f"expected <CER>, got <{element.tag}>")
        if element.get("Kind") not in _VALID_KINDS:
            raise DocumentFormatError(
                f"CER has invalid Kind {element.get('Kind')!r}"
            )
        self.element = element

    # -- identity ------------------------------------------------------------

    @property
    def cer_id(self) -> str:
        """The element id."""
        value = self.element.get(ID_ATTR)
        if value is None:
            raise DocumentFormatError("CER has no Id")
        return value

    @property
    def activity_id(self) -> str:
        """Activity this CER belongs to."""
        value = self.element.get("Activity")
        if value is None:
            raise DocumentFormatError(f"CER {self.cer_id!r} has no Activity")
        return value

    @property
    def iteration(self) -> int:
        """Loop iteration index (0 for the first execution).

        The attribute is mandatory: defaulting a missing value would
        let a single corrupted byte in the attribute *name* silently
        relabel a CER (found by the byte-flip fuzzer).
        """
        raw = self.element.get("Iteration")
        if raw is None:
            raise DocumentFormatError(f"CER {self.cer_id!r} has no Iteration")
        try:
            return int(raw)
        except ValueError:
            raise DocumentFormatError(
                f"CER {self.cer_id!r} has non-integer Iteration"
            ) from None

    @property
    def kind(self) -> str:
        """One of ``definition``/``standard``/``intermediate``/``tfc``."""
        return self.element.get("Kind", "")

    @property
    def key(self) -> CerKey:
        """The (activity, iteration, kind) tuple identifying this CER."""
        return (self.activity_id, self.iteration, self.kind)

    @property
    def participant(self) -> str:
        """Identity that produced (and signed) this CER."""
        value = self.element.get("Participant")
        if value is None:
            raise DocumentFormatError(f"CER {self.cer_id!r} has no Participant")
        return value

    # -- content -------------------------------------------------------------

    @property
    def result_element(self) -> ET.Element | None:
        """The ``<ExecutionResult>`` child (None for definition CERs)."""
        return self.element.find(RESULT_TAG)

    def encrypted_fields(self) -> list[EncryptedValue]:
        """All element-wise-encrypted fields of the execution result."""
        result = self.result_element
        if result is None:
            return []
        return [EncryptedValue(node) for node in result.findall(ENC_TAG)]

    def encrypted_field(self, name: str) -> EncryptedValue:
        """Look up one encrypted field by logical name."""
        for value in self.encrypted_fields():
            if value.name == name:
                return value
        raise DocumentFormatError(
            f"CER {self.cer_id!r} has no field {name!r}"
        )

    @property
    def timestamp(self) -> float | None:
        """The TFC timestamp, if present."""
        node = self.element.find(TIMESTAMP_TAG)
        if node is None:
            return None
        try:
            return float(node.get("Time", ""))
        except ValueError:
            raise DocumentFormatError(
                f"CER {self.cer_id!r} has a malformed timestamp"
            ) from None

    @property
    def signature(self) -> XmlSignature:
        """The signature embedded in this CER."""
        node = self.element.find("Signature")
        if node is None:
            raise DocumentFormatError(f"CER {self.cer_id!r} has no Signature")
        return XmlSignature(node)

    @property
    def signature_id(self) -> str:
        """Id of this CER's signature element (cascade reference target)."""
        return self.signature.signature_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CER({self.activity_id}^{self.iteration} kind={self.kind} "
                f"by {self.participant})")
