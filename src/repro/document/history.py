"""What a verification pass reads of a document's CERs, kept for the hop.

To verify a document (paper §2.1, Algorithm 1) a receiver indexes its
ids, wraps its CERs and builds the "signs" relation between them.  The
rest of the hop needs the same facts: routing asks which CERs no other
CER countersigns yet (the frontier) and which CER of a predecessor's
latest execution the new signature must cover, the join check asks how
often each activity has run, the TFC asks which intermediate CER waits
for it, and appending a CER checks its ids against the index.

:class:`CerHistory` holds those facts for one document, and the four
rules over them: frontier, execution count, cascade signature and
pending intermediates.  A verification pass builds it by extending the
empty history by every CER (a cold pass) or a kept pass's history by
the appended CERs (a resumed pass, see :mod:`repro.document.resume`),
and hands it on with the document it accepted
(:meth:`~repro.document.document.Dra4wfmsDocument.history`).  Any other
document builds it from the empty state when asked, so each rule has
one implementation.

The rules depend on which CERs a document holds, not on their order: a
TFC CER may come before the intermediate CER it countersigns.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..errors import DocumentFormatError
from ..xmlsec.xmldsig import index_by_id
from .cer import CER, CerKey
from .nonrepudiation import add_signature_owners, relation_of
from .sections import KIND_INTERMEDIATE, KIND_STANDARD, KIND_TFC

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .document import Dra4wfmsDocument

__all__ = ["CerHistory"]


@dataclass(eq=False)
class CerHistory:
    """The id index and CERs of one document, and the rules over them.

    A history only grows (:meth:`extend`); one that another holder may
    still read is extended on a :meth:`copy`.
    """

    #: element id → element, for every element of the document
    ids: dict[str, ET.Element] = field(default_factory=dict)
    #: every CER in document order, the definition CER first
    cers: list[CER] = field(default_factory=list)
    #: (activity, iteration, kind) → CER
    by_key: dict[CerKey, CER] = field(default_factory=dict)
    #: activity → completed executions: the highest iteration of its
    #: standard and TFC CERs, plus one
    counts: dict[str, int] = field(default_factory=dict)
    #: key → intermediate CER no TFC CER finalises, in document order
    pending: dict[CerKey, CER] = field(default_factory=dict)
    #: ids of the CERs whose signature another CER signs
    countersigned: set[str] = field(default_factory=set)

    @classmethod
    def of(cls, document: Dra4wfmsDocument) -> CerHistory:
        """*document*'s history, built from the empty state as a cold
        verification pass builds it (without verifying anything)."""
        cers = document.cers()
        history = cls(ids=index_by_id(document.root))
        history.extend(cers, relation_of(cers, add_signature_owners({}, cers)))
        return history

    def copy(self) -> CerHistory:
        """A history to extend without changing this one."""
        return CerHistory(dict(self.ids), list(self.cers), dict(self.by_key),
                          dict(self.counts), dict(self.pending),
                          set(self.countersigned))

    def extend(self, cers: list[CER], relation: dict[str, set[str]]) -> None:
        """Add *cers*, the CERs after those held, given their part of the
        signs relation (:func:`~repro.document.nonrepudiation.relation_of`).

        Their ids are the caller's to index.  A second CER with the key
        of one held raises :class:`~repro.errors.DocumentFormatError`.
        """
        keyed = [(cer.key, cer) for cer in cers]
        by_key = self.by_key
        for key, cer in keyed:
            if key in by_key:
                raise DocumentFormatError(f"duplicate CER for {key}")
            by_key[key] = cer
        self.cers.extend(cers)
        for (activity_id, iteration, kind), cer in keyed:
            if kind == KIND_INTERMEDIATE:
                if (activity_id, iteration, KIND_TFC) not in by_key:
                    self.pending[activity_id, iteration, kind] = cer
            elif kind in (KIND_STANDARD, KIND_TFC):
                count = self.counts.get(activity_id)
                if count is None or iteration >= count:
                    self.counts[activity_id] = iteration + 1
                if kind == KIND_TFC:
                    self.pending.pop(
                        (activity_id, iteration, KIND_INTERMEDIATE), None)
        for signed in relation.values():
            self.countersigned |= signed

    # -- the rules -----------------------------------------------------------

    def frontier(self) -> list[CER]:
        """CERs whose signature no other CER has countersigned yet, in
        document order: the latest results, which the next activity's
        signature must cover to extend the cascade."""
        countersigned = self.countersigned
        return [cer for cer in self.cers if cer.cer_id not in countersigned]

    def execution_count(self, activity_id: str) -> int:
        """How many times *activity_id* has completed (highest iteration
        plus one).  Counts standard and TFC CERs: an intermediate CER
        means the TFC has not finalised the step yet."""
        return self.counts.get(activity_id, 0)

    def cascade_signature_of(self, activity_id: str,
                             iteration: int) -> CER | None:
        """The CER whose signature successors must countersign: the
        standard CER in the basic model; in the advanced model the TFC
        CER, which supersedes the intermediate one."""
        tfc = self.by_key.get((activity_id, iteration, KIND_TFC))
        if tfc is not None:
            return tfc
        return self.by_key.get((activity_id, iteration, KIND_STANDARD))

    def pending_intermediate(self) -> list[CER]:
        """Intermediate CERs not yet finalised by a TFC server."""
        return list(self.pending.values())
