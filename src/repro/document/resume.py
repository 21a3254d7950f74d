"""The documents a receiver verified in full, kept to resume from.

A hop only appends CERs, so the next copy of an instance a receiver
sees is, byte for byte, the copy it verified last time with CERs added
before the closing ``</ActivityExecutionResults></DRA4WfMSDocument>``.
A receiver that keeps, per process instance, the last received document
that verified in full (:class:`KeptPass`: its bytes, a path copy of its
tree, the verifier's pass state and the verification parameters) can
compare the new bytes with the kept ones and, when they extend them by
a clean run of ``<CER>`` elements, parse only those onto a path copy of
the kept tree; :func:`~repro.document.verify.verify_document` then
checks only the appended CERs.

A kept document is its holder's own history, not a fact any component
may share like a :class:`~repro.document.vcache.VerificationCache`
entry, so each receiver owns its :class:`KeptPasses`.  Only successful
passes are kept, and a kept tree is never mutated.

Resuming pays only when a receiver sees an instance again before
documents of :attr:`KeptPasses.LIMIT` other instances reach it, as
when instances run one after another.  Under more interleaving every
receipt is a cold pass, which still pays for keeping its document.
"""

from __future__ import annotations

import threading
import xml.etree.ElementTree as ET
from collections import OrderedDict
from dataclasses import dataclass

from ..errors import ReproError
from ..xmlsec.canonical import parse_xml
from .document import Dra4wfmsDocument, appended_bytes, process_id_of
from .sections import CER_TAG, RESULTS_TAG

__all__ = ["KeptPass", "KeptPasses"]


@dataclass(frozen=True)
class KeptPass:
    """A document its holder verified in full, kept to resume from.

    *state* is the verifier's pass state after the last CER of
    *document* (opaque here); *params* are the verification parameters
    it holds under.  *document* is never mutated: a resumed receipt
    builds on a :meth:`~Dra4wfmsDocument.clone_for_append` of it.
    """

    data: bytes
    document: Dra4wfmsDocument
    params: tuple
    state: object


def _appended_cers(suffix: bytes) -> list[ET.Element] | None:
    """The ``<CER>`` elements of *suffix*, or ``None`` unless it is a
    well-formed run of them with nothing else: no text before, between
    or after them, and no other element."""
    if not suffix:
        return []
    tag = RESULTS_TAG.encode("ascii")
    try:
        run = parse_xml(b"<" + tag + b">" + suffix + b"</" + tag + b">")
    except ReproError:
        return None
    if run.text or any(child.tag != CER_TAG or child.tail for child in run):
        return None
    return list(run)


class KeptPasses:
    """The last document of each process instance its holder verified
    in full, at most :attr:`LIMIT` of them, the least recently kept
    first out.  Thread-safe."""

    #: Kept documents.  The TFC drops a finished instance, an AEA cannot
    #: tell, and a kept 64 KiB document (the final ``chain:16:4`` one)
    #: holds about 0.42 MiB of live objects the garbage collector walks,
    #: its pass's CER history included (tracemalloc).
    LIMIT = 2

    def __init__(self) -> None:
        self._kept: OrderedDict[str, KeptPass] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._kept)

    def get(self, process_id: str) -> KeptPass | None:
        """The document kept for *process_id*, if any."""
        with self._lock:
            return self._kept.get(process_id)

    def resume(self, data: bytes, params: tuple,
               ) -> tuple[Dra4wfmsDocument, KeptPass | None,
                          list[ET.Element]]:
        """*data* parsed, with the kept document it extends.

        Returns ``(document, kept, appended)``.  When the document kept
        for *data*'s instance holds under *params* and *data* extends its
        bytes by a clean run of CERs (:func:`_appended_cers`), only those
        bytes are parsed: *document* is a path copy of the kept tree with
        the *appended* CER elements added.  Otherwise *document* is
        ``Dra4wfmsDocument.from_bytes(data)`` (which raises what it
        raises), *kept* is ``None`` and *appended* empty.  Either way
        *document* is the tree a full parse of *data* gives.
        """
        try:
            kept = self.get(process_id_of(data))
        except ReproError:
            kept = None
        if kept is not None and kept.params == params:
            suffix = appended_bytes(kept.data, data)
            cers = None if suffix is None else _appended_cers(suffix)
            if cers is not None:
                document = kept.document.clone_for_append()
                document.results_section.extend(cers)
                return document, kept, cers
        return Dra4wfmsDocument.from_bytes(data), None, []

    def keep(self, kept: KeptPass) -> None:
        """Remember *kept* as the latest verified document of its
        instance, dropping the least recently kept past the limit."""
        process_id = kept.document.process_id
        with self._lock:
            self._kept[process_id] = kept
            self._kept.move_to_end(process_id)
            while len(self._kept) > self.LIMIT:
                self._kept.popitem(last=False)

    def forget(self, process_id: str) -> None:
        """Drop the document kept for *process_id* (it terminated)."""
        with self._lock:
            self._kept.pop(process_id, None)
