"""Process-instance state reconstruction from a DRA4WfMS document.

There is no workflow engine holding state: everything an agent needs —
which activities ran, what values the variables hold, what runs next —
is reconstructed from the routed document itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..crypto.backend import CryptoBackend, default_backend
from ..crypto.pure.rsa import RsaPrivateKey
from ..document.builder import INTERMEDIATE_BUNDLE_FIELD
from ..document.cer import CER
from ..document.document import Dra4wfmsDocument
from ..document.sections import KIND_STANDARD, KIND_TFC
from ..errors import DocumentFormatError, XmlEncryptionError
from ..model.definition import WorkflowDefinition
from ..xmlsec.xmlenc import DecryptionMemo, EncryptedValue

__all__ = ["VariableView", "ExecutionStatus", "execution_status"]

Value = bool | int | float | str


def _value_fields(cer: CER) -> list[EncryptedValue]:
    """The fields of *cer* that hold workflow variables: those of
    standard and TFC CERs, minus the TFC-addressed result bundle."""
    if cer.kind not in (KIND_STANDARD, KIND_TFC):
        return []
    return [enc for enc in cer.encrypted_fields()
            if enc.name != INTERMEDIATE_BUNDLE_FIELD]


def _read(enc: EncryptedValue, identity: str, private_key: RsaPrivateKey,
          backend: CryptoBackend, memo: DecryptionMemo | None) -> str | None:
    """*enc*'s value as *identity*, or ``None`` when it does not decrypt.

    A reader listed but unable to decrypt means the document is corrupt;
    verification reports that, and a view skips the field.
    """
    try:
        plaintext = (enc.decrypt(identity, private_key, backend)
                     if memo is None else
                     memo.decrypt(enc, identity, private_key, backend))
    except XmlEncryptionError:
        return None
    return plaintext.decode("utf-8")


class VariableView:
    """The workflow variables *one identity* can currently read.

    Scans the document's CERs in order and decrypts every field whose
    recipient list includes the identity; for looped activities the
    latest iteration wins.  This is what guard evaluation runs on in the
    basic model and in the TFC; an AEA of the advanced model shows the
    participant ("the forms" of §1) only the requested variables
    (:meth:`for_requests`).
    """

    def __init__(self, raw: dict[str, str]) -> None:
        self._raw = raw

    @classmethod
    def for_reader(cls, document: Dra4wfmsDocument, identity: str,
                   private_key: RsaPrivateKey,
                   backend: CryptoBackend | None = None,
                   memo: DecryptionMemo | None = None) -> "VariableView":
        """Decrypt everything *identity* may read, over the CERs of the
        document's :meth:`~repro.document.document.Dra4wfmsDocument.history`
        (on a hop, the receiver's verification pass's).

        With *memo* (the reader's own; every AEA and TFC server keeps
        one), a field decrypted on an earlier hop from exactly the same
        inputs is not decrypted again, so a hop pays RSA only for the
        fields added since.  The view is the same with or without it.
        """
        return cls({}).extended(document.history().cers, identity,
                                private_key, backend, memo)

    @classmethod
    def for_requests(cls, document: Dra4wfmsDocument, names: Iterable[str],
                     identity: str, private_key: RsaPrivateKey,
                     backend: CryptoBackend | None = None,
                     memo: DecryptionMemo | None = None) -> "VariableView":
        """:meth:`for_reader` restricted to *names*, decrypting only
        their fields.

        Reads the history from the newest CER back and stops once every
        name is found: a name's value is its newest field that lists
        *identity* and decrypts, which is the one :meth:`for_reader`
        lets win.  A name no such field holds is not in the view.
        """
        backend = backend or default_backend()
        wanted = set(names)
        raw: dict[str, str] = {}
        for cer in reversed(document.history().cers):
            if not wanted:
                break
            for enc in reversed(_value_fields(cer)):
                if enc.name in wanted and identity in enc.recipients:
                    value = _read(enc, identity, private_key, backend, memo)
                    if value is not None:
                        raw[enc.name] = value
                        wanted.discard(enc.name)
        return cls(raw)

    def extended(self, cers: Sequence[CER], identity: str,
                 private_key: RsaPrivateKey,
                 backend: CryptoBackend | None = None,
                 memo: DecryptionMemo | None = None) -> "VariableView":
        """This view read on through *cers*, as :meth:`for_reader`
        reads them.  Given the view of a history's first CERs and the
        rest of its CERs, it returns the view of the whole history."""
        backend = backend or default_backend()
        raw = dict(self._raw)
        for cer in cers:
            for enc in _value_fields(cer):
                if identity in enc.recipients:
                    value = _read(enc, identity, private_key, backend, memo)
                    if value is not None:
                        raw[enc.name] = value
        return type(self)(raw)

    @property
    def raw(self) -> dict[str, str]:
        """Variable name → string value, as stored in the document."""
        return dict(self._raw)

    def typed(self, definition: WorkflowDefinition) -> dict[str, Value]:
        """Convert values using the declared field types (for guards).

        A value that does not parse as its declared ``int`` or ``float``
        raises :class:`~repro.errors.DocumentFormatError`.
        """
        types: dict[str, str] = {}
        for activity in definition.activities.values():
            for spec in activity.responses:
                types[spec.name] = spec.ftype
        out: dict[str, Value] = {}
        for name, text in self._raw.items():
            ftype = types.get(name, "string")
            if ftype in ("int", "float"):
                try:
                    out[name] = int(text) if ftype == "int" else float(text)
                except ValueError as exc:
                    raise DocumentFormatError(
                        f"field {name!r} holds {text!r}, not a {ftype}"
                    ) from exc
            elif ftype == "bool":
                out[name] = text.strip().lower() in ("1", "true", "yes")
            else:
                out[name] = text
        return out

    def merged_with(self, extra: dict[str, str]) -> "VariableView":
        """A view extended with (overriding) values, e.g. fresh responses."""
        raw = dict(self._raw)
        raw.update(extra)
        return VariableView(raw)

    def __contains__(self, name: str) -> bool:
        return name in self._raw

    def __getitem__(self, name: str) -> str:
        return self._raw[name]

    def __len__(self) -> int:
        return len(self._raw)


@dataclass
class ExecutionStatus:
    """Observable progress of a process instance (monitoring, §2.2)."""

    process_id: str
    completed: list[tuple[str, int]] = field(default_factory=list)
    pending_tfc: list[tuple[str, int]] = field(default_factory=list)
    timestamps: dict[tuple[str, int], float] = field(default_factory=dict)
    finished: bool = False

    @property
    def executions(self) -> int:
        """Total completed activity executions (loop iterations count)."""
        return len(self.completed)


def execution_status(document: Dra4wfmsDocument,
                     definition: WorkflowDefinition | None = None,
                     ) -> ExecutionStatus:
    """Derive an :class:`ExecutionStatus` without decrypting anything.

    Progress tracking needs only CER metadata (activity, iteration,
    timestamps) — confidential payloads stay sealed, which is exactly
    why the advanced model can offer monitoring without weakening the
    security policy.
    """
    status = ExecutionStatus(process_id=document.process_id)
    history = document.history()
    for cer in history.cers[1:]:
        key = (cer.activity_id, cer.iteration)
        if cer.kind in (KIND_STANDARD, KIND_TFC):
            status.completed.append(key)
            ts = cer.timestamp
            if ts is not None:
                status.timestamps[key] = ts
    for cer in history.pending_intermediate():
        status.pending_tfc.append((cer.activity_id, cer.iteration))
    if definition is not None:
        ends = set(definition.end_activities())
        status.finished = any(
            activity in ends for activity, _ in status.completed
        )
    return status
