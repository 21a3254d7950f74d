"""Process-instance state reconstruction from a DRA4WfMS document.

There is no workflow engine holding state: everything an agent needs —
which activities ran, what values the variables hold, what runs next —
is reconstructed from the routed document itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..crypto.backend import CryptoBackend, default_backend
from ..crypto.pure.rsa import RsaPrivateKey
from ..document.builder import INTERMEDIATE_BUNDLE_FIELD
from ..document.document import Dra4wfmsDocument
from ..document.sections import KIND_STANDARD, KIND_TFC
from ..errors import DocumentFormatError, XmlEncryptionError
from ..model.definition import WorkflowDefinition
from ..xmlsec.xmlenc import DecryptionMemo

__all__ = ["VariableView", "ExecutionStatus", "execution_status"]

Value = bool | int | float | str


class VariableView:
    """The workflow variables *one identity* can currently read.

    Scans the document's CERs in order and decrypts every field whose
    recipient list includes the identity; for looped activities the
    latest iteration wins.  This is what an AEA shows the participant
    ("the forms" of §1) and what guard evaluation runs on.
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
        backend = backend or default_backend()
        raw: dict[str, str] = {}
        for cer in document.history().cers:
            if cer.kind not in (KIND_STANDARD, KIND_TFC):
                continue
            for enc in cer.encrypted_fields():
                if enc.name == INTERMEDIATE_BUNDLE_FIELD:
                    continue
                if identity not in enc.recipients:
                    continue
                try:
                    plaintext = (
                        enc.decrypt(identity, private_key, backend)
                        if memo is None else
                        memo.decrypt(enc, identity, private_key, backend))
                except XmlEncryptionError:
                    # A reader listed but unable to decrypt means the
                    # document is corrupt; surface during verification,
                    # not here.
                    continue
                raw[enc.name] = plaintext.decode("utf-8")
        return cls(raw)

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
