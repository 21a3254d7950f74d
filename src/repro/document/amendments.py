"""Dynamic flow control and dynamic security policy (run-time amendments).

The paper lists among DRA4WfMS's features: "It can support dynamic flow
control and a dynamic security policy in its run-time environment."
This module realises that feature in the only way consistent with an
engine-less architecture: an amendment is itself a **signed CER** in the
routed document.

An amendment CER carries a plaintext ``<AmendmentSpec>`` payload and a
signature that countersigns the document frontier, so amendments are
*ordered*, *nonrepudiable*, and *tamper-evident* exactly like execution
results.  Three amendment kinds cover the paper's feature:

``delegate``
    Re-assign the designated participant of an activity (a participant
    hands their desk to a deputy).  May be signed by the activity's
    *currently designated* participant or by the workflow designer.
``add-activity``
    Insert an ad-hoc activity into a sequence edge (dynamic flow
    control).  Designer-only.
``grant-reader``
    Extend the reader set of a response field for *future* encryptions
    (dynamic security policy).  Past ciphertexts are untouched — a
    grant cannot retroactively decrypt history.  May be signed by the
    designer or by the field's producing participant.

Every agent derives the **effective definition** by replaying the
amendment CERs in document order on top of the designer-signed base
definition; verification re-checks each amendment's authorisation
against the definition *as amended so far*, so a delegation chain is
honoured (the deputy may delegate onward).
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass

from ..crypto.backend import CryptoBackend, default_backend
from ..crypto.pure.rsa import RsaPrivateKey
from ..errors import DefinitionError, DocumentFormatError, VerificationError
from ..model.activity import Activity, FieldSpec
from ..model.controlflow import Transition
from ..model.definition import WorkflowDefinition
from ..model.policy import FieldRule, ReaderClause
from .cer import CER, KIND_AMENDMENT
from .document import Dra4wfmsDocument
from .sections import CER_TAG

__all__ = [
    "AMENDMENT_ACTIVITY",
    "KIND_AMENDMENT",
    "SPEC_TAG",
    "Amendment",
    "DelegateActivity",
    "AddActivity",
    "GrantReader",
    "amendment_to_xml",
    "amendment_from_xml",
    "apply_amendment",
    "check_authorized",
    "amendment_cers",
    "effective_definition",
    "make_amendment_cer",
]

#: Pseudo activity id carried by amendment CERs.
AMENDMENT_ACTIVITY = "__amendment__"

SPEC_TAG = "AmendmentSpec"


@dataclass(frozen=True)
class DelegateActivity:
    """Re-assign the designated participant of *activity_id*."""

    activity_id: str
    new_participant: str
    reason: str = ""

    kind = "delegate"


@dataclass(frozen=True)
class AddActivity:
    """Insert *activity* on the sequence edge *after* → *before*."""

    activity: Activity
    after: str
    before: str
    reason: str = ""

    kind = "add-activity"


@dataclass(frozen=True)
class GrantReader:
    """Add *reader* to the reader set of ``activity_id.fieldname``."""

    activity_id: str
    fieldname: str
    reader: str
    reason: str = ""

    kind = "grant-reader"


Amendment = DelegateActivity | AddActivity | GrantReader


def amendment_to_xml(amendment: Amendment, spec_id: str) -> ET.Element:
    """Serialize an amendment into an ``<AmendmentSpec>`` element."""
    spec = ET.Element(SPEC_TAG, {"Id": spec_id, "Kind": amendment.kind})
    if amendment.reason:
        reason = ET.SubElement(spec, "Reason")
        reason.text = amendment.reason
    if isinstance(amendment, DelegateActivity):
        ET.SubElement(spec, "Delegate", {
            "Activity": amendment.activity_id,
            "NewParticipant": amendment.new_participant,
        })
    elif isinstance(amendment, AddActivity):
        insert = ET.SubElement(spec, "Insert", {
            "After": amendment.after, "Before": amendment.before,
        })
        node = ET.SubElement(insert, "Activity", {
            "ActivityId": amendment.activity.activity_id,
            "Participant": amendment.activity.participant,
            "Split": amendment.activity.split.value,
            "Join": amendment.activity.join.value,
        })
        if amendment.activity.name:
            node.set("Name", amendment.activity.name)
        if amendment.activity.requests:
            requests = ET.SubElement(node, "Requests")
            for name in amendment.activity.requests:
                request = ET.SubElement(requests, "Request")
                request.text = name
        if amendment.activity.responses:
            responses = ET.SubElement(node, "Responses")
            for field_spec in amendment.activity.responses:
                ET.SubElement(responses, "Response", {
                    "Name": field_spec.name, "Type": field_spec.ftype,
                })
    elif isinstance(amendment, GrantReader):
        ET.SubElement(spec, "Grant", {
            "Activity": amendment.activity_id,
            "Field": amendment.fieldname,
            "Reader": amendment.reader,
        })
    else:  # pragma: no cover - exhaustive
        raise DocumentFormatError(f"unknown amendment {amendment!r}")
    return spec


def amendment_from_xml(spec: ET.Element) -> Amendment:
    """Parse an ``<AmendmentSpec>`` element back into an amendment."""
    if spec.tag != SPEC_TAG:
        raise DocumentFormatError(f"expected <{SPEC_TAG}>, got <{spec.tag}>")
    kind = spec.get("Kind", "")
    reason_node = spec.find("Reason")
    reason = reason_node.text or "" if reason_node is not None else ""
    if kind == "delegate":
        node = spec.find("Delegate")
        if node is None:
            raise DocumentFormatError("delegate amendment missing body")
        return DelegateActivity(
            activity_id=node.get("Activity", ""),
            new_participant=node.get("NewParticipant", ""),
            reason=reason,
        )
    if kind == "add-activity":
        insert = spec.find("Insert")
        node = spec.find("Insert/Activity") if insert is not None else None
        if insert is None or node is None:
            raise DocumentFormatError("add-activity amendment missing body")
        from ..model.controlflow import JoinKind, SplitKind

        try:
            split = SplitKind(node.get("Split", "none"))
            join = JoinKind(node.get("Join", "none"))
        except ValueError as exc:
            raise DocumentFormatError(
                f"add-activity amendment: {exc}") from exc
        activity = Activity(
            activity_id=node.get("ActivityId", ""),
            participant=node.get("Participant", ""),
            name=node.get("Name", ""),
            requests=tuple(
                request.text or ""
                for request in node.findall("Requests/Request")
            ),
            responses=tuple(
                FieldSpec(name=response.get("Name", ""),
                          ftype=response.get("Type", "string"))
                for response in node.findall("Responses/Response")
            ),
            split=split,
            join=join,
        )
        return AddActivity(
            activity=activity,
            after=insert.get("After", ""),
            before=insert.get("Before", ""),
            reason=reason,
        )
    if kind == "grant-reader":
        node = spec.find("Grant")
        if node is None:
            raise DocumentFormatError("grant-reader amendment missing body")
        return GrantReader(
            activity_id=node.get("Activity", ""),
            fieldname=node.get("Field", ""),
            reader=node.get("Reader", ""),
            reason=reason,
        )
    raise DocumentFormatError(f"unknown amendment kind {kind!r}")


def check_authorized(amendment: Amendment, signer: str,
                     definition: WorkflowDefinition) -> None:
    """Authorisation rules, checked against the definition *as amended
    so far* (so delegation chains compose).

    Raises :class:`VerificationError` when *signer* may not apply
    *amendment*.
    """
    designer = definition.designer
    if isinstance(amendment, DelegateActivity):
        current = definition.activity(amendment.activity_id).participant
        if signer not in (current, designer):
            raise VerificationError(
                f"delegation of {amendment.activity_id!r} signed by "
                f"{signer!r}, but only {current!r} (current participant) "
                f"or the designer may delegate it"
            )
        return
    if isinstance(amendment, AddActivity):
        if signer != designer:
            raise VerificationError(
                f"ad-hoc activity {amendment.activity.activity_id!r} "
                f"added by {signer!r}; only the designer may change the "
                f"control flow"
            )
        return
    if isinstance(amendment, GrantReader):
        producer = definition.activity(amendment.activity_id).participant
        if signer not in (producer, designer):
            raise VerificationError(
                f"reader grant on {amendment.activity_id}."
                f"{amendment.fieldname} signed by {signer!r}; only the "
                f"producer ({producer!r}) or the designer may grant"
            )
        return
    raise VerificationError(f"unknown amendment {amendment!r}")


def apply_amendment(definition: WorkflowDefinition,
                    amendment: Amendment) -> WorkflowDefinition:
    """Return a new definition with *amendment* applied."""
    updated = WorkflowDefinition.from_dict(definition.to_dict())
    if isinstance(amendment, DelegateActivity):
        old = updated.activity(amendment.activity_id)
        replacement = Activity.from_dict({
            **old.to_dict(), "participant": amendment.new_participant,
        })
        updated.activities[amendment.activity_id] = replacement
        return updated
    if isinstance(amendment, AddActivity):
        if amendment.activity.activity_id in updated.activities:
            raise DefinitionError(
                f"ad-hoc activity id {amendment.activity.activity_id!r} "
                f"already exists"
            )
        edge = None
        for transition in updated.transitions:
            if (transition.source == amendment.after
                    and transition.target == amendment.before):
                edge = transition
                break
        if edge is None:
            raise DefinitionError(
                f"no sequence edge {amendment.after!r} -> "
                f"{amendment.before!r} to insert into"
            )
        updated.transitions.remove(edge)
        updated.add_activity(amendment.activity)
        new_id = amendment.activity.activity_id
        updated.add_transition(Transition(
            source=amendment.after, target=new_id,
            condition=edge.condition, priority=edge.priority,
        ))
        updated.add_transition(Transition(source=new_id,
                                          target=amendment.before))
        return updated
    if isinstance(amendment, GrantReader):
        key = (amendment.activity_id, amendment.fieldname)
        rule = updated.policy.rules.get(key)
        if rule is None:
            # No explicit rule: materialise the implicit requester rule
            # and extend it.
            readers = set(updated.policy.readers_for(
                updated, amendment.activity_id, amendment.fieldname
            ))
            readers.add(amendment.reader)
            updated.policy.rules[key] = FieldRule(
                activity_id=amendment.activity_id,
                fieldname=amendment.fieldname,
                clauses=(ReaderClause(readers=tuple(sorted(readers))),),
            )
        else:
            clauses = tuple(
                ReaderClause(
                    readers=tuple(sorted({*clause.readers,
                                          amendment.reader})),
                    condition=clause.condition,
                )
                for clause in rule.clauses
            )
            updated.policy.rules[key] = FieldRule(
                activity_id=amendment.activity_id,
                fieldname=amendment.fieldname,
                clauses=clauses,
            )
        return updated
    raise DefinitionError(f"unknown amendment {amendment!r}")


def amendment_cers(document: Dra4wfmsDocument) -> list[CER]:
    """All amendment CERs in document (= application) order."""
    return [
        CER(node)
        for node in document.results_section.findall(CER_TAG)
        if node.get("Kind") == KIND_AMENDMENT
    ]


def make_amendment_cer(
    amendment: Amendment,
    sequence: int,
    signer,
    frontier_signatures: list[ET.Element],
    backend: CryptoBackend | None = None,
) -> CER:
    """Build a signed amendment CER.

    The signature covers the amendment spec **and the document
    frontier**, pinning exactly the process state the amendment was
    issued against — later CERs countersign the amendment in turn, so
    it joins the cascade like any execution result.
    """
    from ..xmlsec.xmldsig import sign_references

    backend = backend or default_backend()
    if not frontier_signatures:
        raise DocumentFormatError(
            "an amendment must countersign at least the designer's "
            "signature"
        )
    element = ET.Element(CER_TAG, {
        "Id": f"cer-amd-{sequence}",
        "Kind": KIND_AMENDMENT,
        "Activity": AMENDMENT_ACTIVITY,
        "Iteration": str(sequence),
        "Participant": signer.identity,
    })
    spec = amendment_to_xml(amendment, f"amdspec-{sequence}")
    element.append(spec)
    signature = sign_references(
        signature_id=f"sig-amd-{sequence}",
        signer=signer.identity,
        private_key=signer.private_key,
        targets=[spec, *frontier_signatures],
        backend=backend,
    )
    element.append(signature.element)
    return CER(element)


def effective_definition(
    document: Dra4wfmsDocument,
    identity: str | None = None,
    private_key: RsaPrivateKey | None = None,
    backend: CryptoBackend | None = None,
    check_authorization: bool = True,
) -> WorkflowDefinition:
    """The base definition with all embedded amendments applied.

    When *check_authorization* is set (the default), each amendment's
    signer is validated against the definition as amended so far —
    unauthorised amendments make the whole document invalid.
    """
    backend = backend or default_backend()
    definition = document.definition(identity, private_key, backend)
    for cer in amendment_cers(document):
        spec = cer.element.find(SPEC_TAG)
        if spec is None:
            raise DocumentFormatError(
                f"amendment CER {cer.cer_id!r} has no {SPEC_TAG}"
            )
        amendment = amendment_from_xml(spec)
        if check_authorization:
            check_authorized(amendment, cer.participant, definition)
        definition = apply_amendment(definition, amendment)
    return definition
