"""Control-flow evaluation over routed documents.

Decides, after an activity completes, which signatures the new CER must
countersign (the cascade) and which activities receive the document
next.  Used by AEAs in the basic model and by the TFC server in the
advanced model.  Both read the document's
:meth:`~repro.document.document.Dra4wfmsDocument.history`: on a hop,
the one the receiver's verification pass built.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Mapping

from ..document.cer import KIND_AMENDMENT
from ..document.document import Dra4wfmsDocument
from ..errors import JoinNotReady, RoutingError
from ..model.controlflow import JoinKind
from ..model.definition import WorkflowDefinition

__all__ = ["RoutingDecision", "cascade_targets", "check_join_ready",
           "route_after"]


@dataclass(frozen=True)
class RoutingDecision:
    """Where a document goes after an activity completes."""

    #: Ids of the next activities (empty when the process terminates).
    next_activities: tuple[str, ...]
    #: Identities of the participants of those activities.
    next_participants: tuple[str, ...]
    #: True when the completed activity ends the workflow.
    terminal: bool


def cascade_targets(document: Dra4wfmsDocument,
                    definition: WorkflowDefinition,
                    activity_id: str) -> list[ET.Element]:
    """Signature elements the CER of *activity_id* must countersign.

    Implements the paper's cascade rule: the new signature covers
    ``Sig(X''_Ap1), …, Sig(X''_Apn)`` — the signature of the **latest
    CER of every predecessor activity that has executed**.  For the
    first activity of a fresh instance (no predecessor has run) the
    target is the workflow designer's signature, i.e. ``Sig(X''_A0)``.

    In the advanced model a predecessor's cascade signature is its TFC
    CER's signature (which itself covers the participant's intermediate
    signature), so the chain runs participant → TFC → participant …
    """
    history = document.history()
    if history.pending:
        pending = history.pending_intermediate()[0]
        raise RoutingError(
            f"document has an unfinalised intermediate CER for "
            f"{pending.activity_id}^{pending.iteration}; route it to the "
            f"TFC server first"
        )
    targets: list[ET.Element] = []
    for pred in definition.predecessors(activity_id):
        executed = history.execution_count(pred)
        if executed == 0:
            continue
        cer = history.cascade_signature_of(pred, executed - 1)
        if cer is not None:
            targets.append(cer.signature.element)
    if not targets:
        # Start of the process: countersign the designer (CER(A0)).
        targets.append(history.cers[0].signature.element)
    # Run-time amendments not yet countersigned join the cascade here,
    # so later scopes cover them (the amendment becomes as
    # nonrepudiable as any execution result).
    for cer in history.frontier():
        if cer.kind == KIND_AMENDMENT:
            targets.append(cer.signature.element)
    return targets


def check_join_ready(document: Dra4wfmsDocument,
                     definition: WorkflowDefinition,
                     activity_id: str) -> None:
    """Raise :class:`JoinNotReady` unless *activity_id* may execute.

    An AND-join requires a completed CER from **every** incoming branch
    whose results have not yet been consumed: the frontier must contain
    one CER per predecessor activity.  Other joins need at least one
    completed predecessor (or none at all for the start activity).
    """
    activity = definition.activity(activity_id)
    predecessors = set(definition.predecessors(activity_id))
    if not predecessors:
        return
    history = document.history()
    frontier_activities = {
        cer.activity_id for cer in history.frontier()
    }
    if activity.join is JoinKind.AND:
        missing = predecessors - frontier_activities
        if missing:
            raise JoinNotReady(
                f"AND-join {activity_id!r} is missing branches from "
                f"{sorted(missing)} (frontier: {sorted(frontier_activities)})"
            )
    else:
        # NONE/XOR joins: some predecessor must have completed at least
        # once.  (A parallel sibling may already have countersigned the
        # predecessor's CER, so the frontier alone is not the test; the
        # cascade signature still binds this execution to what it saw.)
        if activity_id == definition.start_activity:
            return
        if history.execution_count(activity_id) > 0:
            return
        if not any(
            history.execution_count(pred) > 0 for pred in predecessors
        ):
            raise JoinNotReady(
                f"no predecessor of {activity_id!r} has completed yet"
            )


def route_after(definition: WorkflowDefinition,
                activity_id: str,
                variables: Mapping[str, object] | None) -> RoutingDecision:
    """Evaluate the split of *activity_id* and name the next participants."""
    successors = definition.successors(activity_id, variables)
    participants = tuple(
        definition.activity(aid).participant for aid in successors
    )
    return RoutingDecision(
        next_activities=tuple(successors),
        next_participants=participants,
        terminal=not successors,
    )
