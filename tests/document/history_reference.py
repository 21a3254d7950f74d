"""Tree-walking reference for the rules of :class:`CerHistory`.

Each rule reads the document tree afresh on every call: the frontier
parses every signature's references and builds the "signs" relation,
and the key-based rules index every CER.  Routing (the cascade targets
and the join check of :mod:`repro.core.router`) is written over these
lookups.  :class:`~repro.document.history.CerHistory`, built by a cold
verification pass, extended by a resumed one or built from the empty
state, must give the same answers on every document
(``tests/integration/test_history_differential.py``).
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from repro.document.cer import CER, KIND_AMENDMENT, CerKey
from repro.document.document import Dra4wfmsDocument
from repro.document.sections import KIND_INTERMEDIATE, KIND_STANDARD, KIND_TFC
from repro.errors import DocumentFormatError, JoinNotReady, RoutingError
from repro.model.controlflow import JoinKind
from repro.model.definition import WorkflowDefinition

__all__ = ["reference_cascade_signature_of", "reference_cascade_targets",
           "reference_check_join_ready", "reference_execution_count",
           "reference_frontier", "reference_pending_intermediate"]


def _cers(document: Dra4wfmsDocument) -> list[CER]:
    return [CER(document.root.find("ApplicationDefinition/CER")),
            *map(CER, document.results_section.findall("CER"))]


def _index(document: Dra4wfmsDocument) -> dict[CerKey, CER]:
    index: dict[CerKey, CER] = {}
    for cer in _cers(document):
        if cer.key in index:
            raise DocumentFormatError(f"duplicate CER for {cer.key}")
        index[cer.key] = cer
    return index


def reference_frontier(document: Dra4wfmsDocument) -> list[CER]:
    """CERs whose signature no other CER signs, in document order."""
    cers = _cers(document)
    owners = {}
    for cer in cers:
        if cer.signature_id in owners:
            raise DocumentFormatError(
                f"duplicate signature id {cer.signature_id!r}")
        owners[cer.signature_id] = cer
    signed_by_someone: set[str] = set()
    for cer in cers:
        for ref_id in cer.signature.referenced_ids:
            owner = owners.get(ref_id)
            if owner is not None and owner.cer_id != cer.cer_id:
                signed_by_someone.add(owner.cer_id)
    return [cer for cer in cers if cer.cer_id not in signed_by_someone]


def reference_execution_count(document: Dra4wfmsDocument,
                              activity_id: str) -> int:
    """Highest iteration of *activity_id*'s standard and TFC CERs, + 1."""
    iterations = [
        cer.iteration for cer in _cers(document)[1:]
        if cer.activity_id == activity_id
        and cer.kind in (KIND_STANDARD, KIND_TFC)
    ]
    return max(iterations, default=-1) + 1


def reference_cascade_signature_of(document: Dra4wfmsDocument,
                                   activity_id: str,
                                   iteration: int) -> CER | None:
    """The TFC CER of the execution, else its standard CER."""
    index = _index(document)
    tfc = index.get((activity_id, iteration, KIND_TFC))
    if tfc is not None:
        return tfc
    return index.get((activity_id, iteration, KIND_STANDARD))


def reference_pending_intermediate(document: Dra4wfmsDocument) -> list[CER]:
    """Intermediate CERs without a TFC CER of the same execution."""
    index = _index(document)
    return [
        cer for cer in _cers(document)[1:]
        if cer.kind == KIND_INTERMEDIATE
        and (cer.activity_id, cer.iteration, KIND_TFC) not in index
    ]


def reference_cascade_targets(document: Dra4wfmsDocument,
                              definition: WorkflowDefinition,
                              activity_id: str) -> list[ET.Element]:
    """:func:`repro.core.router.cascade_targets` over the lookups above."""
    if reference_pending_intermediate(document):
        pending = reference_pending_intermediate(document)[0]
        raise RoutingError(
            f"document has an unfinalised intermediate CER for "
            f"{pending.activity_id}^{pending.iteration}; route it to the "
            f"TFC server first"
        )
    targets: list[ET.Element] = []
    for pred in definition.predecessors(activity_id):
        executed = reference_execution_count(document, pred)
        if executed == 0:
            continue
        cer = reference_cascade_signature_of(document, pred, executed - 1)
        if cer is not None:
            targets.append(cer.signature.element)
    if not targets:
        targets.append(document.definition_cer.signature.element)
    for cer in reference_frontier(document):
        if cer.kind == KIND_AMENDMENT:
            targets.append(cer.signature.element)
    return targets


def reference_check_join_ready(document: Dra4wfmsDocument,
                               definition: WorkflowDefinition,
                               activity_id: str) -> None:
    """:func:`repro.core.router.check_join_ready` over the lookups above."""
    activity = definition.activity(activity_id)
    predecessors = set(definition.predecessors(activity_id))
    if not predecessors:
        return
    frontier_activities = {
        cer.activity_id for cer in reference_frontier(document)
    }
    if activity.join is JoinKind.AND:
        missing = predecessors - frontier_activities
        if missing:
            raise JoinNotReady(
                f"AND-join {activity_id!r} is missing branches from "
                f"{sorted(missing)} (frontier: {sorted(frontier_activities)})"
            )
    else:
        if activity_id == definition.start_activity:
            return
        if reference_execution_count(document, activity_id) > 0:
            return
        if not any(reference_execution_count(document, pred) > 0
                   for pred in predecessors):
            raise JoinNotReady(
                f"no predecessor of {activity_id!r} has completed yet"
            )
