"""Nonrepudiation scopes — Algorithm 1 of the paper.

Each CER has a *nonrepudiation scope* Γ: the set of CERs whose receipt
the signing participant cannot deny, because their signature
(transitively) covers those CERs' signatures.  Algorithm 1 computes Γ as
the closure of the "signs" relation:

    (1) Γ = {α}
    (2) while changes: for each β ∈ Γ, add every CER whose signature β
        signs.

Because every participant signs the signatures of all predecessor
activities (§2.1), and those signed their predecessors in turn, the
scope of the last CER of a terminated process covers the entire
document — the recursive argument of §2.3.2.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .cer import CER
from ..errors import DocumentFormatError
from ..xmlsec.xmldsig import pass_referenced_ids

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .document import Dra4wfmsDocument

__all__ = [
    "add_signature_owners",
    "signature_owner_map",
    "signs_relation",
    "relation_of",
    "nonrepudiation_scope",
    "nonrepudiation_scope_ids",
    "all_scopes",
    "extend_scopes",
    "frontier_cers",
    "covers_whole_document",
]


def signature_owner_map(document: Dra4wfmsDocument) -> dict[str, CER]:
    """Map each signature element id to the CER owning it."""
    return add_signature_owners({}, document.cers())


def add_signature_owners(owners: dict[str, CER],
                         cers: list[CER]) -> dict[str, CER]:
    """Add the signature id of each of *cers* to *owners*, rejecting a
    duplicate."""
    for cer in cers:
        sid = cer.signature_id
        if sid in owners:
            raise DocumentFormatError(f"duplicate signature id {sid!r}")
        owners[sid] = cer
    return owners


def signs_relation(document: Dra4wfmsDocument,
                   memo: dict | None = None) -> dict[str, set[str]]:
    """The direct "signs" relation between CERs.

    Maps each CER id to the ids of the CERs whose *signatures* it
    signs.  References to non-signature elements (the CER's own result,
    timestamp, header…) are not part of the relation.  *memo*: see
    :func:`~repro.xmlsec.xmldsig.pass_references`.
    """
    cers = document.cers()
    return relation_of(cers, add_signature_owners({}, cers), memo)


def relation_of(cers: list[CER], owners: dict[str, CER],
                memo: dict | None = None) -> dict[str, set[str]]:
    """:func:`signs_relation` restricted to *cers*, given *owners*, the
    CER of every signature id of the document."""
    relation: dict[str, set[str]] = {}
    for cer in cers:
        signed: set[str] = set()
        for ref_id in pass_referenced_ids(cer.signature, memo):
            owner = owners.get(ref_id)
            if owner is not None and owner.cer_id != cer.cer_id:
                signed.add(owner.cer_id)
        relation[cer.cer_id] = signed
    return relation


def nonrepudiation_scope(document: Dra4wfmsDocument,
                         alpha: CER) -> list[CER]:
    """Algorithm 1: the nonrepudiation scope Γ of CER *alpha*.

    Returns the CERs (including *alpha* itself, matching step (2) of
    the paper's listing) that *alpha*'s signer is bound to: they cannot
    deny having received a document containing every CER in Γ when they
    produced *alpha*.
    """
    by_id = {cer.cer_id: cer for cer in document.cers()}
    if alpha.cer_id not in by_id:
        raise DocumentFormatError(
            f"CER {alpha.cer_id!r} is not part of this document"
        )
    relation = signs_relation(document)

    gamma: set[str] = {alpha.cer_id}
    changed = True
    while changed:
        changed = False
        for beta_id in list(gamma):
            delta = relation.get(beta_id, set())
            missing = delta - gamma
            if missing:
                gamma |= missing
                changed = True
    # Preserve document order for stable output.
    return [cer for cer in document.cers() if cer.cer_id in gamma]


def nonrepudiation_scope_ids(document: Dra4wfmsDocument,
                             alpha: CER) -> set[str]:
    """Scope as a set of CER ids (cheaper when order is irrelevant)."""
    return {cer.cer_id for cer in nonrepudiation_scope(document, alpha)}


def all_scopes(document: Dra4wfmsDocument,
               memo: dict | None = None) -> dict[str, set[str]]:
    """Nonrepudiation scopes of **every** CER in one pass.

    Computing Algorithm 1 independently per CER re-parses the signs
    relation n times (O(n²) XML walks — measurable on long chains, see
    ``benchmarks/test_verify_scaling.py``).  The relation is a DAG
    (each signature covers only previously-embedded signatures), so all
    closures follow from one relation extraction plus memoised DFS,
    which on a malicious cycle falls back to a self-only scope instead
    of recursing forever (verification rejects such a document).
    """
    return extend_scopes({}, signs_relation(document, memo))


def extend_scopes(scopes: dict[str, set[str]],
                  relation: dict[str, set[str]]) -> dict[str, set[str]]:
    """Add the scopes of the CERs *relation* holds (their part of the
    signs relation, :func:`relation_of`) to *scopes*, the scopes of the
    CERs before them.

    No earlier signature covers a CER appended after it, so appending
    CERs leaves the scopes of the earlier ones as they are: extending
    the scopes of a prefix by the CERs after it gives
    :func:`all_scopes` of the whole document.
    """
    for cer_id in relation:
        _closure(cer_id, relation, scopes, set())
    return scopes


def _closure(cer_id: str, relation: dict[str, set[str]],
             scopes: dict[str, set[str]], stack: set[str]) -> set[str]:
    # Module-level, not nested: a recursive closure is a reference
    # cycle that keeps every scope alive until the collector runs.
    cached = scopes.get(cer_id)
    if cached is not None:
        return cached
    if cer_id in stack:
        return {cer_id}
    stack.add(cer_id)
    gamma = {cer_id}
    for signed_id in relation.get(cer_id, ()):
        gamma |= _closure(signed_id, relation, scopes, stack)
    stack.discard(cer_id)
    scopes[cer_id] = gamma
    return gamma


def frontier_cers(document: Dra4wfmsDocument) -> list[CER]:
    """CERs whose signature no other CER has countersigned yet.

    These are the "latest" results; the next activity's signature must
    cover them to extend the cascade.  Read from the document's
    :meth:`~repro.document.document.Dra4wfmsDocument.history`.
    """
    return document.history().frontier()


def covers_whole_document(document: Dra4wfmsDocument, alpha: CER) -> bool:
    """True when Γ(alpha) includes every CER of the document.

    For a terminated workflow this holds for the final activity's CER —
    the property §2.3.2 calls "each participant cannot repudiate the
    execution of all his ancestors".
    """
    scope = nonrepudiation_scope_ids(document, alpha)
    return scope == {cer.cer_id for cer in document.cers()}
