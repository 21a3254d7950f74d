"""Whole-document verification.

This is the check every AEA runs *before* trusting a received
DRA4WfMS document (paper §2.1 step 1), and the check any third party —
an auditor resolving a repudiation dispute — runs offline:

1. **Well-formedness**: unique element ids, required sections present.
2. **Designer signature**: the definition CER's signature must cover
   the definition section *and* the header (binding the unique process
   id), and verify under the designer's PKI-resolved key.
3. **Every embedded signature** verifies cryptographically against the
   current document content (any altered element breaks a digest).
4. **Cascade structure**: each CER signs its own execution result (and
   timestamp, for TFC CERs), and its scope reaches the definition CER —
   every result is transitively bound to this process instance.
5. **Authorization** (when the definition is readable): each CER's
   signer is the participant the definition designates, and TFC CERs
   are signed by the TFC the policy expects.
6. **Timestamps** are monotone along the cascade.
7. **Nothing unsigned**: the document holds no content that no
   signature covers (see ``docs/FORMAT.md`` §8).

The pass is resumable.  Given received bytes and the receiver's
:class:`~repro.document.resume.KeptPasses`, a receiver that verified an
earlier version of the instance in full checks only the CERs appended
since: the pass state of the kept version (id index, digests, signature
owners, scopes, effective definition, timestamps, counts) answers for
the prefix.  A cold pass is the same code resumed from the empty
state.  Either way the pass hands on what it read of the CERs, a
:class:`~repro.document.history.CerHistory`, with the document it
accepted, for the rest of the hop to read instead of the tree.

Every rejection raises :class:`~repro.errors.VerificationError`, as
its subclass :class:`~repro.errors.TamperDetected` for cryptographic
mismatches; any other :class:`~repro.errors.ReproError` (a malformed
structure a lower layer reports) is re-raised as one with the same
message.  Success returns a :class:`VerificationReport`.
"""

from __future__ import annotations

import functools
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

from ..crypto.backend import CryptoBackend, default_backend
from ..crypto.pki import KeyDirectory
from ..crypto.pure.rsa import RsaPrivateKey, RsaPublicKey
from ..errors import (
    CertificateError,
    ReproError,
    TamperDetected,
    VerificationError,
    XmlSignatureError,
)
from ..model.definition import WorkflowDefinition
from ..xmlsec.digest import PassDigests
from ..xmlsec.xmldsig import (ID_ATTR, XmlSignature, index_by_id,
                              pass_referenced_ids)
from .cer import CER, KIND_AMENDMENT
from .document import Dra4wfmsDocument
from .history import CerHistory
from .nonrepudiation import add_signature_owners, extend_scopes, relation_of
from .resume import KeptPass, KeptPasses
from .vcache import VerificationCache
from .sections import (
    APPDEF_TAG,
    CER_TAG,
    DESIGNER_ACTIVITY,
    HEADER_ID,
    HEADER_TAG,
    KIND_DEFINITION,
    KIND_INTERMEDIATE,
    KIND_STANDARD,
    KIND_TFC,
    RESULT_TAG,
    RESULTS_TAG,
    TIMESTAMP_TAG,
    WFDEF_ID,
    WFDEF_TAG,
    cer_id as make_cer_id,
    signature_id as make_signature_id,
)

__all__ = ["VerificationReport", "verify_document"]

#: The children each kind of CER holds, in order (``docs/FORMAT.md``).
_CER_CHILDREN = {
    KIND_DEFINITION: [WFDEF_TAG, "Signature"],
    KIND_STANDARD: [RESULT_TAG, "Signature"],
    KIND_INTERMEDIATE: [RESULT_TAG, "Signature"],
    KIND_TFC: [RESULT_TAG, TIMESTAMP_TAG, "Signature"],
    KIND_AMENDMENT: ["AmendmentSpec", "Signature"],
}

_CER_ATTRIBUTES = {"Id", "Kind", "Activity", "Iteration", "Participant"}

#: The children of a CER's ``<Signature>``, in order.
_SIGNATURE_CHILDREN = ["SignedInfo", "SignatureValue", "KeyInfo"]


@dataclass
class VerificationReport:
    """Outcome of a successful verification.

    The cache counters carry ``compare=False`` deliberately: a warm
    (incremental) verification must produce a report *equal* to the
    cold one — same signatures checked, same CERs, same warnings — and
    only the accounting of how the signatures were checked may differ.
    """

    process_id: str
    signatures_verified: int
    cers_checked: int
    definition_checked: bool
    warnings: list[str] = field(default_factory=list)
    #: Signature checks answered by the shared cache (0 on cold verifies).
    cache_hits: int = field(default=0, compare=False)
    #: Signature checks that needed fresh RSA work despite a cache.
    cache_misses: int = field(default=0, compare=False)
    #: The definition step 5 checked against, amendments replayed and
    #: authorised, so the receiver need not parse it again; ``None``
    #: when it was encrypted and no reader was given.
    definition: WorkflowDefinition | None = field(
        default=None, compare=False, repr=False)
    #: The verified document: the one passed in, or the one parsed from
    #: the bytes passed in.
    document: Dra4wfmsDocument | None = field(
        default=None, compare=False, repr=False)
    #: What the pass read of the document's CERs, which the rest of the
    #: hop reads instead of the tree (also ``document.history()``).
    history: CerHistory | None = field(
        default=None, compare=False, repr=False)

    def __bool__(self) -> bool:
        return True


@dataclass
class _PassState:
    """What a pass has established, up to the last CER it checked.

    A cold pass starts from the empty state.  A resumed pass starts from
    a copy of the state kept with the document it extends, with the id
    index already holding the appended elements.
    """

    #: The id index, and the CERs checked so far with the rules over
    #: them; extended by each pass's CERs once they are accepted.
    history: CerHistory = field(default_factory=CerHistory)
    #: id(element) → canonical digest, id(signature) → parsed references
    #: (see :class:`~repro.xmlsec.digest.PassDigests`)
    digests: dict[int, bytes] = field(default_factory=dict)
    references: dict[int, list] = field(default_factory=dict)
    #: signer → the public key their signatures verified under
    keys: dict[str, RsaPublicKey] = field(default_factory=dict)
    #: signature id → the CER that owns it
    owners: dict[str, CER] = field(default_factory=dict)
    #: CER id → nonrepudiation scope (Algorithm 1)
    scopes: dict[str, set[str]] = field(default_factory=dict)
    #: CER id → TFC timestamp
    timestamps: dict[str, float] = field(default_factory=dict)
    #: The effective definition after the last CER (``None``: unreadable).
    definition: WorkflowDefinition | None = None
    signatures: int = 0
    cers: int = 0
    warnings: list[str] = field(default_factory=list)

    def copy(self) -> "_PassState":
        """A state to extend without changing this one: a pass replaces
        ``digests`` and ``references`` and never mutates a scope set."""
        return _PassState(
            self.history.copy(), self.digests, self.references,
            dict(self.keys), dict(self.owners), dict(self.scopes),
            dict(self.timestamps), self.definition, self.signatures,
            self.cers, list(self.warnings),
        )


def _resolve_key(directory: KeyDirectory, identity: str):
    try:
        return directory.public_key_of(identity)
    except CertificateError as exc:
        raise VerificationError(
            f"cannot resolve public key of {identity!r}: {exc}"
        ) from exc


class _SignatureChecker:
    """Runs the cryptographic signature checks for one verification, in
    document order: cold, or through the opt-in cache, which skips the
    RSA work for byte-identical, previously verified signatures.
    Structural checks are untouched — only the RSA step is cached."""

    def __init__(self, document: Dra4wfmsDocument, backend: CryptoBackend,
                 id_index, cache: VerificationCache | None,
                 report: VerificationReport, digests: PassDigests) -> None:
        self.root = document.root
        self.backend = backend
        self.id_index = id_index
        self.cache = cache
        self.report = report
        #: element identity → canonical digest, scoped to this pass
        #: (predecessor signatures are referenced by every successor).
        #: Records each digested element's text on the document's memo
        #: and holds each signature's one parse of its references.
        self.digests = digests

    def verify(self, signature: XmlSignature,
               public_key: RsaPublicKey) -> None:
        """Check one signature, consulting the cache first.

        Raises :class:`~repro.errors.XmlSignatureError` exactly as
        :meth:`XmlSignature.verify` would.
        """
        key = None
        if self.cache is not None:
            key = self.cache.key_for(signature, public_key,
                                     self.id_index, self.digests)
            if key is not None and self.cache.seen(key):
                self.report.cache_hits += 1
                return
            self.report.cache_misses += 1
        signature.verify(public_key, self.root, self.backend,
                         self.id_index, digest_memo=self.digests)
        if key is not None:
            self.cache.record(key)


def _rejecting(verify):
    """*verify*, re-raising any other :class:`ReproError` as a
    :class:`VerificationError` (same message, the original as cause)."""
    @functools.wraps(verify)
    def wrapper(*args, **kwargs):
        try:
            return verify(*args, **kwargs)
        except VerificationError:
            raise
        except ReproError as exc:
            raise VerificationError(str(exc)) from exc
    return wrapper


def verify_document(
    document: Dra4wfmsDocument | bytes,
    directory: KeyDirectory,
    backend: CryptoBackend | None = None,
    definition: WorkflowDefinition | None = None,
    definition_reader: tuple[str, RsaPrivateKey] | None = None,
    tfc_identities: set[str] | None = None,
    cache: VerificationCache | None = None,
    kept: KeptPasses | None = None,
) -> VerificationReport:
    """Verify *document* end to end.

    Every rejection is a :class:`~repro.errors.VerificationError`, a
    :class:`~repro.errors.TamperDetected` for a cryptographic mismatch.

    *document* is a parsed document or received bytes.  Bytes are
    parsed here (a parse error raises as it does from
    :meth:`Dra4wfmsDocument.from_bytes`) and the parsed document is
    :attr:`VerificationReport.document`.

    Parameters
    ----------
    directory:
        PKI directory used to resolve every signer's public key.
    definition:
        Pre-parsed definition (skips re-parsing).  When the embedded
        definition is encrypted and neither *definition* nor
        *definition_reader* is supplied, authorization checks are
        skipped and a warning recorded — signatures still verify, since
        they cover ciphertext.
    definition_reader:
        ``(identity, private_key)`` of an authorised definition reader.
    tfc_identities:
        Identities accepted as TFC servers for TFC CERs.
    cache:
        Opt-in :class:`~repro.document.vcache.VerificationCache`: skip
        the RSA check for signatures whose exact bytes (and the exact
        bytes of everything they reference) verified before.  Every
        structural check still runs; any byte-level change misses the
        cache and takes the full cryptographic path.  Omit for a cold
        (trust-nothing) verification — the default.
    kept:
        The receiver's own :class:`~repro.document.resume.KeptPasses`,
        used for bytes only.  Bytes that extend a document kept there
        for the same instance under the same parameters resume its
        pass: only the appended bytes are parsed and only the appended
        CERs checked, after every earlier signer's key is resolved
        again.  Bytes that verify in full are kept.  The report, and
        every rejection's type and message, equal those of a cold pass
        over ``Dra4wfmsDocument.from_bytes(document)``.
    """
    backend = backend or default_backend()
    options = (directory, backend, definition, definition_reader,
               tfc_identities, cache)
    if not isinstance(document, bytes) or kept is None:
        if isinstance(document, bytes):
            document = Dra4wfmsDocument.from_bytes(document)
        return _verify(document, None, [], *options)[0]
    data = document
    params = (directory, definition, definition_reader, tfc_identities)
    document, previous, appended = kept.resume(data, params)
    state = None if previous is None else _resumed(previous.state, appended,
                                                   directory)
    report, state = _verify(document, state, appended, *options)
    state.digests = dict(state.digests)  # drops the pass's text record
    kept.keep(KeptPass(data, document.clone_for_append(), params, state))
    return report


def _resumed(kept: _PassState, appended: list[ET.Element],
             directory: KeyDirectory) -> _PassState | None:
    """*kept*, extended by the ids of *appended*, or ``None`` when the
    kept pass no longer holds: an earlier signer's key does not resolve
    to the key it verified under, or an appended element reuses an id."""
    for signer, key in kept.keys.items():
        try:
            if directory.public_key_of(signer) != key:
                return None
        except ReproError:
            return None
    state = kept.copy()
    ids = state.history.ids
    for cer in appended:
        for element in cer.iter():
            element_id = element.get(ID_ATTR)
            if element_id is not None:
                if element_id in ids:
                    return None
                ids[element_id] = element
    return state


@_rejecting
def _verify(document: Dra4wfmsDocument, state: _PassState | None,
            appended: list[ET.Element], directory: KeyDirectory,
            backend: CryptoBackend, definition: WorkflowDefinition | None,
            definition_reader: tuple[str, RsaPrivateKey] | None,
            tfc_identities: set[str] | None,
            cache: VerificationCache | None,
            ) -> tuple[VerificationReport, _PassState]:
    """One pass: cold when *state* is ``None``, else over *appended*."""
    report = VerificationReport(
        process_id="", signatures_verified=0, cers_checked=0,
        definition_checked=False, document=document,
    )
    cold = state is None
    document._history = None  # until this pass accepts the document
    if cold:
        # (1) structure + unique ids
        try:
            state = _PassState(CerHistory(ids=index_by_id(document.root)))
        except XmlSignatureError as exc:
            raise TamperDetected(str(exc)) from exc
    digests = PassDigests(document._memo)
    digests.update(state.digests)
    digests.references.update(state.references)
    checker = _SignatureChecker(document, backend, state.history.ids, cache,
                                report, digests)
    report.process_id = document.process_id
    if cold:
        _verify_designer(document, state, directory, checker, backend,
                         definition, definition_reader)
    # The CERs this pass checks, in document order.
    cers = document.cers() if cold else [CER(node) for node in appended]

    add_signature_owners(state.owners, cers)
    # Algorithm 1 over the new CERs (used by the cascade binding check
    # and timestamp monotonicity below).
    relation = relation_of(cers, state.owners, digests)
    extend_scopes(state.scopes, relation)

    # (3)+(4) per-CER checks
    for cer in cers:
        _check_cer(cer, state, directory, checker)

    # (5) authorization against the definition — replayed in document
    # order so run-time amendments (delegation, ad-hoc activities,
    # reader grants) are honoured *from their position onwards* and
    # checked against the definition as amended so far.
    if state.definition is not None:
        state.definition = _authorize(cers, state.definition,
                                      tfc_identities)

    # (6) timestamp monotonicity along the cascade
    for cer in cers:
        ts = cer.timestamp
        if ts is not None:
            state.timestamps[cer.cer_id] = ts
    if state.timestamps:
        for cer in cers:
            _check_timestamps(cer, state)

    # (7) no content outside every signature
    if cold:
        _reject_unsigned_structure(document)
    for cer in cers:
        _reject_unsigned_cer_content(cer)

    state.history.extend(cers, relation)
    state.digests, state.references = digests, digests.references
    document._history = report.history = state.history
    report.signatures_verified = state.signatures
    report.cers_checked = state.cers
    report.definition_checked = state.definition is not None
    report.warnings = list(state.warnings)
    report.definition = state.definition
    return report, state


def _verify_designer(document: Dra4wfmsDocument, state: _PassState,
                     directory: KeyDirectory, checker: _SignatureChecker,
                     backend: CryptoBackend,
                     definition: WorkflowDefinition | None,
                     definition_reader: tuple[str, RsaPrivateKey] | None,
                     ) -> None:
    """Steps (1) and (2) of a cold pass, and the definition it reads."""
    ids = state.history.ids
    if HEADER_ID not in ids or WFDEF_ID not in ids:
        raise VerificationError("header or definition section missing")
    version = document.root.get("Version")
    if version != "1.0":
        raise VerificationError(
            f"unsupported document version {version!r}"
        )

    # (2) designer signature binds definition + header
    def_cer = document.definition_cer
    designer_sig = def_cer.signature
    signer = designer_sig.signer
    if signer != def_cer.participant:
        raise VerificationError(
            "definition CER participant does not match its signature's KeyName"
        )
    referenced = set(pass_referenced_ids(designer_sig, checker.digests))
    if not {WFDEF_ID, HEADER_ID} <= referenced:
        raise VerificationError(
            "designer signature must cover the definition section and the "
            "header (process id binding)"
        )
    public_key = _resolve_key(directory, signer)
    try:
        checker.verify(designer_sig, public_key)
    except XmlSignatureError as exc:
        raise TamperDetected(f"designer signature invalid: {exc}") from exc
    state.keys[signer] = public_key
    state.signatures += 1

    # Obtain the definition if we can.
    if definition is None:
        if not document.definition_is_encrypted:
            definition = document.definition()
        elif definition_reader is not None:
            identity, private_key = definition_reader
            definition = document.definition(identity, private_key, backend)
        else:
            state.warnings.append(
                "definition encrypted and no reader credentials supplied; "
                "authorization checks skipped"
            )
    state.definition = definition


def _check_cer(cer: CER, state: _PassState, directory: KeyDirectory,
               checker: _SignatureChecker) -> None:
    """Steps (3) and (4) for one CER."""
    state.cers += 1
    # Exactly the known attributes — a stray attribute is either a
    # corrupted attribute name (its real counterpart then falls
    # back to defaults) or smuggled data outside every signature.
    actual_attributes = set(cer.element.keys())
    if actual_attributes != _CER_ATTRIBUTES:
        raise VerificationError(
            f"CER {cer.element.get('Id')!r} has unexpected "
            f"attributes {sorted(actual_attributes ^ _CER_ATTRIBUTES)}"
        )
    if cer.kind == KIND_DEFINITION:
        # Unsigned attributes of the definition CER are fixed by
        # the format (everything signed lives in its children).
        if (cer.cer_id != "cer-def"
                or cer.activity_id != DESIGNER_ACTIVITY
                or cer.iteration != 0):
            raise VerificationError(
                "definition CER attributes violate the format"
            )
        return

    # CER element attributes are not themselves signed; they must
    # be *derivable* from signed content.  The id scheme enforces
    # that: Id and the signature id are both functions of
    # (kind, activity, iteration), and the signature id is covered
    # by every countersigning successor.
    if cer.kind == KIND_AMENDMENT:
        expected_cer_id = f"cer-amd-{cer.iteration}"
        if cer.activity_id != "__amendment__":
            raise VerificationError(
                f"amendment CER {cer.cer_id!r} has Activity "
                f"{cer.activity_id!r}"
            )
    else:
        expected_cer_id = make_cer_id(cer.kind, cer.activity_id,
                                      cer.iteration)
    if cer.cer_id != expected_cer_id:
        raise VerificationError(
            f"CER id {cer.cer_id!r} violates the id scheme "
            f"(expected {expected_cer_id!r})"
        )

    signature = cer.signature
    signer = signature.signer
    if signer != cer.participant:
        raise VerificationError(
            f"CER {cer.cer_id!r}: Participant attribute "
            f"({cer.participant!r}) does not match signature KeyName "
            f"({signer!r})"
        )
    if cer.kind == KIND_AMENDMENT:
        expected_sig_id = f"sig-amd-{cer.iteration}"
    else:
        expected_sig_id = make_signature_id(cer.kind, cer.activity_id,
                                            cer.iteration)
    if signature.signature_id != expected_sig_id:
        raise VerificationError(
            f"CER {cer.cer_id!r}: signature id "
            f"{signature.signature_id!r} violates the id scheme "
            f"(expected {expected_sig_id!r})"
        )

    referenced = pass_referenced_ids(signature, checker.digests)
    if cer.kind == KIND_AMENDMENT:
        spec = cer.element.find("AmendmentSpec")
        if spec is None:
            raise VerificationError(
                f"amendment CER {cer.cer_id!r} has no AmendmentSpec"
            )
        if spec.get("Id") not in referenced:
            raise VerificationError(
                f"amendment CER {cer.cer_id!r}: signature does not "
                f"cover its spec"
            )
    else:
        result = cer.result_element
        if result is None:
            raise VerificationError(f"CER {cer.cer_id!r} has no result")
        result_ref = result.get("Id")
        if result_ref not in referenced:
            raise VerificationError(
                f"CER {cer.cer_id!r}: signature does not cover its own "
                f"execution result"
            )
    if cer.kind == KIND_TFC:
        ts_node = cer.element.find("Timestamp")
        if ts_node is None:
            raise VerificationError(
                f"TFC CER {cer.cer_id!r} has no timestamp"
            )
        if ts_node.get("Id") not in referenced:
            raise VerificationError(
                f"TFC CER {cer.cer_id!r}: signature does not cover its "
                f"timestamp"
            )

    # Cascade: at least one *other* CER's signature must be covered.
    owners = state.owners
    cascade_refs = [
        rid for rid in referenced
        if rid in owners and owners[rid].cer_id != cer.cer_id
    ]
    if not cascade_refs:
        raise VerificationError(
            f"CER {cer.cer_id!r} does not countersign any predecessor "
            f"(cascade broken)"
        )
    if cer.kind == KIND_TFC:
        want = make_signature_id(KIND_INTERMEDIATE, cer.activity_id,
                                 cer.iteration)
        if want not in referenced:
            raise VerificationError(
                f"TFC CER {cer.cer_id!r} does not countersign its "
                f"intermediate CER"
            )

    public_key = _resolve_key(directory, signer)
    try:
        checker.verify(signature, public_key)
    except XmlSignatureError as exc:
        raise TamperDetected(
            f"signature of CER {cer.cer_id!r} invalid: {exc}"
        ) from exc
    state.keys[signer] = public_key
    state.signatures += 1

    # The cascade must transitively reach the definition CER.
    scope = state.scopes.get(cer.cer_id, {cer.cer_id})
    if "cer-def" not in scope:
        raise VerificationError(
            f"CER {cer.cer_id!r} is not bound to this process instance "
            f"(its scope does not reach the definition CER)"
        )


def _authorize(cers: list[CER], current: WorkflowDefinition,
               tfc_identities: set[str] | None) -> WorkflowDefinition:
    """Step (5) over *cers*; returns the definition as amended by them."""
    from .amendments import (
        amendment_from_xml,
        apply_amendment,
        check_authorized,
    )

    for cer in cers:
        if cer.kind == KIND_AMENDMENT:
            spec = cer.element.find("AmendmentSpec")
            try:
                amendment = amendment_from_xml(spec)
                check_authorized(amendment, cer.participant, current)
                current = apply_amendment(current, amendment)
            except VerificationError:
                raise
            except ReproError as exc:
                raise VerificationError(
                    f"amendment CER {cer.cer_id!r} cannot be applied: "
                    f"{exc}"
                ) from exc
        elif cer.kind in (KIND_STANDARD, KIND_INTERMEDIATE):
            try:
                designated = current.activity(cer.activity_id).participant
            except ReproError as exc:
                raise VerificationError(
                    f"CER {cer.cer_id!r} references activity "
                    f"{cer.activity_id!r} not in the definition"
                ) from exc
            if cer.participant != designated:
                raise VerificationError(
                    f"CER {cer.cer_id!r} signed by {cer.participant!r} "
                    f"but the definition designates {designated!r}"
                )
        elif cer.kind == KIND_TFC and tfc_identities is not None:
            if cer.participant not in tfc_identities:
                raise VerificationError(
                    f"TFC CER {cer.cer_id!r} signed by unexpected "
                    f"identity {cer.participant!r}"
                )
    return current


def _check_timestamps(cer: CER, state: _PassState) -> None:
    """Step (6) for one CER: warn about covered CERs stamped later."""
    own_ts = state.timestamps.get(cer.cer_id)
    if own_ts is None:
        return
    scope = state.scopes.get(cer.cer_id, {cer.cer_id})
    for other_id in scope:
        other_ts = state.timestamps.get(other_id)
        if other_ts is not None and other_id != cer.cer_id:
            if other_ts > own_ts + 1e-9:
                state.warnings.append(
                    f"timestamp of {cer.cer_id} ({own_ts}) precedes "
                    f"a CER it covers ({other_id}: {other_ts})"
                )


def _reject_unsigned_structure(document: Dra4wfmsDocument) -> None:
    """Step (7) above the CERs: the root, the definition section and
    the results section hold only what the format gives them.

    With no attribute on the two sections, no id of a resumed pass's
    kept index names an element its path copy replaces.
    """
    root = document.root
    _attributes(root, {"Version"}, "the document root")
    _exactly(root, [HEADER_TAG, APPDEF_TAG, RESULTS_TAG],
             "the document root")
    appdef, results = root.find(APPDEF_TAG), document.results_section
    _attributes(appdef, set(), APPDEF_TAG)
    _exactly(appdef, [CER_TAG], APPDEF_TAG)
    _attributes(results, set(), RESULTS_TAG)
    _exactly(results, [CER_TAG] * len(results), RESULTS_TAG)


def _reject_unsigned_cer_content(cer: CER) -> None:
    """Step (7) for one CER: its children are its kind's, and its
    signature holds what :func:`~repro.xmlsec.xmldsig.sign_references`
    gives it.  Of the signature only
    ``SignedInfo`` is signed (by the signature itself); its ``Id`` is
    fixed by the id scheme, and ``SignatureValue`` and ``KeyName`` hold
    only their text."""
    if _fits_format(cer.element, _CER_CHILDREN[cer.kind]):
        return
    where = f"CER {cer.cer_id!r}"
    _exactly(cer.element, _CER_CHILDREN[cer.kind], where)
    signature = cer.element[-1]
    _attributes(signature, {ID_ATTR}, f"the Signature of {where}")
    _exactly(signature, _SIGNATURE_CHILDREN, f"the Signature of {where}")
    _, value, key_info = signature
    _attributes(key_info, set(), f"the KeyInfo of {where}")
    _exactly(key_info, ["KeyName"], f"the KeyInfo of {where}")
    for leaf in (value, key_info[0]):
        _attributes(leaf, set(), f"the {leaf.tag} of {where}")
        _exactly(leaf, [], f"the {leaf.tag} of {where}", text=True)


def _fits_format(cer: ET.Element, tags: list[str]) -> bool:
    """Whether *cer* passes every check of
    :func:`_reject_unsigned_cer_content`, tested without building a
    message; ``False`` leaves it to those checks to name the fault.
    Every CER of an accepted document takes this path."""
    if not _holds_only(cer, tags):
        return False
    signature = cer[-1]
    if (signature.keys() != [ID_ATTR]
            or not _holds_only(signature, _SIGNATURE_CHILDREN)):
        return False
    value, key_info = signature[1], signature[2]
    if (len(value) or value.keys() or key_info.keys()
            or not _holds_only(key_info, ["KeyName"])):
        return False
    return not len(key_info[0]) and not key_info[0].keys()


def _holds_only(element: ET.Element, tags: list[str]) -> bool:
    """Whether *element* holds exactly the children *tags*, with no text
    in it or between or after them."""
    if element.text or len(element) != len(tags):
        return False
    for child, tag in zip(element, tags):
        if child.tag != tag or child.tail:
            return False
    return True


def _attributes(element: ET.Element, allowed: set[str], where: str) -> None:
    """Reject *element* if it carries an attribute not in *allowed*."""
    extra = sorted(set(element.keys()) - allowed)
    if extra:
        raise VerificationError(f"{where} carries unsigned attributes {extra}")


def _exactly(element: ET.Element, tags: list[str], where: str,
             text: bool = False) -> None:
    """Reject *element* unless its children are *tags*, in order, with
    no text in it (unless *text*) or between or after them."""
    found = [child.tag for child in element]
    if found != tags:
        index = next((i for i, (tag, want) in enumerate(zip(found, tags))
                      if tag != want), min(len(found), len(tags)))
        if index == len(tags):
            problem = f"<{found[index]}>, which the format does not have"
        elif index == len(found):
            problem = f"no <{tags[index]}>"
        else:
            problem = f"<{found[index]}> where the format has <{tags[index]}>"
        raise VerificationError(
            f"{where} holds content no signature covers: {problem}")
    if (element.text and not text) or any(child.tail for child in element):
        raise VerificationError(f"{where} holds text no signature covers")
