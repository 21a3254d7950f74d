"""The Activity Execution Agent (AEA).

Paper §2.1: "a software tool called the activity execution agent"
running on the participant's own machine — anywhere, on any device —
replaces the workflow engine.  For each received document the AEA:

1. parses it and **verifies every embedded digital signature** (legal
   definition, valid history); bytes that extend the copy of the
   instance it verified last time are checked only for the CERs
   appended since;
2. checks the participant is the designated executor;
3. decrypts and presents the requested data (here: an
   :class:`ActivityContext` handed to a responder callable): in the
   advanced model only the requested fields, read from the newest CER
   back, and in the basic model every field it may read, which its
   guards and reader clauses need; a field this agent decrypted on an
   earlier hop comes from its decryption memo, so only fields new to it
   cost RSA;
4. appends the participant's element-wise-encrypted execution result;
5. embeds the cascaded digital signature;
6. evaluates the control flow and reports where to forward the
   document.

In the **advanced model** steps 4–6 change: the result is encrypted to
the TFC server (the AEA may not know the reader sets or the routing)
and the document is handed to the TFC for finalisation.

Timings for steps 1–3 (the paper's α: decrypt + verify) and 4–5 (β:
encrypt + sign) are recorded on every execution — Tables 1 and 2 are
produced directly from these counters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Mapping

from ..crypto.backend import CryptoBackend, default_backend
from ..crypto.keys import KeyPair
from ..crypto.pki import KeyDirectory
from ..crypto.pure.rsa import RsaPublicKey
from ..document.amendments import (
    Amendment,
    amendment_cers,
    check_authorized,
    make_amendment_cer,
)
from ..document.builder import make_intermediate_cer, make_standard_cer
from ..document.document import Dra4wfmsDocument
from ..document.nonrepudiation import frontier_cers
from ..document.resume import KeptPasses
from ..document.verify import VerificationReport, verify_document
from ..errors import AuthorizationError, PolicyError, RoutingError, RuntimeFault
from ..model.definition import WorkflowDefinition
from ..xmlsec.xmlenc import DecryptionMemo
from .router import RoutingDecision, cascade_targets, check_join_ready, route_after
from .state import VariableView

__all__ = ["ActivityContext", "AeaTimings", "AeaResult",
           "ActivityExecutionAgent", "Responder"]


@dataclass
class ActivityContext:
    """What the AEA shows the participant before execution (the "form")."""

    activity_id: str
    iteration: int
    participant: str
    #: Requested variables the participant may read, decrypted.
    requests: dict[str, str]
    #: Response fields the activity must produce (name → declared type).
    expected_responses: dict[str, str]
    definition: WorkflowDefinition
    process_id: str


#: A responder plays the human participant: context → response values.
Responder = Callable[[ActivityContext], Mapping[str, str]]


@dataclass
class AeaTimings:
    """Wall-clock phases of one activity execution (paper §4.1)."""

    #: α — parse the document, verify all signatures, decrypt requests.
    verify_seconds: float = 0.0
    #: β — encrypt the result and embed the cascaded signature.
    sign_seconds: float = 0.0
    #: Signatures verified during α.
    signatures_verified: int = 0
    #: CERs in the received document (incl. the definition CER).
    cers_seen: int = 0


@dataclass
class AeaResult:
    """Outcome of one AEA activity execution."""

    document: Dra4wfmsDocument
    activity_id: str
    iteration: int
    #: Routing (``None`` in the advanced model — the TFC routes).
    routing: RoutingDecision | None
    timings: AeaTimings
    report: VerificationReport
    mode: str
    values: dict[str, str] = field(repr=False, default_factory=dict)


class ActivityExecutionAgent:
    """The engine-less execution agent of one participant."""

    def __init__(self, keypair: KeyPair, directory: KeyDirectory,
                 backend: CryptoBackend | None = None) -> None:
        self.keypair = keypair
        self.directory = directory
        self.backend = backend or default_backend()
        #: The last copy of each instance this agent received as bytes
        #: and verified in full, so the next copy of it costs only the
        #: CERs appended since.  A parsed document is always a full pass.
        self.kept_passes = KeptPasses()
        #: What this participant already decrypted: step 3 pays RSA only
        #: for fields it has not decrypted before (see
        #: :class:`~repro.xmlsec.xmlenc.DecryptionMemo`).
        self.decryption_memo = DecryptionMemo()

    @property
    def identity(self) -> str:
        """The participant this agent acts for."""
        return self.keypair.identity

    # -- step 1: receive & verify ------------------------------------------------

    def _receive(self, data: bytes | Dra4wfmsDocument,
                 merge_with: list[Dra4wfmsDocument] | None,
                 ) -> tuple[Dra4wfmsDocument, VerificationReport]:
        """Merge (AND-join) and verify a routed document.

        Unmerged bytes go to the verifier as they are, so a copy that
        extends the one this agent last received of the instance resumes
        its verification.
        """
        if merge_with:
            if isinstance(data, bytes):
                data = Dra4wfmsDocument.from_bytes(data)
            for branch in merge_with:
                data = data.merge(branch)
        report = verify_document(
            data, self.directory, self.backend,
            definition_reader=(self.identity, self.keypair.private_key),
            kept=self.kept_passes,
        )
        return report.document, report

    # -- full execution -----------------------------------------------------------

    def execute_activity(
        self,
        data: bytes | Dra4wfmsDocument,
        activity_id: str,
        responder: Responder | Mapping[str, str],
        *,
        mode: str = "basic",
        tfc_identity: str | None = None,
        tfc_public_key: RsaPublicKey | None = None,
        merge_with: list[Dra4wfmsDocument] | None = None,
    ) -> AeaResult:
        """Run the six AEA steps for *activity_id*.

        Parameters
        ----------
        responder:
            Callable receiving the :class:`ActivityContext`, or a plain
            mapping of response values.
        mode:
            ``"basic"`` (§2.1) or ``"advanced"`` (§2.2).  The basic mode
            refuses policies it cannot enforce (conditional reader
            clauses, concealed flow) — that refusal is the Fig. 4
            problem, and the advanced mode is its solution.
        tfc_identity / tfc_public_key:
            Required in advanced mode: where to encrypt the raw result.
        """
        if mode not in ("basic", "advanced"):
            raise RuntimeFault(f"unknown AEA mode {mode!r}")
        if mode == "advanced" and (tfc_identity is None
                                   or tfc_public_key is None):
            raise RuntimeFault("advanced mode requires the TFC identity "
                               "and public key")

        # α phase: parse + verify + decrypt ------------------------------------
        alpha_start = time.perf_counter()
        document, report = self._receive(data, merge_with)
        definition = report.definition

        activity = definition.activity(activity_id)
        if activity.participant != self.identity:
            raise AuthorizationError(
                f"{self.identity!r} is not the designated participant of "
                f"{activity_id!r} (expected {activity.participant!r})"
            )
        check_join_ready(document, definition, activity_id)
        if mode == "basic" and definition.policy.requires_tfc:
            raise PolicyError(
                "this workflow's security policy requires the advanced "
                "operational model (TFC server)"
            )

        iteration = document.execution_count(activity_id)
        # The basic model's guards and reader clauses read every field;
        # the advanced model's AEA shows only what the activity requests.
        reader = (self.identity, self.keypair.private_key, self.backend,
                  self.decryption_memo)
        view = (VariableView.for_reader(document, *reader) if mode == "basic"
                else VariableView.for_requests(document, activity.requests,
                                               *reader))
        requests: dict[str, str] = {}
        for name in activity.requests:
            if name not in view:
                raise AuthorizationError(
                    f"activity {activity_id!r} requests {name!r} but "
                    f"{self.identity!r} cannot decrypt it (policy/"
                    f"predecessor mismatch)"
                )
            requests[name] = view[name]
        timings = AeaTimings(
            verify_seconds=time.perf_counter() - alpha_start,
            signatures_verified=report.signatures_verified,
            cers_seen=report.cers_checked,
        )

        # participant acts ------------------------------------------------------
        context = ActivityContext(
            activity_id=activity_id,
            iteration=iteration,
            participant=self.identity,
            requests=requests,
            expected_responses={s.name: s.ftype for s in activity.responses},
            definition=definition,
            process_id=document.process_id,
        )
        values = dict(responder(context)) if callable(responder) \
            else dict(responder)
        declared = set(activity.response_names)
        if set(values) != declared:
            raise RuntimeFault(
                f"activity {activity_id!r} must produce exactly "
                f"{sorted(declared)}, got {sorted(values)}"
            )

        # β phase: encrypt + sign -------------------------------------------------
        beta_start = time.perf_counter()
        new_document = document.clone_for_append()
        targets = cascade_targets(new_document, definition, activity_id)
        routing: RoutingDecision | None

        if mode == "basic":
            merged_view = view.merged_with(values)
            typed = merged_view.typed(definition)

            def readers_for(fieldname: str) -> dict[str, RsaPublicKey]:
                names = definition.policy.readers_for(
                    definition, activity_id, fieldname, typed
                )
                return {
                    identity: self.directory.public_key_of(identity)
                    for identity in names
                }

            cer = make_standard_cer(
                activity_id, iteration, self.keypair, values,
                readers_for, targets, self.backend,
            )
            new_document.append_cer(cer)
            timings.sign_seconds = time.perf_counter() - beta_start
            try:
                routing = route_after(definition, activity_id, typed)
            except RoutingError:
                raise
        else:
            cer = make_intermediate_cer(
                activity_id, iteration, self.keypair, values,
                tfc_identity, tfc_public_key, targets, self.backend,
            )
            new_document.append_cer(cer)
            timings.sign_seconds = time.perf_counter() - beta_start
            routing = None  # the TFC server decides

        return AeaResult(
            document=new_document,
            activity_id=activity_id,
            iteration=iteration,
            routing=routing,
            timings=timings,
            report=report,
            mode=mode,
            values=values,
        )

    # -- run-time amendments (dynamic flow control / security policy) ------

    def amend(self, data: bytes | Dra4wfmsDocument,
              amendment: Amendment) -> Dra4wfmsDocument:
        """Embed a signed run-time amendment into a routed document.

        Verifies the document first, checks this identity is authorised
        to apply *amendment* under the current effective definition,
        and appends an amendment CER whose signature countersigns the
        document frontier.  Returns the new document; the caller routes
        it onwards like any other copy.
        """
        document, report = self._receive(data, None)
        check_authorized(amendment, self.identity, report.definition)

        new_document = document.clone_for_append()
        sequence = len(amendment_cers(new_document))
        frontier = [
            cer.signature.element for cer in frontier_cers(new_document)
        ]
        cer = make_amendment_cer(amendment, sequence, self.keypair,
                                 frontier, self.backend)
        new_document.append_cer(cer)
        return new_document
