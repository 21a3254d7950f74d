"""The Timestamp-and-Flow-Control (TFC) server.

Paper §2.2: "analogous to a notary public" — the TFC is *not* a
workflow engine.  It never executes activities and holds no
authoritative process state; it only

* **timestamps** each finished activity (monitoring needs a trusted
  finish time);
* **applies the security policy** the participant could not: it decrypts
  the TFC-addressed result bundle, re-encrypts each field for the reader
  set the policy prescribes (resolving conditional clauses with guard
  variables the participant was not allowed to see — Fig. 4).  Its view
  of the variables is the one it kept of the instance's last receipt,
  extended by the CERs appended since; a field it encrypted itself comes
  back from its decryption memo, so a hop costs RSA for the new result
  bundle and fields new to it only;
* **forwards** the document according to the control flow; and
* keeps a record of every processed activity, so the progress of
  workflow executions can be queried (§2.2, monitoring).  It keeps no
  copy of the documents it forwards: in the cloud the pool holds every
  version.

Crucially the TFC *also signs into the cascade*: its CER countersigns
the participant's intermediate signature, so even a malicious TFC
cannot repudiate its processing, and any alteration it makes is
detectable by the same verification every AEA already runs.
"""

from __future__ import annotations

import operator
import threading
import time
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, ContextManager

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs.tracer import Tracer

from ..crypto.backend import CryptoBackend, default_backend
from ..crypto.keys import KeyPair
from ..crypto.pki import KeyDirectory
from ..crypto.pure.rsa import RsaPublicKey
from ..document.builder import (
    INTERMEDIATE_BUNDLE_FIELD,
    make_tfc_cer,
    parse_result_bundle,
)
from ..document.cer import CER
from ..document.document import Dra4wfmsDocument
from ..document.resume import KeptPasses
from ..document.vcache import VerificationCache
from ..document.verify import VerificationReport, verify_document
from ..errors import RuntimeFault
from ..model.definition import WorkflowDefinition
from ..xmlsec.xmlenc import DecryptionMemo
from .router import RoutingDecision, route_after
from .state import VariableView

__all__ = ["TfcRecord", "TfcResult", "TfcServer"]


@dataclass(frozen=True)
class TfcRecord:
    """One monitoring record: an activity finished at a witnessed time."""

    process_id: str
    activity_id: str
    iteration: int
    participant: str
    timestamp: float


@dataclass
class TfcResult:
    """Outcome of TFC processing for one intermediate CER."""

    document: Dra4wfmsDocument
    activity_id: str
    iteration: int
    routing: RoutingDecision
    timestamp: float
    #: Verification + bundle decryption time (contributes to Table 2's α).
    verify_seconds: float
    #: Re-encryption + signature time (Table 2's γ).
    sign_seconds: float
    #: :attr:`VerificationReport.definition` of the submission, which
    #: the portal updates TO-DO lists with.
    definition: WorkflowDefinition


class TfcServer:
    """A timestamp and flow control server (advanced operational model)."""

    def __init__(self, keypair: KeyPair, directory: KeyDirectory,
                 backend: CryptoBackend | None = None,
                 clock: Callable[[], float] | None = None,
                 trusted_tfcs: set[str] | None = None,
                 verify_cache: VerificationCache | None = None) -> None:
        self.keypair = keypair
        self.directory = directory
        self.backend = backend or default_backend()
        if clock is None:
            # Deterministic by default: timestamps come from a private
            # simulated clock ticking one second per witnessed event,
            # not the host wall clock, so timestamp-monotonicity is
            # exact and test runs are reproducible.  Deployments pass
            # their own clock (e.g. ``SimClock.now`` or ``time.time``).
            from ..cloud.simclock import SimClock

            own_clock = SimClock()
            clock = lambda: own_clock.advance(1.0)  # noqa: E731
        self.clock = clock
        #: Opt-in shared signature cache for incremental verification
        #: (``None``: every signature a pass checks costs RSA).
        self.verify_cache = verify_cache
        #: The last submission of each live instance that verified in
        #: full, so the next one (its bytes) is verified from there:
        #: only the CERs appended since are parsed and checked.  This
        #: server's own history, never shared.
        self.kept_passes = KeptPasses()
        #: TFC identities whose CERs this server accepts in incoming
        #: documents.  Cross-enterprise deployments run one TFC per
        #: enterprise (Fig. 6 shows a TFC per hop); list the federation
        #: here.  Always includes this server itself.
        self.trusted_tfcs = set(trusted_tfcs or ()) | {keypair.identity}
        #: What this server already decrypted, and the plaintexts of the
        #: fields it encrypted itself: a field either way costs no RSA
        #: when it comes back (see
        #: :class:`~repro.xmlsec.xmlenc.DecryptionMemo`).
        self.decryption_memo = DecryptionMemo()
        #: process id → the CERs of the last receipt's history and this
        #: server's view of them, for as many live instances as
        #: :attr:`kept_passes` holds, the least recently used first out.
        #: A resumed receipt's history starts with those same CER
        #: objects, so its view reads only the CERs appended since.
        self._views: OrderedDict[str, tuple[tuple[CER, ...],
                                            VariableView]] = OrderedDict()
        self._views_lock = threading.Lock()
        #: Monitoring records, in processing order.
        self.records: list[TfcRecord] = []
        #: Optional observability hook (:class:`repro.obs.Tracer`) —
        #: the TFC has no :class:`SimClock` of its own (its *clock* is a
        #: bare timestamp callable), so the span hook attaches here.
        self.tracer: "Tracer | None" = None

    def _trace(self, name: str, component: str) -> ContextManager[object]:
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, component=component)

    @property
    def identity(self) -> str:
        """The TFC's identity (the key results are addressed to)."""
        return self.keypair.identity

    @property
    def public_key(self) -> RsaPublicKey:
        """The key participants encrypt intermediate bundles to."""
        return self.keypair.public_key

    def process(self, data: bytes | Dra4wfmsDocument) -> TfcResult:
        """Finalise the pending intermediate CER of a routed document.

        Verifies the document, decrypts the TFC-addressed bundle,
        re-encrypts the result per policy, timestamps, signs, records,
        and computes the routing decision.  Received bytes resume the
        verification of the instance's previous submission (see
        :func:`~repro.document.verify.verify_document`).
        """
        with self._trace("tfc.process", "tfc"):
            return self._process(data)

    def _process(self, data: bytes | Dra4wfmsDocument) -> TfcResult:
        verify_start = time.perf_counter()
        with self._trace("tfc.verify", "crypto"):
            report: VerificationReport = verify_document(
                data, self.directory, self.backend,
                definition_reader=(self.identity, self.keypair.private_key),
                tfc_identities=self.trusted_tfcs,
                cache=self.verify_cache,
                kept=self.kept_passes,
            )
            document, definition = report.document, report.definition

            pending = document.pending_intermediate()
            if not pending:
                raise RuntimeFault(
                    "document has no pending intermediate CER to finalise"
                )
            if len(pending) > 1:
                raise RuntimeFault(
                    f"document has {len(pending)} pending intermediate "
                    f"CERs; each routed copy must carry exactly one"
                )
            cer_it = pending[0]
            bundle = cer_it.encrypted_field(INTERMEDIATE_BUNDLE_FIELD)
            values = parse_result_bundle(bundle.decrypt(
                self.identity, self.keypair.private_key, self.backend
            ))
            verify_seconds = time.perf_counter() - verify_start

        # γ phase: re-encrypt per policy + timestamp + sign ------------------
        sign_start = time.perf_counter()
        with self._trace("tfc.sign", "crypto"):
            view = self._view(document).merged_with(values)
            typed = view.typed(definition)
            activity_id, iteration = cer_it.activity_id, cer_it.iteration

            def readers_for(fieldname: str) -> dict[str, RsaPublicKey]:
                names = set(definition.policy.readers_for(
                    definition, activity_id, fieldname, typed
                ))
                # The TFC saw the plaintext anyway and needs it later for
                # guard evaluation; adding itself keeps that honest and
                # auditable rather than implicit.
                names.add(self.identity)
                return {
                    identity: self.directory.public_key_of(identity)
                    for identity in sorted(names)
                }

            timestamp = float(self.clock())
            new_document = document.clone_for_append()
            tfc_cer = make_tfc_cer(
                activity_id, iteration, self.keypair, values,
                readers_for, cer_it.signature.element, timestamp,
                self.backend,
            )
            new_document.append_cer(tfc_cer)
            sign_seconds = time.perf_counter() - sign_start
            for enc in tfc_cer.encrypted_fields():
                self.decryption_memo.record(
                    enc, self.identity, self.keypair.private_key,
                    values[enc.name].encode("utf-8"))

        routing = route_after(definition, activity_id, typed)
        if routing.terminal:
            self.kept_passes.forget(document.process_id)
            with self._views_lock:
                self._views.pop(document.process_id, None)

        self.records.append(TfcRecord(
            process_id=document.process_id,
            activity_id=activity_id,
            iteration=iteration,
            participant=cer_it.participant,
            timestamp=timestamp,
        ))
        return TfcResult(
            document=new_document,
            activity_id=activity_id,
            iteration=iteration,
            routing=routing,
            timestamp=timestamp,
            verify_seconds=verify_seconds,
            sign_seconds=sign_seconds,
            definition=definition,
        )

    def _view(self, document: Dra4wfmsDocument) -> VariableView:
        """:meth:`VariableView.for_reader` of *document* as this server.

        When *document*'s history starts with the CERs of the view kept
        for its instance (a resumed receipt), that view is extended by
        the CERs after them; otherwise (a cold pass, an evicted kept
        pass, a merged document) the view is read from the first CER.
        """
        process_id = document.process_id
        cers = document.history().cers
        with self._views_lock:
            covered, view = self._views.pop(process_id,
                                            ((), VariableView({})))
        if len(covered) > len(cers) or not all(map(operator.is_, covered,
                                                   cers)):
            covered, view = (), VariableView({})
        view = view.extended(cers[len(covered):], self.identity,
                             self.keypair.private_key, self.backend,
                             self.decryption_memo)
        with self._views_lock:
            self._views[process_id] = (tuple(cers), view)
            while len(self._views) > KeptPasses.LIMIT:
                self._views.popitem(last=False)
        return view
