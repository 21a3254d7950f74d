"""In-memory execution of complete workflow processes.

The runtime plays postman between simulated participants: it delivers
routed documents to the right AEA, buffers branch documents at AND-
joins, relays intermediate documents to the TFC server in the advanced
model, and records the per-step measurements (α, β, γ, document size)
that the paper's Tables 1 and 2 report.

It deliberately holds **no** authority: every security property is
enforced by the documents and agents themselves.  The runtime could be
replaced by SMTP and the system would work identically — that is the
paper's point.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Mapping

from ..crypto.backend import CryptoBackend, default_backend
from ..crypto.keys import KeyPair
from ..crypto.pki import KeyDirectory
from ..document.document import Dra4wfmsDocument
from ..errors import RuntimeFault
from ..model.controlflow import JoinKind
from ..model.definition import WorkflowDefinition
from .aea import ActivityExecutionAgent, Responder
from .tfc import TfcServer

__all__ = ["StepTrace", "ExecutionTrace", "InMemoryRuntime"]


@dataclass
class StepTrace:
    """Measurements for one executed activity (one row of Table 1/2)."""

    step: int
    label: str                      # e.g. ``X''_B1^0``
    activity_id: str
    iteration: int
    participant: str
    #: Decrypt + verify seconds (AEA; plus TFC verify in advanced mode).
    alpha: float
    #: AEA encrypt + sign seconds.
    beta: float
    #: TFC encrypt + sign seconds (advanced mode only).
    gamma: float | None
    #: Canonical size of the produced document in bytes (Σ).
    size_bytes: int
    #: Signatures verified when the document was received.
    signatures_verified: int
    #: CERs in the produced document (excluding the definition CER).
    num_cers: int
    mode: str
    #: Advanced mode only: size of the intermediate document the AEA
    #: handed to the TFC (the paper's ``X_Ai`` rows in Table 2).
    intermediate_size_bytes: int | None = None
    #: The document as produced at this step (the per-hop snapshot an
    #: incremental verifier sees; excluded from repr — it is large).
    document: Dra4wfmsDocument | None = field(default=None, repr=False)


@dataclass
class ExecutionTrace:
    """Full record of one process execution."""

    process_id: str
    mode: str
    initial_size: int
    steps: list[StepTrace] = field(default_factory=list)
    final_document: Dra4wfmsDocument | None = None

    @property
    def total_alpha(self) -> float:
        """Sum of verify times across all steps."""
        return sum(s.alpha for s in self.steps)

    @property
    def total_beta(self) -> float:
        """Sum of AEA sign times across all steps."""
        return sum(s.beta for s in self.steps)

    @property
    def final_size(self) -> int:
        """Size of the last produced document."""
        return self.steps[-1].size_bytes if self.steps else self.initial_size


class InMemoryRuntime:
    """Drives a workflow process to completion among simulated parties."""

    def __init__(self,
                 directory: KeyDirectory,
                 participants: Mapping[str, KeyPair],
                 tfc: TfcServer | None = None,
                 backend: CryptoBackend | None = None) -> None:
        self.directory = directory
        self.backend = backend or default_backend()
        self.tfc = tfc
        self._agents: dict[str, ActivityExecutionAgent] = {
            identity: ActivityExecutionAgent(keypair, directory, self.backend)
            for identity, keypair in participants.items()
        }

    def agent_for(self, identity: str) -> ActivityExecutionAgent:
        """The AEA acting for *identity*."""
        try:
            return self._agents[identity]
        except KeyError:
            raise RuntimeFault(
                f"no key pair registered for participant {identity!r}"
            ) from None

    def run(self,
            initial_document: Dra4wfmsDocument,
            definition: WorkflowDefinition,
            responders: Mapping[str, Responder | Mapping[str, str]],
            mode: str = "basic",
            max_steps: int = 10_000) -> ExecutionTrace:
        """Execute the whole process, delivery by delivery in FIFO
        order, and return the measured trace.

        Parameters
        ----------
        responders:
            activity id → responder (callable or fixed value mapping).
            A responder is invoked once per loop iteration; callables
            can inspect :class:`~repro.core.aea.ActivityContext` (which
            carries the iteration) to vary answers.
        mode:
            ``"basic"`` or ``"advanced"`` — selects the operational
            model for *every* step.
        max_steps:
            Executions after which the process counts as a runaway loop.
        """
        if mode == "advanced" and self.tfc is None:
            raise RuntimeFault("advanced mode requires a TFC server")
        tfc = self.tfc if mode == "advanced" else None
        trace = ExecutionTrace(
            process_id=initial_document.process_id,
            mode=mode,
            initial_size=initial_document.size_bytes,
        )
        # Deliveries: (activity id, the receiving agent's own copy).
        queue: deque[tuple[str, Dra4wfmsDocument]] = deque(
            [(definition.start_activity, initial_document.clone())]
        )
        # AND-join branch buffers: activity id → branch documents.
        join_buffers: dict[str, list[Dra4wfmsDocument]] = {}
        while queue:
            if len(trace.steps) >= max_steps:
                raise RuntimeFault(
                    f"process exceeded {max_steps} steps "
                    f"(runaway loop?)"
                )
            activity_id, document = queue.popleft()
            activity = definition.activity(activity_id)
            agent = self.agent_for(activity.participant)
            arrivals = [document]
            if activity.join is JoinKind.AND:
                buffer = join_buffers.setdefault(activity_id, [])
                buffer.append(document)
                if len(buffer) < len(definition.incoming(activity_id)):
                    continue
                arrivals = join_buffers.pop(activity_id)
            responder = responders.get(activity_id)
            if responder is None:
                raise RuntimeFault(
                    f"no responder registered for activity {activity_id!r}"
                )

            result = agent.execute_activity(
                arrivals[0], activity_id, responder,
                mode=mode,
                tfc_identity=tfc.identity if tfc else None,
                tfc_public_key=tfc.public_key if tfc else None,
                merge_with=arrivals[1:],
            )
            document, routing = result.document, result.routing
            alpha = result.timings.verify_seconds
            gamma = intermediate_size = None
            if tfc is not None:
                intermediate_size = document.size_bytes
                tfc_result = tfc.process(document)
                document, routing = tfc_result.document, tfc_result.routing
                alpha += tfc_result.verify_seconds
                gamma = tfc_result.sign_seconds
            trace.steps.append(StepTrace(
                step=len(trace.steps) + 1,
                label=f"X''_{result.activity_id}^{result.iteration}",
                activity_id=result.activity_id,
                iteration=result.iteration,
                participant=activity.participant,
                alpha=alpha,
                beta=result.timings.sign_seconds,
                gamma=gamma,
                size_bytes=document.size_bytes,
                signatures_verified=result.timings.signatures_verified,
                num_cers=len(document.results_section),
                mode=mode,
                intermediate_size_bytes=intermediate_size,
                document=document,
            ))
            trace.final_document = document
            assert routing is not None
            for next_activity in routing.next_activities:
                queue.append((next_activity, document.clone()))
        leftover = {aid: len(docs)
                    for aid, docs in join_buffers.items() if docs}
        if leftover:
            raise RuntimeFault(
                f"process ended with unsatisfied AND-joins: {leftover}"
            )
        return trace
