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
from ..document.delta import DeltaDocument, encode_delta
from ..document.document import Dra4wfmsDocument
from ..errors import RuntimeFault
from ..model.activity import Activity
from ..model.controlflow import JoinKind
from ..model.definition import WorkflowDefinition
from .aea import ActivityExecutionAgent, AeaResult, Responder
from .tfc import TfcServer

__all__ = ["StepTrace", "ExecutionTrace", "ProcessExecution",
           "InMemoryRuntime"]


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
    #: Bytes that crossed the wire to deliver this step's input
    #: document(s) — the full canonical size, or the manifest + unseen
    #: chunks when the runtime routes deltas.  AND-joins sum all
    #: buffered branch deliveries.
    wire_bytes: int = 0
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
    #: ``"full"`` or ``"delta"`` — how documents moved between agents.
    routing: str = "full"
    steps: list[StepTrace] = field(default_factory=list)
    final_document: Dra4wfmsDocument | None = None

    @property
    def total_alpha(self) -> float:
        """Sum of verify times across all steps."""
        return sum(s.alpha for s in self.steps)

    @property
    def total_wire_bytes(self) -> int:
        """Bytes moved between participants across the whole process."""
        return sum(s.wire_bytes for s in self.steps)

    @property
    def total_beta(self) -> float:
        """Sum of AEA sign times across all steps."""
        return sum(s.beta for s in self.steps)

    @property
    def final_size(self) -> int:
        """Size of the last produced document."""
        return self.steps[-1].size_bytes if self.steps else self.initial_size


@dataclass
class _Delivery:
    activity_id: str
    #: What travels: the document itself (full routing) or a
    #: :class:`DeltaDocument` holding only the chunks the receiving
    #: agent has not seen yet (delta routing).
    payload: Dra4wfmsDocument | DeltaDocument
    #: Simulated transfer size of this delivery.
    wire_bytes: int


@dataclass
class _Ready:
    """A received delivery whose activity can execute now."""

    step: int
    activity: Activity
    agent: ActivityExecutionAgent
    responder: Responder | Mapping[str, str]
    document: Dra4wfmsDocument
    #: The other branch documents of an AND-join.
    merge_with: list[Dra4wfmsDocument]
    #: Wire bytes of every delivery this step consumed.
    wire_bytes: int


class ProcessExecution:
    """One in-flight process instance, advanced a hop at a time.

    Created by :meth:`InMemoryRuntime.start`.  A hop has three parts:
    :meth:`receive` takes one delivery (buffering AND-join arrivals),
    :meth:`execute` runs the participant's AEA, and :meth:`finish`
    finalises the result and routes it on.  :meth:`step` does all three
    for the next queued delivery and returns its :class:`StepTrace`, or
    ``None`` once the instance has run to completion; executions can be
    interleaved by round-robining :meth:`step` across them.
    """

    def __init__(self,
                 runtime: "InMemoryRuntime",
                 initial_document: Dra4wfmsDocument,
                 definition: WorkflowDefinition,
                 responders: Mapping[str, Responder | Mapping[str, str]],
                 mode: str = "basic",
                 max_steps: int = 10_000) -> None:
        if mode == "advanced" and runtime.tfc is None:
            raise RuntimeFault("advanced mode requires a TFC server")
        self.runtime = runtime
        self.definition = definition
        self.responders = responders
        self.mode = mode
        self.max_steps = max_steps
        self.trace = ExecutionTrace(
            process_id=initial_document.process_id,
            mode=mode,
            initial_size=initial_document.size_bytes,
            routing="delta" if runtime.delta_routing else "full",
        )
        # The initial hand-off goes through the same packaging as every
        # later hop: in delta mode the start participant has no chunks
        # yet, so the wire cost is the full document plus manifest — but
        # decoding it primes that agent's cache for later revisits.
        self._queue: deque[_Delivery] = deque(
            [runtime.package(definition, definition.start_activity,
                             initial_document)]
        )
        # AND-join branch buffers: activity id → (branch doc, wire bytes).
        self._join_buffers: dict[str, list[tuple[Dra4wfmsDocument, int]]] = {}
        #: Activities received for execution so far (the step budget).
        self._step = 0

    @property
    def done(self) -> bool:
        """True once no deliveries remain (the process has finished)."""
        return not self._queue

    def pending(self) -> list[str]:
        """Activity ids queued for delivery, in delivery order."""
        return [delivery.activity_id for delivery in self._queue]

    def step(self) -> StepTrace | None:
        """Execute the next activity; ``None`` when the process is done.

        Deliveries that merely buffer a branch document at an AND-join
        are consumed silently — the call keeps going until an activity
        actually executes or the queue drains.
        """
        while self._queue:
            ready = self.receive(self._queue.popleft())
            if ready is not None:
                return self.finish(ready, self.execute(ready))
        leftover = {aid: len(docs)
                    for aid, docs in self._join_buffers.items() if docs}
        if leftover:
            raise RuntimeFault(
                f"process ended with unsatisfied AND-joins: {leftover}"
            )
        return None

    def receive(self, delivery: _Delivery) -> _Ready | None:
        """Take one delivery; ``None`` while its AND-join still waits."""
        if self._step >= self.max_steps:
            raise RuntimeFault(
                f"process exceeded {self.max_steps} steps "
                f"(runaway loop?)"
            )
        activity = self.definition.activity(delivery.activity_id)
        activity_id = activity.activity_id
        agent = self.runtime.agent_for(activity.participant)
        # Materialise the payload with the *receiving* agent so a delta
        # is decoded against (and folded into) its chunk cache — exactly
        # what a remote AEA would do.
        arrivals = [(agent._materialize(delivery.payload),
                     delivery.wire_bytes)]
        if activity.join is JoinKind.AND:
            buffer = self._join_buffers.setdefault(activity_id, [])
            buffer.extend(arrivals)
            if len(buffer) < len(self.definition.incoming(activity_id)):
                return None
            arrivals = self._join_buffers.pop(activity_id)
        responder = self.responders.get(activity_id)
        if responder is None:
            raise RuntimeFault(
                f"no responder registered for activity {activity_id!r}"
            )
        self._step += 1
        return _Ready(
            step=self._step, activity=activity, agent=agent,
            responder=responder, document=arrivals[0][0],
            merge_with=[doc for doc, _ in arrivals[1:]],
            wire_bytes=sum(wire for _, wire in arrivals),
        )

    def execute(self, ready: _Ready) -> AeaResult:
        """Run a ready activity in its participant's AEA."""
        tfc = self.runtime.tfc if self.mode == "advanced" else None
        return ready.agent.execute_activity(
            ready.document, ready.activity.activity_id, ready.responder,
            mode=self.mode,
            tfc_identity=tfc.identity if tfc else None,
            tfc_public_key=tfc.public_key if tfc else None,
            merge_with=ready.merge_with,
        )

    def finish(self, ready: _Ready, result: AeaResult) -> StepTrace:
        """Finalise an executed activity: TFC, trace row, routing."""
        document, routing = result.document, result.routing
        alpha = result.timings.verify_seconds
        gamma = intermediate_size = None
        if self.mode == "advanced":
            intermediate_size = document.size_bytes
            tfc_result = self.runtime.tfc.process(document)
            document, routing = tfc_result.document, tfc_result.routing
            alpha += tfc_result.verify_seconds
            gamma = tfc_result.sign_seconds
        step_trace = StepTrace(
            step=ready.step,
            label=f"X''_{result.activity_id}^{result.iteration}",
            activity_id=result.activity_id,
            iteration=result.iteration,
            participant=ready.activity.participant,
            alpha=alpha,
            beta=result.timings.sign_seconds,
            gamma=gamma,
            size_bytes=document.size_bytes,
            signatures_verified=result.timings.signatures_verified,
            num_cers=len(document.results_section),
            mode=self.mode,
            wire_bytes=ready.wire_bytes,
            intermediate_size_bytes=intermediate_size,
            document=document,
        )
        self.trace.steps.append(step_trace)
        self.trace.final_document = document
        assert routing is not None
        for next_activity in routing.next_activities:
            self._queue.append(self.runtime.package(
                self.definition, next_activity, document))
        return step_trace


class InMemoryRuntime:
    """Drives a workflow process to completion among simulated parties."""

    def __init__(self,
                 directory: KeyDirectory,
                 participants: Mapping[str, KeyPair],
                 tfc: TfcServer | None = None,
                 backend: CryptoBackend | None = None,
                 delta_routing: bool = False) -> None:
        self.directory = directory
        self.backend = backend or default_backend()
        self.tfc = tfc
        #: When True, routed documents travel as deltas against each
        #: receiving agent's content-addressed chunk cache instead of
        #: full canonical bytes (see docs/ROUTING.md).
        self.delta_routing = delta_routing
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

    def package(self, definition: WorkflowDefinition, next_activity: str,
                document: Dra4wfmsDocument) -> _Delivery:
        """Package *document* for delivery to *next_activity*'s agent.

        Delta routing diffs against the receiving agent's chunk cache
        at send time: only the manifest and the CER chunks that agent
        has never seen travel.  The receiver rebuilds the full byte-
        identical document before verifying — nothing in the security
        path changes, only the transfer size.
        """
        if self.delta_routing:
            recipient = definition.activity(next_activity).participant
            agent = self.agent_for(recipient)
            delta = encode_delta(document, known=agent.chunk_cache)
            return _Delivery(next_activity, delta, delta.wire_bytes)
        return _Delivery(next_activity, document.clone(),
                         document.size_bytes)

    def start(self,
              initial_document: Dra4wfmsDocument,
              definition: WorkflowDefinition,
              responders: Mapping[str, Responder | Mapping[str, str]],
              mode: str = "basic",
              max_steps: int = 10_000) -> ProcessExecution:
        """Begin a resumable execution (see :class:`ProcessExecution`).

        Multiple executions can share one runtime and be stepped in any
        interleaving — all per-instance state lives on the execution.
        """
        return ProcessExecution(
            self, initial_document, definition, responders,
            mode=mode, max_steps=max_steps,
        )

    def run(self,
            initial_document: Dra4wfmsDocument,
            definition: WorkflowDefinition,
            responders: Mapping[str, Responder | Mapping[str, str]],
            mode: str = "basic",
            max_steps: int = 10_000) -> ExecutionTrace:
        """Execute the whole process and return the measured trace.

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
        """
        execution = self.start(initial_document, definition, responders,
                               mode=mode, max_steps=max_steps)
        while execution.step() is not None:
            pass
        return execution.trace
