"""Parallel execution of independent workflow branches.

The document-routing architecture is embarrassingly parallel across
AND-split branches: each branch owns an independent copy of the
document, and the branches only meet again at the join, where the CER
sets are unioned.  :class:`ThreadedRuntime` exploits that: it advances
a :class:`~repro.core.runtime.ProcessExecution` a wave at a time —
receive every queued delivery, execute all ready activities
concurrently in a thread pool (the RSA work underneath releases the GIL
in the OpenSSL-backed fast backend), then finish them in wave order.

Receiving, executing and finishing are the execution's own methods, so
the semantics are those of :class:`~repro.core.runtime.InMemoryRuntime`
and only the hop order differs (waves instead of one FIFO queue).  In
advanced mode the TFC finalisation stays sequential (it is one logical
server with an ordered record log); only the AEA work fans out.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Mapping

from ..document.document import Dra4wfmsDocument
from ..model.definition import WorkflowDefinition
from .aea import Responder
from .runtime import ExecutionTrace, InMemoryRuntime

__all__ = ["ThreadedRuntime"]


class ThreadedRuntime(InMemoryRuntime):
    """Runs independent branches on a thread pool.

    Parameters
    ----------
    max_workers:
        Thread-pool width; defaults to 8 (plenty for the branch widths
        real processes exhibit).
    """

    def __init__(self, *args, max_workers: int = 8, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.max_workers = max_workers

    def run(self,
            initial_document: Dra4wfmsDocument,
            definition: WorkflowDefinition,
            responders: Mapping[str, Responder | Mapping[str, str]],
            mode: str = "basic",
            max_steps: int = 10_000) -> ExecutionTrace:
        """Execute the whole process, fanning out each wave of branches."""
        execution = self.start(initial_document, definition, responders,
                               mode=mode, max_steps=max_steps)
        with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
            while wave := execution.receive_wave():
                results = list(pool.map(execution.execute, wave))
                for ready, result in zip(wave, results):
                    execution.finish(ready, result)
        return execution.trace
