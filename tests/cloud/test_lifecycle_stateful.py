"""Stateful property test: the chunk lifecycle against the census.

Hypothesis interleaves, over several instances of one executed Fig. 9A
run: stores of its steps (a step that does not extend the stored
version is merged with it first, as the portal does at an AND-join),
compactions, retirements, purges, pool rebuilds over the same HBase and
region-server crashes.  After every step the census, read straight from
HBase, must find each chunk a live manifest names intact on every
replica and no chunk cell that no live manifest names; every live
instance must read back as stored; and once every instance is retired
or purged the chunk tables hold 0 bytes.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.cloud.hbase import SimHBase
from repro.cloud.pool import DocumentPool
from repro.document import Dra4wfmsDocument
from repro.document.delta import chunk_document

from .census import take_census

_STEPS: list[bytes] | None = None


def _steps() -> list[bytes]:
    """The initial document and every step's document of one
    basic-model Fig. 9A run, built once per process."""
    global _STEPS
    if _STEPS is None:
        from repro.core import InMemoryRuntime
        from repro.crypto.fast import FastBackend
        from repro.document import build_initial_document
        from repro.workloads import build_world, figure9_responders
        from repro.workloads.figure9 import (
            DESIGNER,
            PARTICIPANTS,
            figure_9a_definition,
        )

        backend = FastBackend()
        world = build_world([DESIGNER, *PARTICIPANTS.values()], bits=1024,
                            backend=backend)
        definition = figure_9a_definition()
        initial = build_initial_document(definition,
                                         world.keypair(DESIGNER),
                                         backend=backend, created_at=0.0)
        trace = InMemoryRuntime(world.directory, world.keypairs,
                                backend=backend).run(
            initial, definition, figure9_responders(1), mode="basic")
        _STEPS = [initial.to_bytes(),
                  *(step.document.to_bytes() for step in trace.steps)]
    return _STEPS


def _document(index: int, process_id: str) -> Dra4wfmsDocument:
    document = Dra4wfmsDocument.from_bytes(_steps()[index])
    document.header.set("ProcessId", process_id)
    return document


class LifecycleMachine(RuleBasedStateMachine):
    """Random lifecycles of several instances over one HBase."""

    def __init__(self) -> None:
        super().__init__()
        self.hbase = SimHBase(region_servers=2, split_threshold_rows=4)
        self.replicas: int | None = None
        self.pool: DocumentPool | None = None
        #: process id → index of the next step to store.
        self.next_step: dict[str, int] = {}
        #: process id → bytes of its latest stored version (live only).
        self.stored: dict[str, bytes] = {}
        self.counter = 0

    @initialize(replicas=st.sampled_from([None, 2]))
    def build(self, replicas):
        self.replicas = replicas
        self.pool = DocumentPool(self.hbase, delta=True,
                                 chunk_replicas=replicas)

    def _live(self) -> list[str]:
        return sorted(self.stored)

    def _store(self, process_id: str) -> None:
        document = _document(self.next_step[process_id], process_id)
        if process_id in self.stored:
            held = set(self.pool.latest_manifest(process_id).cer_digests)
            if not held <= set(chunk_document(document)[0].cer_digests):
                # An AND-join: the branch lacks its sibling's CER.
                document = self.pool.latest(process_id).merge(document)
        self.pool.store(document)
        self.stored[process_id] = document.to_bytes()
        self.next_step[process_id] += 1

    @rule()
    def start(self):
        self.counter += 1
        process_id = f"inst{self.counter:03d}"
        self.pool.register_process(process_id)
        self.next_step[process_id] = 0
        self._store(process_id)

    @precondition(lambda self: any(self.next_step[p] < len(_steps())
                                   for p in self.stored))
    @rule(data=st.data(), hops=st.integers(1, 4))
    def hop(self, data, hops):
        process_id = data.draw(st.sampled_from(
            [p for p in self._live() if self.next_step[p] < len(_steps())]))
        for _ in range(min(hops, len(_steps()) - self.next_step[process_id])):
            self._store(process_id)

    @precondition(lambda self: self.stored)
    @rule(data=st.data())
    def compact(self, data):
        self.pool.compact(data.draw(st.sampled_from(self._live())))

    @precondition(lambda self: self.stored)
    @rule(data=st.data())
    def retire(self, data):
        process_id = data.draw(st.sampled_from(self._live()))
        self.pool.archive(process_id)
        self.pool.retire(process_id)
        del self.stored[process_id]

    @precondition(lambda self: self.stored)
    @rule(data=st.data())
    def purge(self, data):
        process_id = data.draw(st.sampled_from(self._live()))
        self.pool.purge(process_id)
        del self.stored[process_id]

    @rule()
    def rebuild(self):
        self.pool = DocumentPool(self.hbase, delta=True,
                                 chunk_replicas=self.replicas)

    @precondition(lambda self: sum(server.alive for server
                                   in self.hbase.servers.values()) > 1)
    @rule()
    def crash(self):
        self.hbase.kill_server("rs0")

    @invariant()
    def census_holds(self):
        if self.pool is None:
            return
        census = take_census(self.hbase, self.replicas or 1)
        for process_id, data in self.stored.items():
            assert self.pool.latest_bytes(process_id) == data
        if not self.stored:
            assert census.bytes == 0


LifecycleMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None,
)
TestLifecycleStateful = LifecycleMachine.TestCase
