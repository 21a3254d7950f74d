"""Delta routing equivalence: O(new CER) transfers, identical documents.

Delta routing changes only what crosses the wire — a manifest plus the
chunks the receiver has never seen — never what the receiver verifies.
These tests drive randomly shaped workflows (the same generator the
signature-cache fuzzer uses) through delta-routed runtimes and check,
at **every hop**:

* the materialized document passes a cold, trust-nothing verification;
* the trace shape matches a full-routing run of the same definition
  (same activities, same participants, same CER counts); and
* the wire accounting shows the win: revisiting participants receive
  a fraction of the document instead of all of it.
"""

from __future__ import annotations

import pytest

from repro.core import InMemoryRuntime, TfcServer
from repro.document import build_initial_document
from repro.document.verify import verify_document
from repro.workloads import build_world
from repro.workloads.generator import (
    auto_responders,
    chain_definition,
    diamond_definition,
    loop_definition,
    participant_pool,
    random_definition,
)

DESIGNER = "designer@enterprise.example"
TFC_IDENTITY = "tfc@cloud.example"
#: Small pool for revisit-heavy chains; the world enrolls the full
#: six-participant pool :func:`random_definition` draws from.
POOL = participant_pool(4)
RANDOM_SEEDS = range(10)


@pytest.fixture(scope="module")
def delta_world(backend):
    return build_world([DESIGNER, TFC_IDENTITY, *participant_pool(6)],
                       bits=1024, backend=backend)


def _run(delta_world, backend, definition, mode, *, delta_routing,
         loop_iterations=1):
    initial = build_initial_document(
        definition, delta_world.keypair(DESIGNER), backend=backend
    )
    tfc = None
    if mode == "advanced":
        tfc = TfcServer(delta_world.keypair(TFC_IDENTITY),
                        delta_world.directory, backend=backend)
    runtime = InMemoryRuntime(delta_world.directory, delta_world.keypairs,
                              tfc=tfc, backend=backend,
                              delta_routing=delta_routing)
    trace = runtime.run(
        initial, definition,
        auto_responders(definition, loop_iterations=loop_iterations),
        mode=mode,
    )
    return initial, trace, tfc


def assert_hops_cold_verify(initial, trace, delta_world, backend, tfc=None):
    """Every routed document must survive a trust-nothing verification
    — reassembly from chunks can never weaken what the verifier sees."""
    tfc_identities = {tfc.identity} if tfc is not None else None
    for document in [initial] + [s.document for s in trace.steps]:
        verify_document(document, delta_world.directory, backend,
                        tfc_identities=tfc_identities)


def assert_same_shape(delta_trace, full_trace):
    """Same definition, same responders → same executed path.  Documents
    differ only in signing timestamps, so compare structure, not bytes."""
    assert delta_trace.routing == "delta"
    assert full_trace.routing == "full"
    assert [(s.activity_id, s.participant, s.iteration)
            for s in delta_trace.steps] == \
        [(s.activity_id, s.participant, s.iteration)
         for s in full_trace.steps]
    for ours, theirs in zip(delta_trace.steps, full_trace.steps):
        assert len(ours.document.cers()) == len(theirs.document.cers())


class TestRandomTopologies:
    @pytest.mark.parametrize("seed", RANDOM_SEEDS)
    def test_basic_model(self, delta_world, backend, seed):
        definition = random_definition(seed, blocks=3, designer=DESIGNER)
        initial, delta_trace, _ = _run(delta_world, backend, definition,
                                       "basic", delta_routing=True)
        _, full_trace, _ = _run(delta_world, backend, definition, "basic",
                                delta_routing=False)
        assert_same_shape(delta_trace, full_trace)
        assert_hops_cold_verify(initial, delta_trace, delta_world, backend)

    @pytest.mark.parametrize("seed", range(5))
    def test_advanced_model(self, delta_world, backend, seed):
        definition = random_definition(seed, blocks=2, designer=DESIGNER)
        initial, delta_trace, tfc = _run(delta_world, backend, definition,
                                         "advanced", delta_routing=True)
        _, full_trace, _ = _run(delta_world, backend, definition,
                                "advanced", delta_routing=False)
        assert_same_shape(delta_trace, full_trace)
        assert_hops_cold_verify(initial, delta_trace, delta_world, backend,
                                tfc=tfc)


class TestWireAccounting:
    def test_initial_delivery_is_full(self, delta_world, backend):
        definition = chain_definition(3, POOL, designer=DESIGNER)
        initial, trace, _ = _run(delta_world, backend, definition, "basic",
                                 delta_routing=True)
        # The first hop ships the whole initial document (the receiver
        # has no chunks yet); its wire cost reflects that.
        assert trace.steps[0].wire_bytes >= initial.size_bytes

    def test_revisits_ship_a_fraction(self, delta_world, backend):
        """A chain cycling 4 participants over 12 activities: from the
        second lap on, each receiver already holds most chunks."""
        definition = chain_definition(12, POOL, designer=DESIGNER)
        _, delta_trace, _ = _run(delta_world, backend, definition, "basic",
                                 delta_routing=True)
        _, full_trace, _ = _run(delta_world, backend, definition, "basic",
                                delta_routing=False)
        assert delta_trace.total_wire_bytes < \
            full_trace.total_wire_bytes * 0.6
        # A revisit catches up on the ~len(POOL) CERs appended since the
        # participant last held the document, independent of how big the
        # document has grown — so from the second revisit onward each
        # delivery is a shrinking fraction of the full document.
        for step in delta_trace.steps[2 * len(POOL):]:
            assert step.wire_bytes < step.document.size_bytes / 2

    def test_full_routing_charges_document_sizes(self, delta_world,
                                                 backend):
        definition = chain_definition(4, POOL, designer=DESIGNER)
        initial, trace, _ = _run(delta_world, backend, definition, "basic",
                                 delta_routing=False)
        sizes = [initial.size_bytes] + \
            [s.document.size_bytes for s in trace.steps[:-1]]
        assert [s.wire_bytes for s in trace.steps] == sizes

    def test_and_join_sums_branch_wire(self, delta_world, backend):
        definition = diamond_definition(3, POOL, designer=DESIGNER)
        _, trace, _ = _run(delta_world, backend, definition, "basic",
                           delta_routing=True)
        join_step = trace.steps[-1]
        branch_steps = trace.steps[1:-1]
        # The join consumed one delivery per branch; its wire cost is
        # the sum, so it exceeds any single branch delivery.
        assert join_step.wire_bytes > max(
            s.wire_bytes for s in branch_steps)
        assert trace.total_wire_bytes == \
            sum(s.wire_bytes for s in trace.steps)


class TestStructuredTopologies:
    @pytest.mark.parametrize("mode", ["basic", "advanced"])
    def test_loop(self, delta_world, backend, mode):
        definition = loop_definition(2, POOL, designer=DESIGNER)
        initial, trace, tfc = _run(delta_world, backend, definition, mode,
                                   delta_routing=True, loop_iterations=2)
        assert len({s.iteration for s in trace.steps}) > 1
        assert_hops_cold_verify(initial, trace, delta_world, backend,
                                tfc=tfc)

    @pytest.mark.parametrize("mode", ["basic", "advanced"])
    def test_diamond(self, delta_world, backend, mode):
        definition = diamond_definition(3, POOL, designer=DESIGNER)
        initial, trace, tfc = _run(delta_world, backend, definition, mode,
                                   delta_routing=True)
        assert_hops_cold_verify(initial, trace, delta_world, backend,
                                tfc=tfc)
