"""Delta routing through the cloud: O(new CER) transfers, same history.

Delta routing changes only what crosses the wire between clients and
portals — a manifest plus the chunks the other side has never seen —
never what anyone verifies.  These tests drive randomly shaped
workflows (the same generator the signature-cache fuzzer uses) through
a delta-routed :class:`~repro.cloud.CloudSystem` and a full-document one
(both run the advanced model: every hop passes the TFC) and check:

* every version the pool stored passes a cold, trust-nothing
  verification;
* both clouds executed the same history (the same CERs); and
* the wire accounting shows the win: revisiting participants receive
  a fraction of the document instead of all of it.
"""

from __future__ import annotations

import pytest

from repro.cloud import CloudSystem, run_process_in_cloud
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


def _cloud(delta_world, backend, *, delta_routing) -> CloudSystem:
    return CloudSystem(delta_world.directory,
                       delta_world.keypair(TFC_IDENTITY), backend=backend,
                       delta_routing=delta_routing)


def _run(delta_world, backend, definition, *, delta_routing,
         loop_iterations=1):
    """One instance of *definition* through a fresh cloud; returns the
    cloud and the final pooled document."""
    system = _cloud(delta_world, backend, delta_routing=delta_routing)
    initial = build_initial_document(
        definition, delta_world.keypair(DESIGNER), backend=backend
    )
    final = run_process_in_cloud(
        system, definition, initial, delta_world.keypair(DESIGNER),
        delta_world.keypairs,
        auto_responders(definition, loop_iterations=loop_iterations),
    )
    return system, final


def _history(document) -> list[tuple[str, str, int, str]]:
    """The executed history: every results CER, order aside.  Documents
    differ in signing timestamps, so compare structure, not bytes."""
    return sorted((cer.kind, cer.activity_id, cer.iteration, cer.participant)
                  for cer in document.cers(include_definition=False))


def assert_versions_cold_verify(system, process_id, delta_world, backend):
    """Every stored version must survive a trust-nothing verification —
    reassembly from chunks can never weaken what the verifier sees."""
    versions = system.pool.history(process_id)
    assert len(versions) > 1
    for document in versions:
        verify_document(document.to_bytes(), delta_world.directory, backend,
                        tfc_identities={TFC_IDENTITY})


def assert_delta_matches_full(delta_world, backend, definition,
                              loop_iterations=1):
    """Run *definition* through both clouds; returns the delta cloud's
    ``(system, final document)``."""
    runs = {
        routing: _run(delta_world, backend, definition,
                      delta_routing=routing == "delta",
                      loop_iterations=loop_iterations)
        for routing in ("delta", "full")
    }
    (delta, delta_final), (full, full_final) = runs["delta"], runs["full"]
    assert _history(delta_final) == _history(full_final)
    assert_versions_cold_verify(delta, delta_final.process_id, delta_world,
                                backend)
    # The whole point: the delta cloud sent its clients fewer bytes.
    sent = {routing: sum(p.stats["bytes_out"] for p in system.portals)
            for routing, (system, _) in runs.items()}
    assert sent["delta"] < sent["full"]
    return delta, delta_final


def _chain_hops(delta_world, backend, length, *, delta_routing):
    """``(bytes received, pooled document size)`` of every hop of a
    ``length``-activity chain cycling through :data:`POOL`."""
    definition = chain_definition(length, POOL, designer=DESIGNER)
    system = _cloud(delta_world, backend, delta_routing=delta_routing)
    initial = build_initial_document(
        definition, delta_world.keypair(DESIGNER), backend=backend
    )
    pid = system.client(delta_world.keypair(DESIGNER)).upload_initial(
        initial)
    clients = {identity: system.client(delta_world.keypair(identity))
               for identity in POOL}
    responders = auto_responders(definition)
    hops = []
    for index in range(length):
        activity = definition.activity(f"A{index}")
        client = clients[activity.participant]
        size = len(system.pool.latest_bytes(pid))
        before = client.bytes_received
        client.execute(pid, activity.activity_id,
                       responders[activity.activity_id])
        hops.append((client.bytes_received - before, size))
    return hops


class TestRandomTopologies:
    @pytest.mark.parametrize("seed", RANDOM_SEEDS)
    def test_advanced_model(self, delta_world, backend, seed):
        definition = random_definition(seed, blocks=3, designer=DESIGNER)
        assert_delta_matches_full(delta_world, backend, definition)


class TestWireAccounting:
    def test_initial_delivery_is_full(self, delta_world, backend):
        # The first hop's participant holds no chunks yet: the retrieve
        # carries the manifest and every chunk of the initial document.
        (wire, size), *_ = _chain_hops(delta_world, backend, 3,
                                       delta_routing=True)
        assert wire >= size

    def test_revisits_ship_a_fraction(self, delta_world, backend):
        """A chain cycling 4 participants over 12 activities: from the
        second lap on, each receiver already holds most chunks."""
        delta = _chain_hops(delta_world, backend, 12, delta_routing=True)
        full = _chain_hops(delta_world, backend, 12, delta_routing=False)
        assert sum(wire for wire, _ in delta) < \
            sum(wire for wire, _ in full) * 0.6
        # A revisit catches up on the ~len(POOL) hops appended since the
        # participant last held the document, independent of how big the
        # document has grown — so from the second revisit onward each
        # retrieve is a shrinking fraction of the full document.
        for wire, size in delta[2 * len(POOL):]:
            assert wire < size / 2

    def test_full_routing_charges_document_sizes(self, delta_world,
                                                 backend):
        hops = _chain_hops(delta_world, backend, 4, delta_routing=False)
        assert [wire for wire, _ in hops] == [size for _, size in hops]


class TestStructuredTopologies:
    def test_loop(self, delta_world, backend):
        definition = loop_definition(2, POOL, designer=DESIGNER)
        _, final = assert_delta_matches_full(delta_world, backend,
                                             definition, loop_iterations=2)
        assert len({cer.iteration for cer in final.cers()}) > 1

    def test_diamond(self, delta_world, backend):
        definition = diamond_definition(3, POOL, designer=DESIGNER)
        assert_delta_matches_full(delta_world, backend, definition)
