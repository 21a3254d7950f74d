"""The views a cloud hop decrypts ≡ a cold ``VariableView.for_reader``.

In the advanced model the AEA decrypts only its activity's requested
fields, reading the history from the newest CER back, and the TFC
extends the view it kept of an instance's last receipt by the CERs
appended since (reading a field it encrypted itself from its decryption
memo).  Through a delta cloud, over the fuzz suite's random topologies,
a loop, an AND-join, a reader grant amended in mid-run and instances
interleaved past :attr:`KeptPasses.LIMIT`, every hop checks both against
a cold view of a fresh parse of the same bytes: the AEA's
``ActivityContext.requests`` must equal the cold view restricted to the
requested names, and the TFC's view the whole cold view.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.cloud import CloudSystem
from repro.cloud.system import drive_instance
from repro.core.aea import ActivityExecutionAgent
from repro.core.state import VariableView
from repro.core.tfc import TfcServer
from repro.document import build_initial_document
from repro.document.amendments import GrantReader
from repro.document.document import Dra4wfmsDocument
from repro.document.resume import KeptPasses
from repro.errors import JoinNotReady
from repro.workloads.generator import (
    auto_responders,
    chain_definition,
    diamond_definition,
    loop_definition,
    random_definition,
)
from repro.xmlsec.xmlenc import EncryptedValue

from .test_fuzz_workflows import (
    DESIGNER,
    POOL,
    RANDOM_SEEDS,
    TFC_IDENTITY,
    fuzz_world,  # noqa: F401 - fixture
)


def cold_view(document: Dra4wfmsDocument, world, identity: str) -> dict:
    """for_reader over a fresh parse: no pass history, no memo."""
    fresh = Dra4wfmsDocument.from_bytes(document.to_bytes())
    return VariableView.for_reader(fresh, identity,
                                   world.keypair(identity).private_key,
                                   world.backend).raw


class Checked:
    """Spies on one cloud's receivers and checks each hop's views."""

    def __init__(self, world, monkeypatch) -> None:
        self.world = world
        self.requests_checked = 0
        #: One entry per TFC receipt: whether its view was extended.
        self.tfc_views: list[bool] = []
        #: Decrypts (RSA unwraps) per identity, the cold views' excluded.
        self.unwraps: Counter = Counter()
        self._in_reference = False
        received: list[Dra4wfmsDocument] = []
        self._received = received

        decrypt = EncryptedValue.decrypt

        def spy_decrypt(value, identity, *args, **kwargs):
            if not self._in_reference:
                self.unwraps[identity] += 1
            return decrypt(value, identity, *args, **kwargs)

        monkeypatch.setattr(EncryptedValue, "decrypt", spy_decrypt)

        receive = ActivityExecutionAgent._receive

        def spy_receive(agent, *args):
            document, report = receive(agent, *args)
            received.append(document)
            return document, report

        monkeypatch.setattr(ActivityExecutionAgent, "_receive", spy_receive)

        extended_over: list[int] = []
        extended = VariableView.extended

        def spy_extended(view, cers, *args, **kwargs):
            extended_over.append(len(cers))
            return extended(view, cers, *args, **kwargs)

        monkeypatch.setattr(VariableView, "extended", spy_extended)

        tfc_view = TfcServer._view

        def spy_view(tfc, document):
            view = tfc_view(tfc, document)
            self.tfc_views.append(
                extended_over[-1] < len(document.history().cers))
            assert view.raw == self.cold(document, tfc.identity)
            return view

        monkeypatch.setattr(TfcServer, "_view", spy_view)

    def cold(self, document: Dra4wfmsDocument, identity: str) -> dict:
        self._in_reference = True
        try:
            return cold_view(document, self.world, identity)
        finally:
            self._in_reference = False

    def responders(self, responders: dict) -> dict:
        """*responders*, each checking the context it is shown."""
        def checking(respond):
            def check(context):
                names = context.definition.activity(
                    context.activity_id).requests
                cold = self.cold(self._received[-1], context.participant)
                assert context.requests == {
                    name: cold[name] for name in names}
                self.requests_checked += 1
                return respond(context)
            return check
        return {activity: checking(respond)
                for activity, respond in responders.items()}


def delta_cloud(world):
    system = CloudSystem(world.directory, world.keypair(TFC_IDENTITY),
                         backend=world.backend, delta_routing=True)
    clients = {identity: system.client(world.keypair(identity))
               for identity in [DESIGNER, *POOL]}
    return system, clients


def upload(world, clients, definition) -> str:
    initial = build_initial_document(definition, world.keypair(DESIGNER),
                                     backend=world.backend)
    return clients[DESIGNER].upload_initial(initial)


def run(world, monkeypatch, definition, instances=2, loop_iterations=1):
    """Drive *instances* of *definition* one after another."""
    checked = Checked(world, monkeypatch)
    _, clients = delta_cloud(world)
    responders = checked.responders(
        auto_responders(definition, loop_iterations=loop_iterations))
    participants = [clients[identity] for identity in POOL]
    for _ in range(instances):
        pid = upload(world, clients, definition)
        drive_instance(participants, pid, responders)
    return checked


def one_hop(clients, process_id, responders) -> bool:
    """Execute one ready activity of *process_id*; False when none is
    pending."""
    pending = False
    for client in clients:
        for entry in client.todo():
            if entry.process_id != process_id:
                continue
            pending = True
            try:
                client.execute(process_id, entry.activity_id,
                               responders[entry.activity_id])
            except JoinNotReady:
                continue
            return True
    assert not pending, f"{process_id} deadlocked"
    return False


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_random_topology(fuzz_world, monkeypatch, seed):
    checked = run(fuzz_world, monkeypatch,
                  random_definition(seed, blocks=2, designer=DESIGNER))
    assert checked.requests_checked > 0
    assert len(checked.tfc_views) == checked.requests_checked


def test_loop(fuzz_world, monkeypatch):
    checked = run(fuzz_world, monkeypatch,
                  loop_definition(2, POOL, designer=DESIGNER),
                  loop_iterations=2)
    # Each instance runs the two-step body three times; the TFC resumes
    # after an instance's first receipt.
    assert checked.tfc_views == [False, True, True, True, True, True] * 2


def test_and_join(fuzz_world, monkeypatch):
    checked = run(fuzz_world, monkeypatch,
                  diamond_definition(3, POOL, designer=DESIGNER))
    assert any(checked.tfc_views) and not all(checked.tfc_views)


def test_reader_grant_amended_mid_run(fuzz_world, monkeypatch):
    """A designer's grant lands between two hops; both views read on
    past the amendment CER."""
    world = fuzz_world
    definition = chain_definition(5, POOL, designer=DESIGNER)
    checked = Checked(world, monkeypatch)
    system, clients = delta_cloud(world)
    responders = checked.responders(auto_responders(definition))
    pid = upload(world, clients, definition)
    participants = [clients[identity] for identity in POOL]
    for _ in range(2):
        assert one_hop(participants, pid, responders)
    data = clients[DESIGNER].retrieve_bytes(pid)
    amended = clients[DESIGNER].agent.amend(data, GrantReader(
        activity_id="A2", fieldname="v2", reader=POOL[4],
        reason="audit grant before A2 runs"))
    executor = clients[definition.activity("A2").participant]
    result = executor.agent.execute_activity(
        amended.to_bytes(), "A2", responders["A2"], mode="advanced",
        tfc_identity=system.tfc.identity,
        tfc_public_key=system.tfc.public_key)
    executor.submit_document(result.document)
    drive_instance(participants, pid, responders)
    assert checked.requests_checked == 5
    assert checked.tfc_views == [False, True, True, True, True]
    final = system.pool.latest(pid)
    # The grant reached the TFC's policy: A4's participant reads v2.
    assert "v2" in cold_view(final, world, POOL[4])


def test_interleaved_past_the_kept_limit(fuzz_world, monkeypatch):
    """One hop of each live instance in turn: every kept pass and kept
    view is evicted before its instance comes back, so every view is
    read cold and the decryption memo still spares the TFC's own
    fields."""
    world = fuzz_world
    definition = chain_definition(6, POOL, designer=DESIGNER)
    checked = Checked(world, monkeypatch)
    _, clients = delta_cloud(world)
    responders = checked.responders(auto_responders(definition))
    participants = [clients[identity] for identity in POOL]
    live = [upload(world, clients, definition)
            for _ in range(KeptPasses.LIMIT + 1)]
    while live:
        live = [pid for pid in live
                if one_hop(participants, pid, responders)]
    hops = 6 * (KeptPasses.LIMIT + 1)
    assert checked.requests_checked == hops
    # Only the last hop resumes: the other instances finished just
    # before it, and the TFC dropped what it kept of them.
    assert checked.tfc_views == [False] * (hops - 1) + [True]
    # Every value field is one the TFC encrypted: it unwraps only each
    # hop's result bundle.
    assert checked.unwraps[TFC_IDENTITY] == hops
