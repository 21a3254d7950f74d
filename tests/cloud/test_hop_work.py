"""A hop's work stays flat as the history grows.

A receiver that resumes verifies only the CERs appended since its last
receipt, and routing, the join check, the TFC's lookups and
``append_cer`` read the history that pass built.  The agent decrypts
only its activity's requested fields, the TFC extends the view it kept
of the instance by the appended CERs (its own fields from its
decryption memo), and the pool decodes each stored manifest once.  So
on a hop where both receivers (the executing participant's agent and
the TFC) resume, the signature references parsed, the elements indexed
by id, the CER wrappers built, the decrypts (RSA unwraps), the memo
keys computed and the manifests decoded do not depend on how long the
cascade already is: they are counted per hop on ``chain:8:4`` and
``chain:32:4`` through a delta-routing cloud with a verification cache,
and must be equal.
"""

from __future__ import annotations

import sys
from collections import Counter

import pytest

from repro.cloud import CloudSystem
from repro.cloud.system import CloudClient, drive_instance
from repro.crypto.fast import FastBackend
from repro.document import build_initial_document
from repro.document import verify as verify_module
from repro.document.cer import CER
from repro.document.delta import Manifest
from repro.document.vcache import VerificationCache
from repro.fleet.workload import workload_from_spec
from repro.workloads import build_world
from repro.xmlsec import xmldsig
from repro.xmlsec.xmldsig import XmlSignature
from repro.xmlsec.xmlenc import EncryptedValue

TFC = "tfc@cloud.example"
INSTANCES = 2
COUNTS = ("references", "indexed", "cers", "decrypt", "memo_key",
          "manifests")


def _rebind(monkeypatch, original, wrapper) -> None:
    """Point every ``repro`` module's name for *original* at *wrapper*."""
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapper)


@pytest.fixture()
def counted(monkeypatch):
    """Running totals of the counts, and the resumptions."""
    counts: Counter = Counter()
    resumed: list[bool] = []

    references = XmlSignature.references.fget

    def parse(self):
        counts["references"] += 1
        return references(self)

    monkeypatch.setattr(XmlSignature, "references", property(parse))

    index_by_id = xmldsig.index_by_id

    def index(root):
        counts["indexed"] += sum(1 for _ in root.iter())
        return index_by_id(root)

    _rebind(monkeypatch, index_by_id, index)

    init = CER.__init__

    def wrap(self, element):
        counts["cers"] += 1
        init(self, element)

    monkeypatch.setattr(CER, "__init__", wrap)

    for name in ("decrypt", "memo_key"):
        method = getattr(EncryptedValue, name)

        def call(self, *args, _method=method, _name=name):
            counts[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(EncryptedValue, name, call)

    from_bytes = Manifest.from_bytes.__func__

    def decode(cls, data):
        counts["manifests"] += 1
        return from_bytes(cls, data)

    monkeypatch.setattr(Manifest, "from_bytes", classmethod(decode))

    spy_of = verify_module._resumed

    def spy(*args):
        state = spy_of(*args)
        resumed.append(state is not None)
        return state

    monkeypatch.setattr(verify_module, "_resumed", spy)
    return counts, resumed


def hop_counts(spec: str, counted, monkeypatch) -> list[tuple]:
    """Per hop of *spec*'s instances: whether the agent and the TFC both
    resumed, and the counts."""
    counts, resumed = counted
    backend = FastBackend()
    workload = workload_from_spec(spec)
    world = build_world([*workload.identities, TFC], bits=1024,
                        backend=backend)
    system = CloudSystem(world.directory, world.keypair(TFC),
                         backend=backend, verify_cache=VerificationCache(),
                         delta_routing=True)
    clients = {identity: system.client(world.keypair(identity))
               for identity in workload.identities}
    hops: list[tuple] = []
    execute = CloudClient.execute

    def counted_hop(client, *args):
        before, receipts = Counter(counts), len(resumed)
        entries = execute(client, *args)
        spent = counts - before
        hops.append((resumed[receipts:] == [True, True],
                     tuple(spent[name] for name in COUNTS)))
        return entries

    monkeypatch.setattr(CloudClient, "execute", counted_hop)
    participants = [client for identity, client in clients.items()
                    if identity != workload.designer]
    for index in range(INSTANCES):
        initial = build_initial_document(
            workload.definition, world.keypair(workload.designer),
            process_id=f"{index:032x}", backend=backend, created_at=0.0)
        pid = clients[workload.designer].upload_initial(initial)
        drive_instance(participants, pid, workload.responders)
    monkeypatch.setattr(CloudClient, "execute", execute)
    return hops


def test_resumed_hops_cost_the_same_on_short_and_long_chains(
        counted, monkeypatch):
    short = hop_counts("chain:8:4", counted, monkeypatch)
    long = hop_counts("chain:32:4", counted, monkeypatch)
    assert len(short) == 8 * INSTANCES and len(long) == 32 * INSTANCES
    # A participant returns every fourth hop; the TFC resumes after the
    # instance's first hop.
    flat = {counts for resumed, counts in short + long if resumed}
    assert sum(resumed for resumed, _ in short) == 4 * INSTANCES
    assert sum(resumed for resumed, _ in long) == 28 * INSTANCES
    assert len(flat) == 1, flat
    counts, = flat
    assert dict(zip(COUNTS, counts))["indexed"] == 0
