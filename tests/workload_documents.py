"""Final documents of the benchmark's two workloads, for tests.

``fig9`` is the Fig. 9B advanced-model run with one trip around its
loop; ``chain:16:4`` is a 16-step chain over 4 returning participants.
Both run in memory with a TFC, the way a deployed cloud runs them, and
each is built once per test session.
"""

from __future__ import annotations

import functools
import itertools

from repro.core import InMemoryRuntime, TfcServer
from repro.crypto.fast import FastBackend
from repro.document import build_initial_document
from repro.fleet.workload import workload_from_spec
from repro.workloads import World, build_world

__all__ = ["WORKLOAD_SPECS", "final_document"]

TFC_IDENTITY = "tfc@cloud.example"
#: Workload spec → extra trips around its loop.
WORKLOAD_SPECS = {"fig9": 1, "chain:16:4": 0}


@functools.lru_cache(maxsize=None)
def final_document(spec: str) -> tuple[World, bytes]:
    """The PKI world and canonical bytes of *spec*'s final document."""
    backend = FastBackend()
    workload = workload_from_spec(spec, loops=WORKLOAD_SPECS[spec])
    world = build_world([*workload.identities, TFC_IDENTITY], bits=1024,
                        backend=backend)
    initial = build_initial_document(
        workload.definition, world.keypair(workload.designer),
        backend=backend,
    )
    clock = itertools.count(1)
    tfc = TfcServer(world.keypair(TFC_IDENTITY), world.directory,
                    backend=backend, clock=lambda: float(next(clock)))
    runtime = InMemoryRuntime(world.directory, world.keypairs, tfc=tfc,
                              backend=backend)
    trace = runtime.run(initial, workload.definition, workload.responders,
                        mode="advanced")
    return world, trace.final_document.to_bytes()
