"""Cloud-system throughput — many instances through the Fig. 7 stack.

§3's scalability argument: because security lives in the documents,
"different enterprises or organizations can simultaneously use a single
DRA4WfMS cloud system".  This bench pushes a batch of independent
Fig. 9B instances through the full simulated cloud (portals → TFC →
pool → notifications) and reports instances/s (the median of three
measured rounds, each on a fresh cloud, after one warm-up round),
portal load spread, and the MapReduce statistics job across the
resulting pool.
"""

from __future__ import annotations

import statistics
import time

from conftest import TFC_IDENTITY, emit_table
from repro.cloud import CloudSystem, run_process_in_cloud
from repro.document import build_initial_document
from repro.workloads.figure9 import DESIGNER, figure9_responders

INSTANCES = 6
ROUNDS = 3


def test_multi_instance_throughput(benchmark, world, fig9b, backend):
    walls = []
    state = {}

    def run_batch():
        system = CloudSystem(world.directory,
                             world.keypair(TFC_IDENTITY),
                             portals=3, region_servers=2, datanodes=3,
                             backend=backend)
        start = time.perf_counter()
        for _ in range(INSTANCES):
            initial = build_initial_document(
                fig9b, world.keypair(DESIGNER), backend=backend
            )
            run_process_in_cloud(system, fig9b, initial,
                                 world.keypair(DESIGNER),
                                 world.keypairs, figure9_responders(0))
        walls.append(time.perf_counter() - start)
        state["system"] = system
        return system

    benchmark.pedantic(run_batch, rounds=ROUNDS, warmup_rounds=1)
    system = state["system"]
    # The warm-up round runs first.  (With benchmarking disabled,
    # pytest-benchmark runs the function once, unmeasured.)
    measured = walls[-ROUNDS:]
    wall = statistics.median(measured)

    submissions = {p.portal_id: p.stats["submissions"]
                   for p in system.portals}
    progress, job = system.instance_progress()

    emit_table(
        "cloud_throughput",
        f"Cloud system: {INSTANCES} Fig. 9B instances end to end",
        ["metric", "value"],
        [[f"instances per second (median of {len(measured)} rounds)",
          f"{INSTANCES / wall:.2f}"],
         ["activity executions per second",
          f"{INSTANCES * 5 / wall:.1f}"],
         ["simulated cloud time (s)", f"{system.clock.now():.3f}"],
         ["portal submissions", str(submissions)],
         ["TFC records", len(system.tfc.records)],
         ["pool MapReduce rows", job.input_rows]],
    )

    # Every instance completed all five executions.
    assert len(progress) == INSTANCES
    assert all(count == 5 for count in progress.values())
    # All three portals carried traffic.
    assert sum(1 for count in submissions.values() if count > 0) == 3
    # The TFC recorded every finalisation across all tenants.
    assert len(system.tfc.records) == INSTANCES * 5
