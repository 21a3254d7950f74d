"""Bounded hot storage — the lifecycle sweep keeps the pool O(live
instances).

The paper's pool accretes every document version forever; §4's scaling
story quietly assumes hot storage does not.  This bench runs a
2000-instance closed-loop churn twice over the same seeded fleet:

* **baseline** (``gc_interval=0``) — the historic behaviour: unique
  chunk bytes grow linearly with every completed instance;
* **lifecycle** (``gc_interval=25``) — completed instances are
  archived, compacted and retired, which deletes their chunks, so hot
  bytes plateau at the live working set no matter how many instances
  churn through.

Asserted: the lifecycle peak stays within ``PLATEAU_FACTOR`` of the
live working set (concurrency + one sweep interval of completed-but-
unswept instances, at the baseline's measured per-instance footprint);
the baseline demonstrates the linear growth the sweep removes; and
steady-state throughput with the sweep on is no worse than baseline —
lifecycle maintenance is billed to the pool station, so this is a real
claim, not an accounting trick.
"""

from __future__ import annotations

import os
import time

from conftest import emit_bench, emit_table
from repro.fleet import ClosedLoop, FleetConfig, build_fleet, \
    workload_from_spec

SPEC = os.environ.get("STORAGE_LIFECYCLE_SPEC", "chain:3")
INSTANCES = int(os.environ.get("STORAGE_LIFECYCLE_INSTANCES", "2000"))
CONCURRENCY = 8
GC_INTERVAL = 25
SEED = 7
#: Hot-store peak must stay within this factor of the live working set.
PLATEAU_FACTOR = 1.5
#: The baseline must show ≥ this much growth over the lifecycle peak —
#: otherwise the plateau claim is vacuous at this scale.
MIN_BASELINE_GROWTH = 5.0
#: Deterministic same-seed runs; the margin only absorbs future cost-
#: model tweaks, not noise.
MIN_THROUGHPUT_RATIO = 0.98


def run_churn(backend, gc_interval: int):
    config = FleetConfig(
        arrivals=ClosedLoop(instances=INSTANCES, concurrency=CONCURRENCY),
        seed=SEED,
        audit_every=0,
        gc_interval=gc_interval,
    )
    fleet = build_fleet(workload_from_spec(SPEC), config, backend=backend,
                        delta_routing=True)
    start = time.perf_counter()
    report = fleet.run()
    wall = time.perf_counter() - start
    assert report.instances_completed == INSTANCES
    return report, wall


def test_storage_lifecycle_churn(benchmark, backend):
    results = {}

    def churn():
        results["baseline"] = run_churn(backend, gc_interval=0)
        results["lifecycle"] = run_churn(backend, gc_interval=GC_INTERVAL)
        return results

    benchmark.pedantic(churn, rounds=1, warmup_rounds=0)

    base, base_wall = results["baseline"]
    life, life_wall = results["lifecycle"]
    lifecycle = life.lifecycle

    # Per-instance hot footprint, measured from the run that never
    # deletes anything: what one completed instance leaves behind.
    per_instance = base.chunk_store["unique_bytes"] / INSTANCES
    # Live working set: in-flight instances plus up to one sweep
    # interval of completed-but-not-yet-retired ones.
    working_set = (CONCURRENCY + GC_INTERVAL) * per_instance
    peak = lifecycle["peak_hot_bytes"]

    rows = [
        ["baseline (no sweep)", INSTANCES,
         base.chunk_store["unique_bytes"], "-",
         f"{base.throughput_per_second:.2f}", f"{base_wall:.1f}"],
        [f"gc_interval={GC_INTERVAL}", INSTANCES,
         lifecycle["hot_unique_bytes"], peak,
         f"{life.throughput_per_second:.2f}", f"{life_wall:.1f}"],
    ]
    emit_table(
        "storage_lifecycle",
        f"Hot storage under churn: {INSTANCES} x {SPEC} closed-loop "
        f"(concurrency {CONCURRENCY})",
        ["run", "instances", "final hot B", "peak hot B", "inst/sim-s",
         "host wall (s)"],
        rows,
    )
    emit_bench("storage_lifecycle", {
        "workload": SPEC,
        "instances": INSTANCES,
        "concurrency": CONCURRENCY,
        "gc_interval": GC_INTERVAL,
        "seed": SEED,
        "plateau_factor": PLATEAU_FACTOR,
        "min_throughput_ratio": MIN_THROUGHPUT_RATIO,
        "baseline": {
            "unique_bytes": base.chunk_store["unique_bytes"],
            "unique_chunks": base.chunk_store["unique_chunks"],
            "throughput_per_second": base.throughput_per_second,
            "host_wall_seconds": round(base_wall, 2),
        },
        "lifecycle_run": {
            "peak_hot_bytes": peak,
            "final_hot_bytes": lifecycle["hot_unique_bytes"],
            "throughput_per_second": life.throughput_per_second,
            "host_wall_seconds": round(life_wall, 2),
            "instances_retired": lifecycle["instances_retired"],
            "manifests_compacted": lifecycle["manifests_compacted"],
            "chunks_deleted": lifecycle["chunks_deleted"],
            "bytes_reclaimed": lifecycle["bytes_reclaimed"],
            "sweeps": lifecycle["sweeps"],
        },
        "per_instance_bytes": round(per_instance, 1),
        "live_working_set_bytes": round(working_set, 1),
        "peak_over_working_set": round(peak / working_set, 3),
        "baseline_over_peak": round(
            base.chunk_store["unique_bytes"] / peak, 2),
    })

    # Every completed instance left hot storage, and the sweep drained
    # the store completely once the last one retired.
    assert lifecycle["instances_retired"] == INSTANCES
    assert lifecycle["hot_unique_bytes"] == 0

    # The tentpole claim: hot bytes plateau at the live working set
    # while the baseline grows linearly with total churn.
    assert peak <= PLATEAU_FACTOR * working_set, (
        f"hot-store peak {peak} exceeds {PLATEAU_FACTOR}x the live "
        f"working set ({working_set:.0f} B)"
    )
    assert base.chunk_store["unique_bytes"] >= MIN_BASELINE_GROWTH * peak

    # And the plateau is not bought with throughput: lifecycle
    # maintenance competes for the pool station, billed honestly.
    ratio = life.throughput_per_second / base.throughput_per_second
    assert ratio >= MIN_THROUGHPUT_RATIO, (
        f"lifecycle throughput {life.throughput_per_second:.2f}/s fell "
        f"below baseline {base.throughput_per_second:.2f}/s"
    )
