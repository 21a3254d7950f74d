"""True-parallel fleet throughput: worker-pool scaling, measured honestly.

Runs the same instance population through ``run_real_fleet`` at 1, 2
and 4 worker processes and records wall-clock throughput per worker
count in ``BENCH_fleet_real.json``.  Three things keep the numbers
honest:

* ``cpu_count`` is recorded next to every figure.  Process-pool
  speedup is bounded by physical cores: on a single-core container
  4 workers *cannot* beat 1 — the numbers are still emitted, but the
  ≥2× speedup expectation is only asserted when the host actually has
  ≥4 CPUs.
* on a host with ≥2 CPUs, 2 workers must beat 1 in the median of
  three 1-worker/2-worker pairs, alternating which runs first, so that
  warm-up and the drift of a shared host fall on both sides.
* the deterministic aggregates of every worker count are asserted
  identical before any timing is trusted — a pool that changed results
  would make its throughput meaningless.

Scale knobs (env): ``FLEET_REAL_SPEC`` (default ``chain:10:3``),
``FLEET_REAL_INSTANCES`` (default 12).  The paper-scale configuration
is ``FLEET_REAL_SPEC=chain:50:5 FLEET_REAL_INSTANCES=1000`` on a
multi-core host; the default is sized to finish in seconds anywhere.
"""

from __future__ import annotations

import os
import statistics

import pytest

from conftest import emit_bench, emit_table
from repro.fleet import RealFleetConfig, run_real_fleet, workload_from_spec
from repro.fleet.fleet import TFC_IDENTITY
from repro.workloads.participants import build_world

SPEC = os.environ.get("FLEET_REAL_SPEC", "chain:10:3")
INSTANCES = int(os.environ.get("FLEET_REAL_INSTANCES", "12"))
SEED = 7
WORKER_COUNTS = (1, 2, 4)
#: Expected speedup of 4 workers over 1 — only asserted on hosts with
#: at least 4 CPUs (pool scaling cannot exceed physical parallelism).
EXPECTED_SPEEDUP_AT_4 = 2.0
#: 1-worker/2-worker pairs whose median speedup must exceed 1.0 on
#: hosts with at least 2 CPUs.
PAIRS = 3


def test_worker_pool_scaling():
    workload = workload_from_spec(SPEC)
    world = build_world([*workload.identities, TFC_IDENTITY], bits=1024)

    reports = {}
    for workers in WORKER_COUNTS:
        reports[workers] = run_real_fleet(
            RealFleetConfig(spec=SPEC, instances=INSTANCES, seed=SEED,
                            workers=workers, audit_every=4),
            world=world,
        )

    # Correctness before timing: every worker count must agree on all
    # deterministic aggregates, or the throughput numbers mean nothing.
    baseline = reports[1]
    for workers, report in reports.items():
        assert report.deterministic_dict() == baseline.deterministic_dict()
        assert report.audit_failures == 0
        assert report.instances == INSTANCES

    cpu_count = baseline.cpu_count
    base_throughput = baseline.throughput_per_wall_second
    rows = []
    results = {}
    for workers, report in sorted(reports.items()):
        speedup = (report.throughput_per_wall_second / base_throughput
                   if base_throughput else 0.0)
        rows.append([
            workers, f"{report.wall_seconds:.3f}",
            f"{report.throughput_per_wall_second:.3f}",
            f"{speedup:.2f}x", report.hops_executed,
        ])
        results[str(workers)] = {
            "wall_seconds": round(report.wall_seconds, 6),
            "throughput_per_wall_second": round(
                report.throughput_per_wall_second, 6),
            "speedup_vs_1_worker": round(speedup, 4),
            "host_seconds_total": round(report.host_seconds_total, 6),
        }
    emit_table(
        "fleet_real",
        f"True-parallel fleet — {SPEC}, {INSTANCES} instances, "
        f"{cpu_count} host CPUs",
        ["workers", "wall s", "inst/s", "speedup", "hops"],
        rows,
    )
    emit_bench("fleet_real", {
        "workload": SPEC,
        "instances": INSTANCES,
        "seed": SEED,
        "cpu_count": cpu_count,
        "deterministic": baseline.deterministic_dict(),
        "by_workers": results,
        "expected_speedup_at_4_workers": EXPECTED_SPEEDUP_AT_4,
        "speedup_asserted": cpu_count >= 4,
    })

    if cpu_count >= 4:
        speedup_at_4 = results["4"]["speedup_vs_1_worker"]
        assert speedup_at_4 >= EXPECTED_SPEEDUP_AT_4, (
            f"4 workers on {cpu_count} CPUs reached only "
            f"{speedup_at_4:.2f}x over 1 worker "
            f"(expected ≥{EXPECTED_SPEEDUP_AT_4}x)"
        )


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="2 workers cannot beat 1 on a single CPU")
def test_two_workers_beat_one():
    workload = workload_from_spec(SPEC)
    world = build_world([*workload.identities, TFC_IDENTITY], bits=1024)

    rows, speedups = [], []
    for pair in range(PAIRS):
        walls = {}
        for workers in ((1, 2) if pair % 2 == 0 else (2, 1)):
            report = run_real_fleet(
                RealFleetConfig(spec=SPEC, instances=INSTANCES, seed=SEED,
                                workers=workers, audit_every=4),
                world=world,
            )
            assert report.audit_failures == 0
            walls[workers] = report.wall_seconds
        speedups.append(walls[1] / walls[2])
        rows.append([pair + 1, f"{walls[1]:.3f}", f"{walls[2]:.3f}",
                     f"{speedups[-1]:.2f}x"])
    median = statistics.median(speedups)
    emit_table(
        "fleet_real_pairs",
        f"True-parallel fleet, 1 vs 2 workers in alternating pairs — "
        f"{SPEC}, {INSTANCES} instances, {os.cpu_count()} host CPUs; "
        f"median speedup {median:.2f}x",
        ["pair", "1 worker s", "2 workers s", "speedup"],
        rows,
    )
    assert median > 1.0, (
        f"2 workers on {os.cpu_count()} CPUs reached a median of only "
        f"{median:.2f}x over 1 worker in {PAIRS} alternating pairs "
        f"({', '.join(f'{s:.2f}x' for s in speedups)})"
    )
