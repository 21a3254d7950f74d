"""True-parallel fleet throughput: worker-pool scaling, measured honestly.

Runs the same instance population through ``run_real_fleet`` at 1, 2
and 4 worker processes, in three rounds that rotate which worker count
runs first, and records in ``BENCH_fleet_real.json`` the median wall
time and the median speedup over 1 worker (of the per-round ratios) per
worker count, each with its min and max.  Four things keep the numbers
honest:

* ``cpu_count`` is recorded next to every figure.  Process-pool
  speedup is bounded by physical cores: on a single-core container
  4 workers *cannot* beat 1 — the numbers are still emitted, but the
  ≥2× median speedup expectation is only asserted when the host
  actually has ≥4 CPUs.
* a sub-second wall is one noisy sample on a shared host, so no figure
  rests on a single run, and the rotation puts warm-up and drift on
  every worker count.
* on a host with ≥2 CPUs, 2 workers must beat 1 in the median of
  three 1-worker/2-worker pairs, alternating which runs first (the same
  rotation over two counts).
* the deterministic aggregates of every run are asserted identical
  before any timing is trusted — a pool that changed results would
  make its throughput meaningless.

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
#: Expected median speedup of 4 workers over 1 — only asserted on hosts
#: with at least 4 CPUs (pool scaling cannot exceed physical parallelism).
EXPECTED_SPEEDUP_AT_4 = 2.0
#: Runs of every worker count; 1-worker/2-worker pairs must reach a
#: median speedup above 1.0 on hosts with at least 2 CPUs.
ROUNDS = 3


def _rounds(world, worker_counts) -> dict[int, list]:
    """Reports of every worker count over :data:`ROUNDS` rounds, the
    order rotated each round (for two counts: alternating pairs)."""
    reports: dict[int, list] = {workers: [] for workers in worker_counts}
    for index in range(ROUNDS):
        shift = index % len(worker_counts)
        for workers in worker_counts[shift:] + worker_counts[:shift]:
            report = run_real_fleet(
                RealFleetConfig(spec=SPEC, instances=INSTANCES, seed=SEED,
                                workers=workers, audit_every=4),
                world=world,
            )
            assert report.audit_failures == 0
            reports[workers].append(report)
    return reports


def _speedups(reports, workers) -> list[float]:
    """Per-round speedup of *workers* over 1 worker (wall-time ratio)."""
    return [one.wall_seconds / many.wall_seconds
            for one, many in zip(reports[1], reports[workers])]


def _spread(values) -> dict[str, float]:
    """Median, min and max of *values*, as recorded."""
    return {"median": round(statistics.median(values), 6),
            "min": round(min(values), 6), "max": round(max(values), 6)}


def test_worker_pool_scaling():
    workload = workload_from_spec(SPEC)
    world = build_world([*workload.identities, TFC_IDENTITY], bits=1024)
    reports = _rounds(world, WORKER_COUNTS)

    # Correctness before timing: every run must agree on all
    # deterministic aggregates, or the throughput numbers mean nothing.
    baseline = reports[1][0]
    for runs in reports.values():
        for report in runs:
            assert report.deterministic_dict() == \
                baseline.deterministic_dict()
            assert report.instances == INSTANCES

    cpu_count = baseline.cpu_count
    rows = []
    results = {}
    for workers, runs in sorted(reports.items()):
        walls = _spread([report.wall_seconds for report in runs])
        speedups = _spread(_speedups(reports, workers))
        rows.append([
            workers, f"{walls['median']:.3f}",
            f"{walls['min']:.3f}-{walls['max']:.3f}",
            f"{INSTANCES / walls['median']:.3f}",
            f"{speedups['median']:.2f}x",
            f"{speedups['min']:.2f}-{speedups['max']:.2f}x",
            baseline.hops_executed,
        ])
        results[str(workers)] = {
            "wall_seconds": walls,
            "throughput_per_wall_second": round(
                INSTANCES / walls["median"], 6),
            "speedup_vs_1_worker": speedups,
            "host_seconds_total": round(statistics.median(
                report.host_seconds_total for report in runs), 6),
        }
    emit_table(
        "fleet_real",
        f"True-parallel fleet — {SPEC}, {INSTANCES} instances, "
        f"{cpu_count} host CPUs; medians of {ROUNDS} rotated rounds",
        ["workers", "wall s", "wall range", "inst/s", "speedup",
         "speedup range", "hops"],
        rows,
    )
    emit_bench("fleet_real", {
        "workload": SPEC,
        "instances": INSTANCES,
        "seed": SEED,
        "rounds": ROUNDS,
        "cpu_count": cpu_count,
        "deterministic": baseline.deterministic_dict(),
        "by_workers": results,
        "expected_speedup_at_4_workers": EXPECTED_SPEEDUP_AT_4,
        "speedup_asserted": cpu_count >= 4,
    })

    if cpu_count >= 4:
        speedup_at_4 = results["4"]["speedup_vs_1_worker"]["median"]
        assert speedup_at_4 >= EXPECTED_SPEEDUP_AT_4, (
            f"4 workers on {cpu_count} CPUs reached a median of only "
            f"{speedup_at_4:.2f}x over 1 worker "
            f"(expected ≥{EXPECTED_SPEEDUP_AT_4}x)"
        )


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="2 workers cannot beat 1 on a single CPU")
def test_two_workers_beat_one():
    workload = workload_from_spec(SPEC)
    world = build_world([*workload.identities, TFC_IDENTITY], bits=1024)
    reports = _rounds(world, (1, 2))

    speedups = _speedups(reports, 2)
    rows = [[pair + 1, f"{one.wall_seconds:.3f}", f"{two.wall_seconds:.3f}",
             f"{speedup:.2f}x"]
            for pair, (one, two, speedup)
            in enumerate(zip(reports[1], reports[2], speedups))]
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
        f"{median:.2f}x over 1 worker in {ROUNDS} alternating pairs "
        f"({', '.join(f'{s:.2f}x' for s in speedups)})"
    )
