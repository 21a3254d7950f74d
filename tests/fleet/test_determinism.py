"""Same seed ⇒ byte-identical reports — the fleet's core guarantee.

Everything the fleet reports derives from simulated quantities:
process ids, document timestamps, crypto costs, network costs and the
arrival/think-time draws are all functions of the seed alone.  Two
runs with the same seed must therefore serialise to the same bytes;
two runs with different seeds must not.
"""

from __future__ import annotations

import pytest

from repro.cloud.pool import DOC_TABLE
from repro.fleet import (
    ClosedLoop,
    FleetConfig,
    OpenLoop,
    build_fleet,
    workload_from_spec,
)


def run_once(seed: int, think: float = 0.0):
    fleet = build_fleet(
        workload_from_spec("fig9"),
        FleetConfig(arrivals=OpenLoop(instances=8, rate_per_second=6.0),
                    seed=seed, think_seconds=think, audit_every=4),
    )
    report = fleet.run()
    return fleet, report


class TestDeterminism:
    @pytest.fixture(scope="class")
    def twin_runs(self):
        return run_once(seed=13, think=0.5), run_once(seed=13, think=0.5)

    def test_reports_serialise_byte_identical(self, twin_runs):
        (_, a), (_, b) = twin_runs
        assert a.to_json() == b.to_json()

    def test_queue_series_identical(self, twin_runs):
        (fa, _), (fb, _) = twin_runs
        assert fa.queue_depths() == fb.queue_depths()

    def test_latency_samples_identical(self, twin_runs):
        (_, a), (_, b) = twin_runs
        assert a.latencies == b.latencies

    def test_process_ids_deterministic(self, twin_runs):
        (fa, _), (fb, _) = twin_runs
        assert sorted(fa.instances) == sorted(fb.instances)
        assert all(pid.startswith("fleet13-") for pid in fa.instances)

    def test_different_seed_different_report(self, twin_runs):
        (_, a), _ = twin_runs
        _, c = run_once(seed=14, think=0.5)
        assert a.to_json() != c.to_json()
        # but the workload shape is unchanged
        assert c.instances_completed == a.instances_completed
        assert c.hops_executed == a.hops_executed


def test_full_routing_repeats_across_region_splits():
    """Full routing keys every row by a seeded process id, so the
    documents table splits by bytes at the same puts in both runs."""
    runs = []
    for _ in range(2):
        fleet = build_fleet(
            workload_from_spec("fig9", loops=1),
            FleetConfig(arrivals=ClosedLoop(instances=20, concurrency=4),
                        seed=3, audit_every=5),
        )
        runs.append((fleet, fleet.run()))
    (first, a), (second, b) = runs
    assert first.system.hbase.region_count(DOC_TABLE) >= 2
    assert first.system.hbase.stats == second.system.hbase.stats
    assert a.to_json() == b.to_json()
