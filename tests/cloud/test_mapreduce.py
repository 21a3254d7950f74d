"""MapReduce engine over the simulated HBase."""

from __future__ import annotations

import pytest

from repro.cloud.hbase import SimHBase
from repro.cloud.mapreduce import MapReduceEngine


def build_cluster() -> SimHBase:
    hbase = SimHBase(region_servers=3, split_threshold_rows=10)
    hbase.create_table("events")
    for i in range(50):
        hbase.put("events", f"e{i:03d}", "d", "kind",
                  b"even" if i % 2 == 0 else b"odd")
        hbase.put("events", f"e{i:03d}", "d", "value", str(i).encode())
    return hbase


@pytest.fixture()
def cluster():
    return build_cluster()


def test_word_count_style_job(cluster):
    engine = MapReduceEngine(cluster)

    def map_fn(row_key, row):
        yield row[("d", "kind")].decode(), 1

    results, stats = engine.run("events", map_fn,
                                lambda key, values: sum(values))
    assert results == {"even": 25, "odd": 25}
    assert stats.input_rows == 50
    assert stats.shuffled_records == 50
    assert stats.reduce_groups == 2


def test_one_map_task_per_region(cluster):
    engine = MapReduceEngine(cluster)
    _, stats = engine.run("events", lambda k, r: [], lambda k, v: None)
    assert stats.map_tasks == cluster.region_count("events")
    assert stats.map_tasks >= 2  # splits happened


def test_aggregation_job(cluster):
    engine = MapReduceEngine(cluster)

    def map_fn(row_key, row):
        yield "total", int(row[("d", "value")])

    results, _ = engine.run("events", map_fn,
                            lambda key, values: sum(values))
    assert results["total"] == sum(range(50))


def test_makespan_accounting(cluster):
    engine = MapReduceEngine(cluster)
    before = cluster.clock.now()
    _, stats = engine.run("events", lambda k, r: [("x", 1)],
                          lambda k, v: len(v))
    assert stats.simulated_makespan_seconds > 0
    assert stats.simulated_makespan_seconds <= stats.total_compute_seconds + 1e-9
    assert cluster.clock.now() >= before + stats.simulated_makespan_seconds


def test_charges_follow_from_counts_not_host_time():
    """Each map task costs the network time of its region's bytes, so
    the same job over the same pool charges the same makespan and
    leaves the clock at the same time, run after run."""
    runs = []
    for _ in range(2):
        hbase = build_cluster()
        engine = MapReduceEngine(hbase)
        _, first = engine.run("events", lambda k, r: [("x", 1)],
                              lambda k, v: len(v))
        after_first = hbase.clock.now()
        _, second = engine.run("events", lambda k, r: [("x", 1)],
                               lambda k, v: len(v))
        assert first == second
        assert first.map_task_seconds == [
            hbase.network.transfer_seconds(region.data_bytes)
            for region in hbase.regions_of("events")]
        assert hbase.clock.now() == (after_first
                                     + first.simulated_makespan_seconds)
        runs.append((first, after_first, hbase.clock.now()))
    assert runs[0] == runs[1]


def test_empty_table():
    hbase = SimHBase(region_servers=1)
    hbase.create_table("empty")
    results, stats = MapReduceEngine(hbase).run(
        "empty", lambda k, r: [("k", 1)], lambda k, v: sum(v)
    )
    assert results == {}
    assert stats.input_rows == 0
    assert stats.map_tasks == 1
