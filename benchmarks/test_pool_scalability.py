"""Claim C5 — the document pool scales (§4.2 and the conclusion).

The paper stores DRA4WfMS documents in HBase over HDFS and claims the
pool supports querying, storing, monitoring and statistical analyses as
the number of documents grows (their own measurement of this was left
as future work — "we are working on extending the number of data
nodes …").  We sweep the pool to thousands of documents and measure:

* per-document store and retrieve latency (real compute time),
* TO-DO search latency,
* region splits and load distribution across region servers,
* a MapReduce statistics job over the whole pool,
* what one memstore flush rewrites as full-routing rows grow version by
  version (``test_flush_cost_by_pool_size``).
"""

from __future__ import annotations

import statistics
import time

from conftest import TFC_IDENTITY, emit_table
from repro.cloud import CloudSystem, run_process_in_cloud
from repro.cloud.hbase import SimHBase
from repro.cloud.mapreduce import MapReduceEngine
from repro.cloud.pool import DOC_TABLE, DocumentPool
from repro.document import Dra4wfmsDocument, build_initial_document
from repro.workloads.figure9 import DESIGNER, figure9_responders

POOL_SIZES = [100, 500, 2000]
#: Instances per full-routing flush sweep, each storing the 11 versions
#: of one Fig. 9B run with a loop-back (247 kB of documents).
FLUSH_POOL_SIZES = [20, 40, 80, 160]


def fill_pool(pool, template_bytes, count, start=0):
    from repro.document import Dra4wfmsDocument

    for i in range(start, start + count):
        document = Dra4wfmsDocument.from_bytes(template_bytes)
        document.header.set("ProcessId", f"proc-{i:06d}")
        pool.register_process(document.process_id)
        pool.store(document)
        pool.add_todo(f"user{i % 50}@enterprise.example",
                      document.process_id, "A")


def test_pool_scaling(benchmark, world, fig9a, backend):
    template = build_initial_document(fig9a, world.keypair(DESIGNER),
                                      backend=backend).to_bytes()

    rows = []
    measurements = {}

    def sweep():
        for total in POOL_SIZES:
            hbase = SimHBase(region_servers=4, split_threshold_rows=128)
            pool = DocumentPool(hbase)
            fill_pool(pool, template, total)

            start = time.perf_counter()
            for i in range(0, total, max(total // 50, 1)):
                pool.latest(f"proc-{i:06d}")
            gets = total // max(total // 50, 1)
            get_seconds = (time.perf_counter() - start) / gets

            start = time.perf_counter()
            pool.todo_for("user7@enterprise.example")
            todo_seconds = time.perf_counter() - start

            engine = MapReduceEngine(hbase)
            _, stats = engine.run(
                DOC_TABLE,
                lambda key, row: [("docs", 1)],
                lambda key, values: sum(values),
            )
            measurements[total] = (
                get_seconds, todo_seconds,
                hbase.region_count(DOC_TABLE),
                stats.simulated_makespan_seconds,
                {s.server_id: s.load for s in hbase.servers.values()},
            )
        return measurements

    benchmark.pedantic(sweep, rounds=1, warmup_rounds=0)

    for total in POOL_SIZES:
        get_s, todo_s, regions, makespan, loads = measurements[total]
        rows.append([
            total, f"{get_s * 1000:.3f}", f"{todo_s * 1000:.3f}",
            regions, f"{makespan:.4f}",
        ])
    emit_table(
        "pool_scaling",
        "Claim C5: document pool scaling (real ms per op)",
        ["documents", "get (ms)", "todo search (ms)", "regions",
         "MapReduce makespan (s)"],
        rows,
    )

    # Random access stays flat-ish while the pool grows 20×: a get must
    # not degrade linearly with pool size (region-sharded lookup).
    small_get = measurements[POOL_SIZES[0]][0]
    large_get = measurements[POOL_SIZES[-1]][0]
    growth = POOL_SIZES[-1] / POOL_SIZES[0]
    assert large_get < small_get * growth / 2

    # The table actually split into regions and spread over servers.
    assert measurements[POOL_SIZES[-1]][2] >= 4
    loads = measurements[POOL_SIZES[-1]][4]
    assert sum(1 for load in loads.values() if load > 0) >= 2


def test_durability_under_datanode_failure(benchmark, world, fig9a,
                                           backend):
    """§1: the pool must be "durable and resilient to any failures"."""
    template = build_initial_document(fig9a, world.keypair(DESIGNER),
                                      backend=backend).to_bytes()

    def exercise():
        hbase = SimHBase(region_servers=2, split_threshold_rows=64)
        pool = DocumentPool(hbase)
        fill_pool(pool, template, 200)
        hbase.hdfs.kill_node("dn0")
        # A region server dies too: regions recover from store files +
        # WAL replay on the survivor.
        hbase.kill_server("rs0")
        # All documents remain readable and re-replication healed.
        for i in (0, 99, 199):
            pool.latest(f"proc-{i:06d}")
        return hbase.hdfs.under_replicated_blocks()

    under_replicated = benchmark.pedantic(exercise, rounds=1,
                                          warmup_rounds=0)
    assert under_replicated == 0


def test_flush_cost_by_pool_size(benchmark, world, fig9b, backend):
    """What one memstore flush rewrites as the pool grows.

    Under full routing an instance's row holds every version of its
    document.  Each pool stores the versions of one executed Fig. 9B
    instance (one loop-back) for every instance, a version at a time
    round the instances, so every row grows together.  A region splits
    once its stored bytes exceed ``split_threshold_bytes``, so a flush
    rewrites one bounded region however large the table grows.  The
    counts are exact; host time per flush is recorded, not bounded.
    """
    system = CloudSystem(world.directory, world.keypair(TFC_IDENTITY),
                         backend=backend)
    base = f"{0:032x}"
    initial = build_initial_document(fig9b, world.keypair(DESIGNER),
                                     backend=backend, process_id=base,
                                     created_at=0.0)
    run_process_in_cloud(system, fig9b, initial, world.keypair(DESIGNER),
                         world.keypairs, figure9_responders(1))
    versions = [document.to_bytes()
                for document in system.pool.history(base)]

    measurements = {}

    def sweep():
        for total in FLUSH_POOL_SIZES:
            hbase = SimHBase(region_servers=4)
            pool = DocumentPool(hbase)
            flushes: list[tuple[int, int, float]] = []

            def recorded(region, flush=hbase._flush, hdfs=hbase.hdfs):
                start = time.perf_counter()
                flush(region)
                seconds = time.perf_counter() - start
                if region.table == DOC_TABLE:
                    # Measuring must not move the clock that stamps
                    # the cells: the read's charge is discarded.
                    with hbase.clock.capture():
                        size = len(hdfs.read(region.hdfs_path()))
                    flushes.append((region.data_bytes, size, seconds))

            hbase._flush = recorded
            process_ids = [f"{i + 1:032x}" for i in range(total)]
            for process_id in process_ids:
                pool.register_process(process_id)
            for version in versions:
                for process_id in process_ids:
                    pool.store(Dra4wfmsDocument.from_bytes(
                        version.replace(base.encode(),
                                        process_id.encode())))
            measurements[total] = (hbase, flushes)
        return measurements

    benchmark.pedantic(sweep, rounds=1, warmup_rounds=0)

    threshold = SimHBase().split_threshold_bytes
    rows = []
    means = []
    for total in FLUSH_POOL_SIZES:
        hbase, flushes = measurements[total]
        held = max(data_bytes for data_bytes, _, _ in flushes)
        mean_file = statistics.mean(size for _, size, _ in flushes)
        means.append(mean_file)
        rows.append([
            total, hbase.total_bytes(DOC_TABLE), len(flushes),
            hbase.stats["splits"], hbase.region_count(DOC_TABLE),
            round(mean_file), max(size for _, size, _ in flushes),
            f"{statistics.mean(s for _, _, s in flushes) * 1000:.2f}",
        ])
        # No flush encodes more than one region's worth of rows: at
        # most the threshold plus the put that crossed it.
        assert held <= threshold + len(versions[-1])
        assert (hbase.region_count(DOC_TABLE)
                > hbase.total_bytes(DOC_TABLE) // threshold)
    emit_table(
        "pool_flush_cost",
        "Claim C5: store-file bytes per flush against pool size "
        "(full routing)",
        ["instances", "stored bytes", "flushes", "splits", "regions",
         "store-file bytes per flush", "largest store file",
         "host ms per flush"],
        rows,
    )
    # Once the table splits, a flush rewrites as much at 8x the pool
    # as at 2x; without byte splits it rewrites 3.9 times as much.
    assert means[-1] < 1.25 * means[1]
