"""Simulated HDFS: blocks, replication, failure handling."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cloud.hdfs import DataNode, SimHdfs
from repro.cloud.simclock import SimClock
from repro.errors import StorageError


@pytest.fixture()
def hdfs():
    return SimHdfs(datanodes=4, replication=3, block_size=64)


class TestBasicIO:
    def test_write_read_roundtrip(self, hdfs):
        hdfs.write("/f", b"hello world")
        assert hdfs.read("/f") == b"hello world"

    def test_multi_block_file(self, hdfs):
        data = bytes(range(256)) * 2  # 512 B = 8 blocks of 64
        hdfs.write("/big", data)
        assert hdfs.read("/big") == data

    def test_empty_file(self, hdfs):
        hdfs.write("/empty", b"")
        assert hdfs.read("/empty") == b""

    def test_overwrite(self, hdfs):
        hdfs.write("/f", b"one")
        hdfs.write("/f", b"two")
        assert hdfs.read("/f") == b"two"

    def test_missing_file(self, hdfs):
        with pytest.raises(StorageError):
            hdfs.read("/ghost")

    def test_delete(self, hdfs):
        hdfs.write("/f", b"data")
        hdfs.delete("/f")
        assert not hdfs.exists("/f")
        with pytest.raises(StorageError):
            hdfs.read("/f")
        with pytest.raises(StorageError):
            hdfs.delete("/f")

    def test_list_files(self, hdfs):
        hdfs.write("/a/1", b"x")
        hdfs.write("/a/2", b"y")
        hdfs.write("/b/1", b"z")
        assert hdfs.list_files("/a/") == ["/a/1", "/a/2"]
        assert len(hdfs.list_files()) == 3

    def test_stats(self, hdfs):
        hdfs.write("/f", b"12345")
        hdfs.read("/f")
        assert hdfs.stats["writes"] == 1
        assert hdfs.stats["reads"] == 1
        assert hdfs.stats["bytes_written"] == 5


class TestReplication:
    def test_blocks_replicated(self, hdfs):
        hdfs.write("/f", b"replicated")
        holders = [n for n in hdfs.nodes.values() if n.blocks]
        assert len(holders) == 3

    def test_replication_capped_by_cluster_size(self):
        small = SimHdfs(datanodes=2, replication=3)
        small.write("/f", b"data")
        assert small.under_replicated_blocks() == 0

    def test_clock_charged(self):
        clock = SimClock()
        hdfs = SimHdfs(datanodes=3, replication=3, clock=clock)
        hdfs.write("/f", b"x" * 1000)
        assert clock.now() > 0


class TestFailures:
    def test_read_survives_single_failure(self, hdfs):
        hdfs.write("/f", b"durable data")
        victim = next(n.node_id for n in hdfs.nodes.values() if n.blocks)
        hdfs.kill_node(victim)
        assert hdfs.read("/f") == b"durable data"

    def test_rereplication_restores_target(self, hdfs):
        hdfs.write("/f", b"durable data")
        victim = next(n.node_id for n in hdfs.nodes.values() if n.blocks)
        hdfs.kill_node(victim)
        assert hdfs.under_replicated_blocks() == 0
        assert hdfs.stats["rereplications"] > 0

    def test_read_survives_two_failures(self, hdfs):
        hdfs.write("/f", b"very durable")
        holders = [n.node_id for n in hdfs.nodes.values() if n.blocks]
        hdfs.kill_node(holders[0])
        hdfs.kill_node(holders[1])
        assert hdfs.read("/f") == b"very durable"

    def test_total_loss_detected(self):
        hdfs = SimHdfs(datanodes=2, replication=2)
        hdfs.write("/f", b"doomed")
        for node_id in list(hdfs.nodes):
            hdfs.kill_node(node_id)
        with pytest.raises(StorageError, match="no live replica"):
            hdfs.read("/f")

    def test_kill_unknown_node(self, hdfs):
        with pytest.raises(StorageError):
            hdfs.kill_node("dn99")

    def test_writes_after_failure_use_live_nodes(self, hdfs):
        hdfs.kill_node("dn0")
        hdfs.write("/f", b"post-failure")
        assert hdfs.read("/f") == b"post-failure"
        assert not hdfs.nodes["dn0"].blocks

    def test_no_live_nodes(self):
        hdfs = SimHdfs(datanodes=1, replication=1)
        hdfs.kill_node("dn0")
        with pytest.raises(StorageError, match="no live datanodes"):
            hdfs.write("/f", b"x")


def test_needs_a_datanode():
    with pytest.raises(StorageError):
        SimHdfs(datanodes=0)


class TestZeroCopy:
    def test_bytearray_mutated_after_write_reads_back_unchanged(self, hdfs):
        buffer = bytearray(bytes(range(200)))
        hdfs.write("/f", buffer)
        buffer[:] = b"\xff" * len(buffer)
        data = hdfs.read("/f")
        assert data == bytes(range(200))
        assert type(data) is bytes

    def test_replicas_share_one_buffer(self, hdfs):
        data = bytes(range(256)) * 2
        hdfs.write("/f", data)
        views = [block for node in hdfs.nodes.values()
                 for block in node.blocks.values()]
        assert len(views) == 8 * 3
        assert all(view.obj is data and view.readonly for view in views)

    def test_accounting_matches_copying_implementation(self):
        """Write, overwrite, delete, a datanode joining, then two
        failures: counters, per-node bytes and the sim-clock total
        equal those of the implementation that copied every block."""
        clock = SimClock()
        hdfs = SimHdfs(datanodes=3, replication=3, block_size=64,
                       clock=clock)
        hdfs.write("/a", bytes(range(200)))
        hdfs.write("/b", bytearray(b"b" * 100))
        hdfs.write("/empty", b"")
        hdfs.write("/a", b"A" * 130)
        hdfs.write("/c", b"c" * 64)
        assert hdfs.read("/a") == b"A" * 130
        assert hdfs.read("/b") == b"b" * 100
        hdfs.delete("/c")
        hdfs.nodes["dn3"] = DataNode("dn3")
        hdfs.kill_node("dn0")   # every block re-replicated onto dn3
        hdfs.kill_node("dn1")   # two live nodes left: nothing to copy
        assert hdfs.read("/a") == b"A" * 130
        assert hdfs.read("/empty") == b""
        assert hdfs.stats == {"writes": 5, "reads": 4,
                              "bytes_written": 494, "bytes_read": 360,
                              "rereplications": 6}
        assert {node_id: node.used_bytes
                for node_id, node in hdfs.nodes.items()} == \
            {"dn0": 230, "dn1": 230, "dn2": 230, "dn3": 230}
        assert clock.now() == 0.0096016576


_PLACEMENT_SCRIPT = """
import json
from repro.cloud.hdfs import SimHdfs
hdfs = SimHdfs(datanodes=5, replication=3, block_size=64)
for index, size in enumerate((200, 64, 1, 330, 0, 129)):
    hdfs.write(f"/f{index}", bytes([index]) * size)
hdfs.kill_node("dn2")
print(json.dumps({
    "blocks": {path: [[b.block_id, b.size, b.replicas] for b in blocks]
               for path, blocks in sorted(hdfs._files.items())},
    "rereplications": hdfs.stats["rereplications"],
}))
"""


def test_replica_placement_independent_of_hash_seed():
    """str hashes are salted per process: placement must not use them."""
    src_dir = Path(__file__).resolve().parents[2] / "src"
    outputs = []
    for seed in ("1", "2", "3", "4"):
        proc = subprocess.run(
            [sys.executable, "-c", _PLACEMENT_SCRIPT],
            capture_output=True, text=True, timeout=120,
            env={"PYTHONPATH": str(src_dir), "PYTHONHASHSEED": seed,
                 "PATH": os.environ.get("PATH", "/usr/bin:/bin")},
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(json.loads(proc.stdout))
    assert all(output == outputs[0] for output in outputs[1:])
    replica_sets = {tuple(sorted(replicas))
                    for blocks in outputs[0]["blocks"].values()
                    for _, _, replicas in blocks}
    assert len(replica_sets) > 1           # placement had choices to make
    assert outputs[0]["rereplications"] > 0
