"""Simulated HDFS: blocks, replication, failure handling."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.hdfs import DataNode, SimHdfs
from repro.cloud.network import NetworkModel
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


class TestAppend:
    """Appends fill the last block, then place new ones (block_size 64)."""

    def test_creates_missing_file(self, hdfs):
        hdfs.append("/log", b"first")
        assert hdfs.exists("/log")
        assert hdfs.read("/log") == b"first"

    def test_fills_last_block_on_its_replicas(self, hdfs):
        hdfs.append("/log", b"a" * 40)
        [first] = hdfs._files["/log"]
        replicas = list(first.replicas)
        hdfs.append("/log", b"b" * 40)
        blocks = hdfs._files["/log"]
        assert [block.size for block in blocks] == [64, 16]
        assert blocks[0].block_id == first.block_id
        assert blocks[0].replicas == replicas
        for node_id in replicas:
            stored = hdfs.nodes[node_id].blocks[first.block_id]
            assert bytes(stored) == b"a" * 40 + b"b" * 24
            assert stored.readonly

    @pytest.mark.parametrize("start", [None, b"", b"w" * 70],
                             ids=["missing", "empty", "written"])
    def test_read_returns_every_append(self, hdfs, start):
        if start is not None:
            hdfs.write("/log", start)
        pieces = [bytes([index]) * size
                  for index, size in enumerate((1, 63, 64, 100, 0, 7, 200))]
        for piece in pieces:
            hdfs.append("/log", piece)
        data = (start or b"") + b"".join(pieces)
        assert hdfs.read("/log") == data
        assert len(hdfs._files["/log"]) == math.ceil(len(data) / 64)
        assert sum(node.used_bytes for node in hdfs.nodes.values()) == \
            3 * len(data)
        assert hdfs.stats["writes"] == len(pieces) + (start is not None)
        assert hdfs.stats["bytes_written"] == len(data)

    def test_each_replica_charged_for_its_appended_bytes(self):
        # One second per byte and no latency: a charge in seconds is
        # the number of bytes it paid for.
        clock = SimClock()
        hdfs = SimHdfs(datanodes=4, replication=3, block_size=64,
                       clock=clock,
                       network=NetworkModel(latency_seconds=0.0,
                                            bandwidth_bytes_per_second=1.0))
        hdfs.write("/log", b"x" * 300)
        before = clock.now()
        hdfs.append("/log", b"y" * 30)      # 20 fill the last block
        assert clock.now() - before == 3 * 30
        assert hdfs.read("/log") == b"x" * 300 + b"y" * 30

    def test_kill_node_rereplicates_current_bytes(self, hdfs):
        hdfs.append("/log", b"a" * 10)
        [block] = hdfs._files["/log"]
        original = list(block.replicas)
        hdfs.append("/log", b"b" * 10)
        hdfs.kill_node(original[0])
        [newcomer] = set(block.replicas) - set(original)
        assert bytes(hdfs.nodes[newcomer].blocks[block.block_id]) == \
            b"a" * 10 + b"b" * 10
        hdfs.append("/log", b"c" * 10)
        for node_id in block.replicas:
            assert bytes(hdfs.nodes[node_id].blocks[block.block_id]) == \
                b"a" * 10 + b"b" * 10 + b"c" * 10
        assert hdfs.read("/log") == b"a" * 10 + b"b" * 10 + b"c" * 10


_LOG_OPERATIONS = st.lists(st.one_of(
    st.tuples(st.just("append"), st.binary(max_size=150)),
    st.tuples(st.just("write"), st.binary(max_size=100)),
    st.tuples(st.just("read"), st.none()),
    st.tuples(st.just("kill"), st.integers(0, 7)),
), max_size=40)


@settings(max_examples=200, deadline=None)
@given(_LOG_OPERATIONS)
def test_append_matches_concatenation(operations):
    """Appends of random sizes across block boundaries, interleaved
    with the WAL's reset (``write``), reads and the loss of datanodes
    holding the open block, against a plain ``bytes`` concatenation.
    A read, or a replica's view, taken earlier keeps its bytes."""
    hdfs = SimHdfs(datanodes=8, replication=3, block_size=64)
    expected = b""
    taken: list[tuple[object, bytes]] = []
    written = 0
    for kind, argument in operations:
        if kind == "append":
            hdfs.append("/log", argument)
            expected += argument
            written += len(argument)
        elif kind == "write":
            hdfs.write("/log", argument)
            expected = argument
            written += len(argument)
        elif kind == "read" and hdfs.exists("/log"):
            data = hdfs.read("/log")
            taken.append((data, expected))
            for block in hdfs._files["/log"]:
                for node_id in block.replicas:
                    view = hdfs.nodes[node_id].blocks[block.block_id]
                    taken.append((view, bytes(view)))
        elif kind == "kill":
            live = sorted(node_id for node_id, node in hdfs.nodes.items()
                          if node.alive)
            if len(live) > 3:
                hdfs.kill_node(live[argument % len(live)])
        if hdfs.exists("/log"):
            assert hdfs.read("/log") == expected
            # Full blocks, then the open one (an empty file may hold
            # one empty block).
            blocks = [block for block in hdfs._files["/log"]
                      if block.size]
            assert [block.size for block in blocks] == [
                len(expected[start:start + 64])
                for start in range(0, len(expected), 64)]
            for block, start in zip(blocks, range(0, len(expected), 64)):
                assert len(block.replicas) == 3
                for node_id in block.replicas:
                    stored = hdfs.nodes[node_id].blocks[block.block_id]
                    assert stored.readonly
                    assert bytes(stored) == expected[start:start + 64]
    assert hdfs.stats["bytes_written"] == written
    assert hdfs.under_replicated_blocks() == 0
    for view, data in taken:
        assert bytes(view) == data


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
