"""Simulated HDFS: replicated block storage under the HBase simulator.

Models the parts of HDFS the paper's document pool depends on:

* files split into fixed-size blocks;
* each block replicated on ``replication`` distinct datanodes;
* datanode failure triggers re-replication of under-replicated blocks
  (the pool must be "durable and resilient to any failures", §1);
* appends that fill a file's last block, in place, before placing new
  ones (the HBase write-ahead log grows this way);
* read/write costs charged to the shared :class:`SimClock` through a
  :class:`NetworkModel`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..errors import StorageError
from .network import LAN, NetworkModel
from .simclock import SimClock

__all__ = ["BlockInfo", "DataNode", "SimHdfs"]


@dataclass
class BlockInfo:
    """Metadata the namenode keeps for one block."""

    block_id: int
    size: int
    replicas: list[str] = field(default_factory=list)
    #: Append buffer of a block that :meth:`SimHdfs.append` has filled:
    #: its first ``size`` bytes are the block, never written again, so
    #: the replicas' read-only views of them stay valid while later
    #: appends write past them.
    buffer: bytearray | None = field(default=None, repr=False)


@dataclass
class DataNode:
    """One storage node holding block payloads."""

    node_id: str
    #: Block payloads: read-only views into the immutable ``bytes`` of
    #: the write or append that produced them, or into the filled
    #: prefix of an appended block's buffer (see :meth:`SimHdfs.write`
    #: and :meth:`SimHdfs.append`).
    blocks: dict[int, memoryview] = field(default_factory=dict)
    alive: bool = True
    #: Incremental byte counter — ``used_bytes`` feeds the placement
    #: sort on every block write and must not rescan the node.
    _used: int = field(default=0, repr=False)

    def store_block(self, block_id: int, data: memoryview) -> None:
        """Add or overwrite one block payload."""
        previous = self.blocks.get(block_id)
        if previous is not None:
            self._used -= len(previous)
        self.blocks[block_id] = data
        self._used += len(data)

    def drop_block(self, block_id: int) -> None:
        """Release one block payload (no-op when absent)."""
        data = self.blocks.pop(block_id, None)
        if data is not None:
            self._used -= len(data)

    @property
    def used_bytes(self) -> int:
        """Bytes stored on this node."""
        return self._used


class SimHdfs:
    """A namenode plus a set of datanodes.

    Parameters
    ----------
    datanodes:
        Number of storage nodes.
    replication:
        Copies per block (capped at the number of live nodes).
    block_size:
        Bytes per block; small by real-HDFS standards because the
        workloads here are kilobyte documents, not gigabyte scans.
    """

    def __init__(self, datanodes: int = 3, replication: int = 3,
                 block_size: int = 65536,
                 clock: SimClock | None = None,
                 network: NetworkModel = LAN) -> None:
        if datanodes < 1:
            raise StorageError("need at least one datanode")
        self.clock = clock or SimClock()
        self.network = network
        self.block_size = block_size
        self.replication = replication
        self.nodes: dict[str, DataNode] = {
            f"dn{i}": DataNode(f"dn{i}") for i in range(datanodes)
        }
        self._files: dict[str, list[BlockInfo]] = {}
        self._block_ids = itertools.count(1)
        self._placement = itertools.count(0)
        #: Operation counters for the metrics endpoint.
        self.stats = {"writes": 0, "reads": 0, "bytes_written": 0,
                      "bytes_read": 0, "rereplications": 0}

    # -- placement ------------------------------------------------------------

    def _live_nodes(self) -> list[DataNode]:
        return [n for n in self.nodes.values() if n.alive]

    def _pick_targets(self, count: int,
                      exclude: set[str] = frozenset()) -> list[DataNode]:
        live = [n for n in self._live_nodes() if n.node_id not in exclude]
        if not live:
            raise StorageError("no live datanodes available")
        count = min(count, len(live))
        start = next(self._placement)
        # Least-loaded first, ties broken by a rotation over the nodes'
        # positions.  Not ``hash(node_id)``: str hashes are salted per
        # process, so replica sets would vary between same-seed runs.
        ordered = sorted(
            enumerate(live),
            key=lambda pair: (pair[1].used_bytes,
                              (pair[0] + start) % len(live)),
        )
        return [node for _, node in ordered[:count]]

    # -- file operations ----------------------------------------------------------

    def write(self, path: str, data: bytes) -> None:
        """Write (or overwrite) a file, replicating every block.

        Blocks are zero-copy views into one immutable ``bytes``, shared
        by every replica; any other buffer (a ``bytearray``) is copied
        once first, so mutating it afterwards cannot reach the file.
        """
        with self.clock.trace("hdfs.write", "hdfs"):
            if not isinstance(data, bytes):
                data = bytes(data)
            whole = memoryview(data)
            blocks = [self._place_block(whole[offset:offset + self.block_size])
                      for offset in range(0, max(len(data), 1),
                                          self.block_size)]
            old = self._files.get(path)
            if old is not None:
                self._release(old)
            self._files[path] = blocks
            self.stats["writes"] += 1
            self.stats["bytes_written"] += len(data)

    def append(self, path: str, data: bytes) -> None:
        """Append to a file, creating it when absent.

        As in HDFS, the bytes first fill the file's last block, whose
        replicas then hold its longer contents, and only the rest goes
        to newly placed blocks; each replica is charged for the bytes
        appended to it, never for the file's full size.  Filling a
        block copies each appended byte into the block's buffer once
        (see :meth:`_fill`), so a log grown by small appends costs what
        it appends, not the size of its last block on every call.
        """
        with self.clock.trace("hdfs.append", "hdfs"):
            if not isinstance(data, bytes):
                data = bytes(data)
            whole = memoryview(data)
            blocks = self._files.setdefault(path, [])
            offset = 0
            if blocks and blocks[-1].size < self.block_size:
                last = blocks[-1]
                offset = min(self.block_size - last.size, len(data))
                filled = self._fill(last, whole[:offset])
                for node_id in last.replicas:
                    self.nodes[node_id].store_block(last.block_id, filled)
                    self.clock.advance(
                        self.network.transfer_seconds(offset),
                        component="pool",
                    )
            blocks.extend(
                self._place_block(whole[start:start + self.block_size])
                for start in range(offset, len(data), self.block_size))
            self.stats["writes"] += 1
            self.stats["bytes_written"] += len(data)

    def _fill(self, info: BlockInfo, chunk: memoryview) -> memoryview:
        """Write *chunk* after the block's bytes in its append buffer
        and return a read-only view of the longer block.

        The buffer doubles up to ``block_size`` as the block grows, so
        a byte is copied O(1) times however many appends fill the
        block, and a small log holds a small buffer.  A bigger buffer
        is a new ``bytearray``: views of the old one keep their bytes.
        """
        current = self._read_block(info)    # raises once no replica lives
        end = info.size + len(chunk)
        buffer = info.buffer
        if buffer is None or len(buffer) < end:
            buffer = info.buffer = bytearray(
                min(self.block_size, max(end, 2 * info.size)))
            buffer[:info.size] = current
        buffer[info.size:end] = chunk
        info.size = end
        return memoryview(buffer)[:end].toreadonly()

    def _place_block(self, chunk: memoryview) -> BlockInfo:
        """Store *chunk* as a new block on ``replication`` nodes,
        charging each replica for the transfer."""
        block_id = next(self._block_ids)
        targets = self._pick_targets(self.replication)
        for node in targets:
            node.store_block(block_id, chunk)
            self.clock.advance(self.network.transfer_seconds(len(chunk)),
                               component="pool")
        return BlockInfo(block_id=block_id, size=len(chunk),
                         replicas=[n.node_id for n in targets])

    def read(self, path: str) -> bytes:
        """Read a file from any live replica of each block."""
        blocks = self._files.get(path)
        if blocks is None:
            raise StorageError(f"no such file {path!r}")
        with self.clock.trace("hdfs.read", "hdfs"):
            out = bytearray()
            for info in blocks:
                chunk = self._read_block(info)
                out += chunk
                self.clock.advance(
                    self.network.transfer_seconds(len(chunk)),
                    component="pool",
                )
            self.stats["reads"] += 1
            self.stats["bytes_read"] += len(out)
            return bytes(out)

    def _read_block(self, info: BlockInfo) -> memoryview:
        for node_id in info.replicas:
            node = self.nodes.get(node_id)
            if node is not None and node.alive and info.block_id in node.blocks:
                return node.blocks[info.block_id]
        raise StorageError(
            f"block {info.block_id} has no live replica "
            f"(datanode failures exceeded replication)"
        )

    def delete(self, path: str) -> None:
        """Delete a file and free its blocks."""
        blocks = self._files.pop(path, None)
        if blocks is None:
            raise StorageError(f"no such file {path!r}")
        self._release(blocks)

    def _release(self, blocks: list[BlockInfo]) -> None:
        for info in blocks:
            for node_id in info.replicas:
                node = self.nodes.get(node_id)
                if node is not None:
                    node.drop_block(info.block_id)

    def exists(self, path: str) -> bool:
        """True when *path* is a stored file."""
        return path in self._files

    def list_files(self, prefix: str = "") -> list[str]:
        """All stored paths with the given prefix, sorted."""
        return sorted(p for p in self._files if p.startswith(prefix))

    # -- failure handling -------------------------------------------------------------

    def kill_node(self, node_id: str) -> None:
        """Fail a datanode and re-replicate every block it held."""
        node = self.nodes.get(node_id)
        if node is None:
            raise StorageError(f"no such datanode {node_id!r}")
        node.alive = False
        for blocks in self._files.values():
            for info in blocks:
                if node_id not in info.replicas:
                    continue
                info.replicas.remove(node_id)
                live_replicas = {
                    r for r in info.replicas
                    if self.nodes[r].alive
                }
                if not live_replicas:
                    continue  # data loss; read will surface it
                want = min(self.replication, len(self._live_nodes()))
                if len(live_replicas) < want:
                    data = self._read_block(info)
                    targets = self._pick_targets(
                        want - len(live_replicas),
                        exclude=set(info.replicas),
                    )
                    for target in targets:
                        target.store_block(info.block_id, data)
                        info.replicas.append(target.node_id)
                        self.stats["rereplications"] += 1
                        self.clock.advance(
                            self.network.transfer_seconds(len(data)),
                            component="pool",
                        )

    def under_replicated_blocks(self) -> int:
        """Blocks with fewer live replicas than the replication target."""
        want = min(self.replication, len(self._live_nodes()))
        count = 0
        for blocks in self._files.values():
            for info in blocks:
                live = sum(
                    1 for r in info.replicas if self.nodes[r].alive
                )
                if live < want:
                    count += 1
        return count
