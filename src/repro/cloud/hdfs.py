"""Simulated HDFS: replicated block storage under the HBase simulator.

Models the parts of HDFS the paper's document pool depends on:

* files split into fixed-size blocks;
* each block replicated on ``replication`` distinct datanodes;
* datanode failure triggers re-replication of under-replicated blocks
  (the pool must be "durable and resilient to any failures", §1);
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


@dataclass
class DataNode:
    """One storage node holding block payloads."""

    node_id: str
    #: Block payloads: read-only views into the immutable ``bytes`` of
    #: the write that produced them (see :meth:`SimHdfs.write`).
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
            blocks: list[BlockInfo] = []
            for offset in range(0, max(len(data), 1), self.block_size):
                chunk = whole[offset:offset + self.block_size]
                block_id = next(self._block_ids)
                targets = self._pick_targets(self.replication)
                for node in targets:
                    node.store_block(block_id, chunk)
                    self.clock.advance(
                        self.network.transfer_seconds(len(chunk)),
                        component="pool",
                    )
                blocks.append(BlockInfo(
                    block_id=block_id, size=len(chunk),
                    replicas=[n.node_id for n in targets],
                ))
            old = self._files.get(path)
            if old is not None:
                self._release(old)
            self._files[path] = blocks
            self.stats["writes"] += 1
            self.stats["bytes_written"] += len(data)

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
