"""Consistent-hash sharding for the multi-portal cloud tier.

The paper's §3 scalability argument is "any number of portal servers in
front of an elastic HBase pool" — which only holds if *placement* of
work across those portals is cheap, balanced, and stable as the tier
grows.  This module provides the placement primitive everything else
builds on, a **consistent-hash ring** with virtual nodes, and its
portal-tier user, :class:`PortalPlacement`, which pins every process
instance to one portal for its whole lifetime.  Portals are stateless
(all state is in the pool), so *any* portal could serve any request;
pinning by consistent hash instead of round-robin gives each instance
session affinity, keeps placement independent of call order, and makes
per-portal load a pure function of the instance population.  The
ring's other user is the sharded
:class:`~repro.cloud.hbase.CerChunkStore`.

Properties the rest of the system (and the tests) rely on:

* **Deterministic.**  Ring points are SHA-256 of ``"{seed}:{node}#{v}"``
  — no ``hash()`` (which is salted per process), no host randomness.
  Two rings built from the same (nodes, vnodes, seed) place every key
  identically, on any Python, in any process.  This is what keeps
  fleet reports byte-identical across worker counts.
* **Balanced.**  Each node contributes ``vnodes`` points, so the key
  space splits into ``len(nodes) × vnodes`` arcs.  At the default
  vnode count the max/mean load over 10k keys stays ≤ 1.25 for 1–8
  nodes (asserted in ``tests/cloud/test_sharding.py``).
* **Stable under change.**  Adding or removing one of *n* nodes moves
  only ~1/n of the keys (:meth:`HashRing.moved_keys`), which is the
  entire point of consistent hashing: growing the portal tier does not
  reshuffle the world.
* **Replication-aware.**  :meth:`HashRing.nodes_for` walks the ring
  past the primary to find *r* **distinct** successor nodes — the
  factor-R placement of the sharded chunk store.

See ``docs/SHARDING.md`` for how placement, region auto-split and chunk
replication compose into the sharded cloud tier.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable, Sequence

from ..errors import CloudError

__all__ = ["HashRing", "DEFAULT_VNODES", "PortalPlacement",
           "placement_skew"]

#: Virtual nodes per physical node.  256 arcs per node keeps the
#: max/mean placement skew ≤ 1.25 at 10k keys for tiers of up to 8
#: portals (the acceptance bound this repo's tests assert).
DEFAULT_VNODES = 256


def _point(seed: int, node: str, vnode: int) -> int:
    """Ring position of one virtual node (stable across processes)."""
    label = f"{seed}:{node}#{vnode}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(label).digest()[:8], "big")


def _key_point(key: str) -> int:
    """Ring position of a key."""
    return int.from_bytes(
        hashlib.sha256(key.encode("utf-8")).digest()[:8], "big"
    )


class HashRing:
    """A consistent-hash ring over named nodes with virtual nodes."""

    def __init__(self, nodes: Iterable[str],
                 vnodes: int = DEFAULT_VNODES,
                 seed: int = 0) -> None:
        if vnodes < 1:
            raise CloudError("need at least one virtual node per node")
        self.vnodes = vnodes
        self.seed = seed
        self._nodes: list[str] = []
        #: Sorted ring positions and the node owning each position.
        self._points: list[int] = []
        self._owners: list[str] = []
        for node in nodes:
            self.add_node(node)
        if not self._nodes:
            raise CloudError("a hash ring needs at least one node")

    # -- membership ----------------------------------------------------------

    @property
    def nodes(self) -> list[str]:
        """Member nodes in insertion order."""
        return list(self._nodes)

    def add_node(self, node: str) -> None:
        """Join *node* (its vnodes claim ~1/n of the key space)."""
        if node in self._nodes:
            raise CloudError(f"node {node!r} is already on the ring")
        self._nodes.append(node)
        for v in range(self.vnodes):
            point = _point(self.seed, node, v)
            index = bisect.bisect_left(self._points, point)
            self._points.insert(index, point)
            self._owners.insert(index, node)

    def remove_node(self, node: str) -> None:
        """Leave the ring (its keys fall to the ring successors)."""
        if node not in self._nodes:
            raise CloudError(f"node {node!r} is not on the ring")
        if len(self._nodes) == 1:
            raise CloudError("cannot remove the last node from the ring")
        self._nodes.remove(node)
        keep = [(p, o) for p, o in zip(self._points, self._owners)
                if o != node]
        self._points = [p for p, _ in keep]
        self._owners = [o for _, o in keep]

    # -- placement -----------------------------------------------------------

    def node_for(self, key: str) -> str:
        """The node owning *key* (clockwise successor of its point)."""
        index = bisect.bisect_right(self._points, _key_point(key))
        if index == len(self._points):
            index = 0
        return self._owners[index]

    def nodes_for(self, key: str, count: int) -> list[str]:
        """*count* distinct nodes for *key*: primary, then ring order.

        The replica set of consistent hashing — walking clockwise from
        the key's point and collecting distinct owners.  *count* beyond
        the member count is an error (a replication factor the tier
        cannot satisfy should fail loudly, not silently degrade).
        """
        if count < 1:
            raise CloudError("need at least one placement target")
        if count > len(self._nodes):
            raise CloudError(
                f"cannot place on {count} distinct nodes; the ring has "
                f"only {len(self._nodes)}"
            )
        start = bisect.bisect_right(self._points, _key_point(key))
        chosen: list[str] = []
        for offset in range(len(self._points)):
            owner = self._owners[(start + offset) % len(self._points)]
            if owner not in chosen:
                chosen.append(owner)
                if len(chosen) == count:
                    break
        return chosen

    def placement(self, keys: Sequence[str]) -> dict[str, int]:
        """Keys-per-node histogram (every member node present, ≥ 0)."""
        counts = {node: 0 for node in sorted(self._nodes)}
        for key in keys:
            counts[self.node_for(key)] += 1
        return counts

    def moved_keys(self, other: "HashRing", keys: Sequence[str]) -> int:
        """How many of *keys* land on a different node than on *other*.

        The relocation cost of a ring change: for a well-behaved
        consistent hash, adding one node to an *n*-node ring moves
        ~``len(keys)/(n+1)`` keys, never a wholesale reshuffle.
        """
        return sum(1 for key in keys
                   if self.node_for(key) != other.node_for(key))


def placement_skew(counts: dict[str, int]) -> float:
    """Max/mean load ratio of a placement histogram (1.0 = perfect).

    The balance metric the acceptance tests bound: ≤ 1.25 at 10k
    instances over up to 8 portals.  Empty histograms (or all-zero
    ones) are perfectly balanced by definition.
    """
    if not counts:
        return 1.0
    mean = sum(counts.values()) / len(counts)
    if mean == 0:
        return 1.0
    return max(counts.values()) / mean


class PortalPlacement:
    """Consistent-hash pinning of process instances to portals."""

    def __init__(self, portal_ids: list[str]) -> None:
        self.ring = HashRing(portal_ids)
        #: portal id → instances first routed there (observability).
        self.placed: dict[str, int] = {pid: 0 for pid in portal_ids}
        self._seen: set[str] = set()

    def portal_for(self, process_id: str) -> str:
        """The portal id owning *process_id* (counts first sightings)."""
        portal_id = self.ring.node_for(process_id)
        if process_id not in self._seen:
            self._seen.add(process_id)
            self.placed[portal_id] = self.placed.get(portal_id, 0) + 1
        return portal_id

    @property
    def skew(self) -> float:
        """Max/mean instances-per-portal of everything placed so far."""
        return placement_skew(self.placed)

    def to_dict(self) -> dict[str, object]:
        """JSON-safe placement snapshot for fleet reports."""
        return {
            "scheme": "ring",
            "vnodes": self.ring.vnodes,
            "portals": dict(sorted(self.placed.items())),
            "skew": round(self.skew, 9),
        }
