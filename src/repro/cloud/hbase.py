"""Simulated HBase: a distributed, column-oriented table store.

Reproduces the properties §4.2 relies on — "a distributed
column-oriented database built on top of HDFS … the optimal Hadoop
application … when real-time read/write random accesses to very large
datasets are required":

* tables of rows sorted by key, with ``(column family, qualifier)``
  cells;
* rows partitioned into **regions** by key range, hosted on **region
  servers**;
* a write-ahead log per region server, persisted to the simulated HDFS
  before a put is acknowledged;
* memstore flushes to HDFS store files;
* automatic **region splits** when a region exceeds a size threshold,
  and round-robin assignment of new regions to servers;
* get/put/scan costs charged to the shared sim clock.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field

from ..errors import RegionError, StorageError
from .hdfs import SimHdfs
from .network import LAN, NetworkModel
from .simclock import SimClock

__all__ = ["Cell", "CerChunkStore", "Region", "RegionServer", "SimHBase"]

#: Sorts after every real row key (end of the key space).
_END_KEY = "￿"


@dataclass(frozen=True)
class Cell:
    """One versioned cell value."""

    value: bytes
    timestamp: float


@dataclass
class Region:
    """A contiguous key range of one table."""

    region_id: int
    table: str
    start_key: str           # inclusive
    end_key: str             # exclusive (_END_KEY = unbounded)
    rows: dict[str, dict[tuple[str, str], Cell]] = field(default_factory=dict)
    memstore_bytes: int = 0
    #: Total stored cell-value bytes (maintained incrementally — the
    #: byte-threshold split trigger must not rescan the region per put).
    data_bytes: int = 0
    #: Write-ahead log entries since the last flush:
    #: ("put", row_key, family, qualifier, value, timestamp) or
    #: ("delete", row_key, "", "", b"", timestamp) tombstones.
    wal: list[tuple[str, str, str, str, bytes, float]] = field(
        default_factory=list)
    #: Per-entry encodings of :attr:`wal`, each after its ``", "``
    #: separator, filled lazily by :meth:`encode_wal` — the WAL is
    #: rewritten to HDFS on *every* put, so re-encoding the whole
    #: backlog each time is quadratic.  Invariant: a prefix of ``wal``,
    #: cleared whenever ``wal`` is.
    _wal_cache: list[bytes] = field(default_factory=list, repr=False)
    #: Row key → a view of that row's encoding inside the store file
    #: the last :meth:`encode_rows` produced.  Every row edit below
    #: drops the row's view, so a flush re-encodes only edited rows.
    _row_views: dict[str, memoryview] = field(
        default_factory=dict, repr=False, compare=False)

    def contains(self, row_key: str) -> bool:
        """True when *row_key* falls in this region's range."""
        return self.start_key <= row_key < self.end_key

    @property
    def row_count(self) -> int:
        """Rows currently in the region."""
        return len(self.rows)

    def recompute_bytes(self) -> int:
        """Rebuild the byte counter from the rows (recovery paths)."""
        self.data_bytes = sum(
            len(cell.value)
            for cells in self.rows.values() for cell in cells.values()
        )
        return self.data_bytes

    def sorted_keys(self) -> list[str]:
        """Row keys in order (HBase rows are key-sorted)."""
        return sorted(self.rows)

    # -- row edits: each keeps data_bytes and the row views in step ---------

    def set_cell(self, row_key: str, family: str, qualifier: str,
                 cell: Cell) -> None:
        """Write one cell, replacing its previous version."""
        row = self.rows.setdefault(row_key, {})
        previous = row.get((family, qualifier))
        if previous is not None:
            self.data_bytes -= len(previous.value)
        row[(family, qualifier)] = cell
        self.data_bytes += len(cell.value)
        self._row_views.pop(row_key, None)

    def drop_row(self, row_key: str) -> None:
        """Remove one row (no-op when absent)."""
        row = self.rows.pop(row_key, None)
        if row is not None:
            self.data_bytes -= sum(len(c.value) for c in row.values())
            self._row_views.pop(row_key, None)

    def drop_cells(self, row_key: str,
                   cells: list[tuple[str, str]]) -> None:
        """Remove cells of one row (absent ones are skipped); a row
        left empty is removed outright."""
        row = self.rows.get(row_key)
        if row is None:
            return
        for key in cells:
            cell = row.pop(key, None)
            if cell is not None:
                self.data_bytes -= len(cell.value)
        if not row:
            del self.rows[row_key]
        self._row_views.pop(row_key, None)

    def hand_rows(self, sibling: Region, row_keys: list[str]) -> None:
        """Move rows to a split sibling with their bytes and views (a
        row encodes the same in either region's store file)."""
        for row_key in row_keys:
            row = self.rows.pop(row_key)
            sibling.rows[row_key] = row
            moved = sum(len(c.value) for c in row.values())
            self.data_bytes -= moved
            sibling.data_bytes += moved
            view = self._row_views.pop(row_key, None)
            if view is not None:
                sibling._row_views[row_key] = view

    def restore(self, store_file: bytes, wal_file: bytes) -> int:
        """Rebuild the rows from a store file plus a replay of the WAL
        written after it; returns the number of WAL entries replayed."""
        self.rows = self.decode_rows(store_file)
        self._row_views.clear()
        self.recompute_bytes()
        self.memstore_bytes = 0
        return self.replay_wal(wal_file)

    def hdfs_path(self) -> str:
        """Store-file path of this region in the simulated HDFS."""
        return f"/hbase/{self.table}/region-{self.region_id}"

    def wal_path(self) -> str:
        """Write-ahead-log path of this region in the simulated HDFS."""
        return f"/hbase/{self.table}/region-{self.region_id}.wal"

    # -- durable encodings ---------------------------------------------------

    def encode_rows(self) -> bytes:
        """Serialize the full row set for the HDFS store file.

        The output is byte-identical to ``json.dumps(payload,
        sort_keys=True)`` over every row, but only rows edited since
        the previous call are encoded: the rest are copied from that
        call's output through their views, and all views then point
        into the new file.  The file is built by one ``b"".join``.
        """
        import base64
        import json

        parts: list[bytes | memoryview] = [b"{"]
        spans: list[tuple[str, int, int]] = []
        offset = 1
        for row_key in sorted(self.rows):
            if spans:
                parts.append(b", ")
                offset += 2
            part = self._row_views.get(row_key)
            if part is None:
                cells = {
                    f"{family}\x00{qualifier}": [
                        base64.b64encode(cell.value).decode("ascii"),
                        cell.timestamp,
                    ]
                    for (family, qualifier), cell in self.rows[row_key].items()
                }
                part = (json.dumps(row_key) + ": "
                        + json.dumps(cells, sort_keys=True)).encode("ascii")
            parts.append(part)
            spans.append((row_key, offset, offset + len(part)))
            offset += len(part)
        parts.append(b"}")
        data = b"".join(parts)
        whole = memoryview(data)
        self._row_views = {row_key: whole[start:end]
                           for row_key, start, end in spans}
        return data

    @staticmethod
    def decode_rows(data: bytes) -> dict[str, dict[tuple[str, str], Cell]]:
        """Inverse of :meth:`encode_rows`."""
        import base64
        import json

        if not data:
            return {}
        payload = json.loads(data.decode("utf-8"))
        rows: dict[str, dict[tuple[str, str], Cell]] = {}
        for row_key, cells in payload.items():
            decoded: dict[tuple[str, str], Cell] = {}
            for key, (value_b64, timestamp) in cells.items():
                family, qualifier = key.split("\x00", 1)
                decoded[(family, qualifier)] = Cell(
                    value=base64.b64decode(value_b64),
                    timestamp=timestamp,
                )
            rows[row_key] = decoded
        return rows

    def encode_wal(self) -> bytes:
        """Serialize the pending WAL entries.

        Only entries appended since the previous call are encoded, and
        the log is built by one ``b"".join``; the output is
        byte-identical to ``json.dumps`` over the full list (same
        separators), so recovery, WAL file sizes, and the clock charges
        they drive are unchanged.
        """
        import base64
        import json

        for op, row_key, family, qualifier, value, timestamp in \
                self.wal[len(self._wal_cache):]:
            separator = ", " if self._wal_cache else ""
            self._wal_cache.append((separator + json.dumps(
                [op, row_key, family, qualifier,
                 base64.b64encode(value).decode("ascii"), timestamp]
            )).encode("utf-8"))
        return b"".join([b"[", *self._wal_cache, b"]"])

    def replay_wal(self, data: bytes) -> int:
        """Apply WAL entries on top of the recovered store rows."""
        import base64
        import json

        if not data:
            return 0
        entries = json.loads(data.decode("utf-8"))
        for op, row_key, family, qualifier, value_b64, timestamp in entries:
            if op == "delete":
                self.drop_row(row_key)
            elif op == "delcell":
                self.drop_cells(row_key, [(family, qualifier)])
            else:
                self.set_cell(row_key, family, qualifier, Cell(
                    value=base64.b64decode(value_b64), timestamp=timestamp,
                ))
        return len(entries)


@dataclass
class RegionServer:
    """A server hosting a set of regions."""

    server_id: str
    regions: list[Region] = field(default_factory=list)
    ops: int = 0
    alive: bool = True

    @property
    def load(self) -> int:
        """Total rows hosted (the balancing metric)."""
        return sum(r.row_count for r in self.regions)


class SimHBase:
    """The cluster: tables, regions, servers, WAL, splits."""

    def __init__(self,
                 region_servers: int = 2,
                 hdfs: SimHdfs | None = None,
                 clock: SimClock | None = None,
                 network: NetworkModel = LAN,
                 split_threshold_rows: int = 256,
                 split_threshold_bytes: int | None = None,
                 auto_balance: bool = True,
                 memstore_flush_bytes: int = 1 << 20) -> None:
        if region_servers < 1:
            raise StorageError("need at least one region server")
        self.clock = clock or SimClock()
        self.hdfs = hdfs or SimHdfs(clock=self.clock, network=network)
        self.network = network
        self.split_threshold_rows = split_threshold_rows
        #: When set, a region also splits once its stored cell bytes
        #: exceed this — the real HBase trigger (``hbase.hregion.max.
        #: filesize``); row count alone under-splits tables whose rows
        #: grow (the document table: one fat row per instance).
        self.split_threshold_bytes = split_threshold_bytes
        #: Rebalance regions across servers after every split (load-
        #: driven, not operator-driven — the §3 elasticity story).
        self.auto_balance = auto_balance
        self.memstore_flush_bytes = memstore_flush_bytes
        self.servers: dict[str, RegionServer] = {
            f"rs{i}": RegionServer(f"rs{i}") for i in range(region_servers)
        }
        self._tables: dict[str, list[Region]] = {}
        self._region_ids = itertools.count(1)
        self._assign_cursor = itertools.count(0)
        self.stats = {"puts": 0, "gets": 0, "scans": 0, "splits": 0,
                      "flushes": 0, "moves": 0}

    # -- table & region management ------------------------------------------------

    def create_table(self, name: str) -> None:
        """Create a table with one region spanning the whole key space."""
        if name in self._tables:
            raise StorageError(f"table {name!r} already exists")
        region = Region(
            region_id=next(self._region_ids), table=name,
            start_key="", end_key=_END_KEY,
        )
        self._tables[name] = [region]
        self._assign(region)
        self.hdfs.write(region.hdfs_path(), b"")

    def has_table(self, name: str) -> bool:
        """True when the table exists."""
        return name in self._tables

    def regions_of(self, name: str) -> list[Region]:
        """Regions of a table in key order."""
        regions = self._tables.get(name)
        if regions is None:
            raise StorageError(f"no such table {name!r}")
        return sorted(regions, key=lambda r: r.start_key)

    def _assign(self, region: Region) -> RegionServer:
        # Least-loaded live server, round-robin tiebreak.  The rotation
        # must not involve ``hash(str)`` — it is salted per process and
        # would make region placement (and the split/move counters the
        # fleet reports) vary between same-seed runs.
        live = [s for s in self.servers.values() if s.alive]
        if not live:
            raise RegionError("no live region server to host the region")
        cursor = next(self._assign_cursor)
        ordered = sorted(
            enumerate(live),
            key=lambda pair: (pair[1].load,
                              (pair[0] + cursor) % len(live)),
        )
        server = ordered[0][1]
        server.regions.append(region)
        return server

    def server_of(self, region: Region) -> RegionServer:
        """The region server currently hosting *region*."""
        for server in self.servers.values():
            if region in server.regions:
                return server
        raise RegionError(
            f"region {region.region_id} of {region.table!r} is unassigned"
        )

    def _locate(self, table: str, row_key: str) -> Region:
        for region in self._tables.get(table, ()):
            if region.contains(row_key):
                return region
        raise RegionError(f"no region serves row {row_key!r} of {table!r}")

    # -- data path -----------------------------------------------------------------

    def put(self, table: str, row_key: str, family: str, qualifier: str,
            value: bytes) -> None:
        """Write one cell (WAL append + memstore + possible flush/split)."""
        with self.clock.trace("hbase.put", "hbase"):
            region = self._locate(table, row_key)
            server = self.server_of(region)
            server.ops += 1
            # WAL append to HDFS *before* acknowledging: a region-server
            # crash replays this log (see kill_server).
            timestamp = self.clock.now()
            region.wal.append(("put", row_key, family, qualifier, value,
                               timestamp))
            self.hdfs.write(region.wal_path(), region.encode_wal())
            self.clock.advance(self.network.transfer_seconds(len(value)),
                               component="pool")
            region.set_cell(row_key, family, qualifier,
                            Cell(value=value, timestamp=timestamp))
            region.memstore_bytes += len(value)
            self.stats["puts"] += 1
            if region.memstore_bytes >= self.memstore_flush_bytes:
                self._flush(region)
            if self._needs_split(region):
                self._split(region)

    def get(self, table: str, row_key: str) -> dict[tuple[str, str], bytes]:
        """Read one row (empty dict when absent)."""
        with self.clock.trace("hbase.get", "hbase"):
            region = self._locate(table, row_key)
            server = self.server_of(region)
            server.ops += 1
            self.stats["gets"] += 1
            row = region.rows.get(row_key, {})
            size = sum(len(cell.value) for cell in row.values())
            self.clock.advance(self.network.rpc_seconds(len(row_key), size),
                               component="pool")
            return {cq: cell.value for cq, cell in row.items()}

    def get_rows(self, table: str, row_keys: list[str],
                 ) -> dict[str, dict[tuple[str, str], bytes]]:
        """Batched multi-get (HBase's ``Table.get(List<Get>)``).

        One client round-trip for the whole batch: the RPC latency is
        charged once, the payload cost covers all returned cells.  The
        delta-routing reassembly path depends on this — fetching fifty
        chunk rows as fifty :meth:`get` calls would pay fifty network
        latencies and erase the bytes saved on the wire.  Absent rows
        are simply missing from the result.
        """
        if not row_keys:
            return {}
        with self.clock.trace("hbase.get_rows", "hbase"):
            out: dict[str, dict[tuple[str, str], bytes]] = {}
            total_size = 0
            key_bytes = 0
            for row_key in row_keys:
                region = self._locate(table, row_key)
                server = self.server_of(region)
                server.ops += 1
                self.stats["gets"] += 1
                row = region.rows.get(row_key)
                key_bytes += len(row_key)
                if row is None:
                    continue
                total_size += sum(len(cell.value) for cell in row.values())
                out[row_key] = {cq: cell.value for cq, cell in row.items()}
            self.clock.advance(
                self.network.rpc_seconds(key_bytes, total_size),
                component="pool",
            )
            return out

    def _tombstone(self, region: Region, entries: list[tuple]) -> None:
        """Append delete markers and persist the WAL once (group commit).

        Tombstones are memstore entries like any other write (real
        HBase flushes them with the rest of the memstore): without the
        pressure a delete-heavy sweep would grow the WAL without bound
        and every later write would pay to rewrite it.  The flush check
        is the caller's job, *after* applying the deletions in memory —
        flushing first would persist the doomed cells and clear the
        tombstones, resurrecting them on recovery.
        """
        region.wal.extend(entries)
        self.hdfs.write(region.wal_path(), region.encode_wal())
        for entry in entries:
            # Key bytes plus marker overhead; the payload is empty.
            region.memstore_bytes += len(entry[1]) + 24

    def _maybe_flush(self, region: Region) -> None:
        if region.memstore_bytes >= self.memstore_flush_bytes:
            self._flush(region)

    def delete_row(self, table: str, row_key: str) -> None:
        """Delete one row entirely (tombstoned in the WAL)."""
        self.delete_rows(table, [row_key])

    def delete_rows(self, table: str, row_keys: list[str]) -> None:
        """Delete many rows, one WAL group commit per region.

        The GC sweep retires hundreds of chunk rows at once; paying a
        full WAL rewrite per row would make collection cost more than
        the writes it reclaims.
        """
        now = self.clock.now()
        by_region: dict[int, tuple[Region, list[str]]] = {}
        for row_key in row_keys:
            region = self._locate(table, row_key)
            by_region.setdefault(region.region_id, (region, []))[1].append(
                row_key)
        for region, keys in by_region.values():
            self._tombstone(region, [("delete", key, "", "", b"", now)
                                     for key in keys])
            for key in keys:
                region.drop_row(key)
            self._maybe_flush(region)

    def delete_cell(self, table: str, row_key: str, family: str,
                    qualifier: str) -> bool:
        """Delete one cell (WAL-tombstoned); True when it existed."""
        return self.delete_cells(table, row_key, [(family, qualifier)]) == 1

    def delete_cells(self, table: str, row_key: str,
                     cells: list[tuple[str, str]]) -> int:
        """Delete several cells of one row; returns how many existed.

        The manifest-compaction path retires individual ``hist:<seq>``
        cells of a document row without touching its metadata cells, so
        whole-row deletion is not enough.  An empty row left behind is
        removed outright.  All tombstones share one WAL group commit.
        """
        region = self._locate(table, row_key)
        row = region.rows.get(row_key)
        if row is None:
            return 0
        present = [(f, q) for f, q in cells if (f, q) in row]
        if not present:
            return 0
        now = self.clock.now()
        self._tombstone(region, [("delcell", row_key, family, qualifier,
                                  b"", now)
                                 for family, qualifier in present])
        region.drop_cells(row_key, present)
        self._maybe_flush(region)
        return len(present)

    def scan(self, table: str, start_key: str = "",
             stop_key: str | None = None, limit: int | None = None,
             ) -> list[tuple[str, dict[tuple[str, str], bytes]]]:
        """Ordered scan over ``[start_key, stop_key)``."""
        stop = _END_KEY if stop_key is None else stop_key
        out: list[tuple[str, dict[tuple[str, str], bytes]]] = []
        self.stats["scans"] += 1
        with self.clock.trace("hbase.scan", "hbase"):
            for region in self.regions_of(table):
                if region.end_key <= start_key or region.start_key >= stop:
                    continue
                keys = region.sorted_keys()
                lo = bisect.bisect_left(keys, start_key)
                for key in keys[lo:]:
                    if key >= stop:
                        break
                    row = region.rows[key]
                    out.append(
                        (key, {cq: cell.value for cq, cell in row.items()})
                    )
                    if limit is not None and len(out) >= limit:
                        self.clock.advance(self.network.latency_seconds,
                                           component="pool")
                        return out
                self.clock.advance(self.network.latency_seconds,
                                   component="pool")
            return out

    # -- maintenance --------------------------------------------------------------------

    def _flush(self, region: Region) -> None:
        self.hdfs.write(region.hdfs_path(), region.encode_rows())
        region.memstore_bytes = 0
        region.wal.clear()
        region._wal_cache.clear()
        self.hdfs.write(region.wal_path(), b"")
        self.stats["flushes"] += 1

    def flush_table(self, name: str) -> int:
        """Flush every region of *name* with a pending WAL; returns how
        many flushed.

        The operator move after a bulk delete (HBase's ``flush`` shell
        command): persisting the memstore resets the per-region WAL, so
        subsequent writes stop paying to rewrite a log full of
        tombstones.  The lifecycle sweep runs this on the tables it
        swept — regions it never touched keep their WALs.
        """
        flushed = 0
        for region in self.regions_of(name):
            if region.wal:
                self._flush(region)
                flushed += 1
        return flushed

    def _needs_split(self, region: Region) -> bool:
        if region.row_count > self.split_threshold_rows:
            return True
        return (self.split_threshold_bytes is not None
                and region.data_bytes > self.split_threshold_bytes)

    def _split(self, region: Region) -> None:
        keys = region.sorted_keys()
        if len(keys) < 2:
            return
        midpoint = keys[len(keys) // 2]
        if midpoint in (region.start_key,):
            return
        sibling = Region(
            region_id=next(self._region_ids), table=region.table,
            start_key=midpoint, end_key=region.end_key,
        )
        region.end_key = midpoint
        region.hand_rows(sibling, keys[len(keys) // 2:])
        self._tables[region.table].append(sibling)
        self._assign(sibling)
        self._flush(region)
        self._flush(sibling)
        self.stats["splits"] += 1
        if self.auto_balance:
            self.stats["moves"] += self.balance()

    def kill_server(self, server_id: str) -> int:
        """Fail a region server and recover its regions elsewhere.

        Each hosted region is rebuilt from its HDFS store file plus a
        replay of its write-ahead log (both replicated), then assigned
        to a surviving server — no acknowledged write is lost.  Returns
        the number of WAL entries replayed.
        """
        server = self.servers.get(server_id)
        if server is None:
            raise RegionError(f"no such region server {server_id!r}")
        if not server.alive:
            raise RegionError(f"region server {server_id!r} already dead")
        server.alive = False
        orphans = server.regions
        server.regions = []
        if orphans and not any(s.alive for s in self.servers.values()):
            raise RegionError(
                "last region server died; table unavailable"
            )
        replayed = 0
        for region in orphans:
            # The in-memory state died with the server: rebuild from
            # the durable store file + WAL.
            replayed += region.restore(
                self._read_if_exists(region.hdfs_path()),
                self._read_if_exists(region.wal_path()),
            )
            self._assign(region)
        return replayed

    def _read_if_exists(self, path: str) -> bytes:
        return self.hdfs.read(path) if self.hdfs.exists(path) else b""

    def balance(self) -> int:
        """Move regions from overloaded to underloaded servers.

        Returns the number of regions moved.  The paper cites load
        balancing between workflow engines as a weakness [14]; here it
        is a pool-internal concern invisible to the security model.
        """
        moved = 0
        while True:
            ordered = sorted(
                (s for s in self.servers.values() if s.alive),
                key=lambda s: s.load,
            )
            if len(ordered) < 2:
                break
            lightest, heaviest = ordered[0], ordered[-1]
            if not heaviest.regions:
                break
            candidate = min(heaviest.regions, key=lambda r: r.row_count)
            if (heaviest.load - lightest.load
                    <= candidate.row_count or candidate.row_count == 0):
                break
            heaviest.regions.remove(candidate)
            lightest.regions.append(candidate)
            moved += 1
        return moved

    # -- metrics -----------------------------------------------------------------------

    def total_rows(self, table: str) -> int:
        """Row count of a table across all regions."""
        return sum(r.row_count for r in self.regions_of(table))

    def total_bytes(self, table: str) -> int:
        """Stored cell-value bytes of a table across all regions."""
        return sum(r.data_bytes for r in self.regions_of(table))

    def region_count(self, table: str) -> int:
        """Number of regions a table is split into."""
        return len(self.regions_of(table))

    def server_loads(self) -> dict[str, int]:
        """Rows hosted per region server (the balancing metric)."""
        return {server_id: server.load
                for server_id, server in sorted(self.servers.items())}


class CerChunkStore:
    """Content-addressed chunk storage on top of :class:`SimHBase`.

    One table, one row per distinct chunk, keyed by the chunk's SHA-256
    hex — the natural dedup: a CER chunk shared by fifty hop versions
    (or a definition chunk shared by a thousand fleet instances of the
    same workflow) is written and stored exactly once.  Row keys are
    uniformly distributed (they are hashes), so regions split evenly —
    the HBase design the paper's §4.2 storage argument relies on.

    The store keeps an in-memory digest index (the moral equivalent of
    HBase block-cache bloom filters) so duplicate puts are suppressed
    without a storage round-trip.

    **Lifecycle** (see ``docs/STORAGE.md``): chunks are reference-
    counted by the manifests that name them — the pool :meth:`pin`\\ s a
    manifest's digests when it stores a version and :meth:`unpin`\\ s
    them when compaction or retirement drops that manifest.  A
    :meth:`gc` sweep deletes zero-ref rows, keeping hot storage
    O(live instances) instead of O(total history).  The ``stats`` dict
    keeps its historical four keys (fleet-report goldens pin them);
    lifecycle counters live in the separate ``lifecycle`` dict.
    """

    TABLE = "dra4wfms_chunks"

    def __init__(self, hbase: SimHBase) -> None:
        self.hbase = hbase
        if not hbase.has_table(self.TABLE):
            hbase.create_table(self.TABLE)
        self._known: set[str] = set()
        #: digest → stored payload length (needed to keep byte counters
        #: exact when GC deletes a row without re-reading it).
        self._sizes: dict[str, int] = {}
        #: digest → number of live manifest references.
        self._refs: dict[str, int] = {}
        self.stats = {
            "unique_chunks": 0,
            "unique_bytes": 0,
            "dedup_hits": 0,
            "logical_bytes": 0,
        }
        self.lifecycle = {
            "pins": 0,
            "unpins": 0,
            "gc_runs": 0,
            "gc_chunks_deleted": 0,
            "gc_bytes_reclaimed": 0,
        }

    def __contains__(self, digest: str) -> bool:
        return digest in self._known

    def put_chunk(self, digest: str, data: bytes) -> bool:
        """Store one chunk; returns True when it was actually written."""
        self.stats["logical_bytes"] += len(data)
        if digest in self._known:
            self.stats["dedup_hits"] += 1
            return False
        self.hbase.put(self.TABLE, digest, "c", "b", data)
        self._known.add(digest)
        self._sizes[digest] = len(data)
        self.stats["unique_chunks"] += 1
        self.stats["unique_bytes"] += len(data)
        return True

    def put_chunks(self, chunks: dict[str, bytes]) -> int:
        """Store many chunks; returns how many were new."""
        return sum(self.put_chunk(d, data) for d, data in chunks.items())

    def get_chunks(self, digests: list[str]) -> dict[str, bytes]:
        """Fetch chunk payloads in one batched read.

        Missing digests are absent from the result (the caller decides
        whether that is a fallback condition or an error).
        """
        wanted = list(dict.fromkeys(digests))
        rows = self.hbase.get_rows(self.TABLE, wanted)
        return {digest: cells[("c", "b")] for digest, cells in rows.items()
                if ("c", "b") in cells}

    # -- lifecycle: refcounts + garbage collection ---------------------------

    def pin(self, digests) -> None:
        """Take one reference per digest (a stored manifest names them)."""
        for digest in digests:
            self._refs[digest] = self._refs.get(digest, 0) + 1
            self.lifecycle["pins"] += 1

    def unpin(self, digests) -> None:
        """Release one reference per digest (that manifest is gone).

        Dropping a reference that was never taken is a bookkeeping bug
        that would let :meth:`gc` delete a chunk some live manifest
        still names — refuse loudly instead of corrupting the store.
        """
        for digest in digests:
            refs = self._refs.get(digest, 0)
            if refs <= 0:
                raise StorageError(
                    f"unpin of chunk {digest[:12]}… without a matching "
                    f"pin (refcount underflow)"
                )
            if refs == 1:
                del self._refs[digest]
            else:
                self._refs[digest] = refs - 1
            self.lifecycle["unpins"] += 1

    def refcount(self, digest: str) -> int:
        """Live manifest references to one chunk."""
        return self._refs.get(digest, 0)

    def _delete_chunk_rows(self, digests: list[str]) -> None:
        """Remove the chunks' durable rows in one batch — subclasses
        fan the batch out over their shard tables."""
        self.hbase.delete_rows(self.TABLE, digests)

    def flush(self) -> int:
        """Flush this store's table(s) — the post-GC WAL reset."""
        return self.hbase.flush_table(self.TABLE)

    def gc(self) -> tuple[int, int]:
        """Delete every stored chunk with zero references.

        Returns ``(chunks_deleted, bytes_reclaimed)``.  A pinned chunk
        is never touched, so a digest named by any live manifest cannot
        be collected; byte counters shrink so ``unique_bytes`` tracks
        the *hot* store, and a later re-put of the same digest is a
        fresh write, not a dedup hit.
        """
        with self.hbase.clock.trace("chunks.gc", "pool"):
            dead = sorted(d for d in self._known
                          if self._refs.get(d, 0) == 0)
            reclaimed = 0
            self._delete_chunk_rows(dead)
            for digest in dead:
                self._known.discard(digest)
                size = self._sizes.pop(digest, 0)
                reclaimed += size
                self.stats["unique_chunks"] -= 1
                self.stats["unique_bytes"] -= size
            self.lifecycle["gc_runs"] += 1
            self.lifecycle["gc_chunks_deleted"] += len(dead)
            self.lifecycle["gc_bytes_reclaimed"] += reclaimed
            return len(dead), reclaimed

    @property
    def dedup_ratio(self) -> float:
        """Logical bytes stored per physical byte (≥ 1.0)."""
        if self.stats["unique_bytes"] == 0:
            return 1.0
        return self.stats["logical_bytes"] / self.stats["unique_bytes"]
