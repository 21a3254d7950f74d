"""Simulated HBase: a distributed, column-oriented table store.

Reproduces the properties §4.2 relies on — "a distributed
column-oriented database built on top of HDFS … the optimal Hadoop
application … when real-time read/write random accesses to very large
datasets are required":

* tables of rows sorted by key, with ``(column family, qualifier)``
  cells;
* rows partitioned into **regions** by key range, hosted on **region
  servers**;
* a write-ahead log per region, one line appended to the simulated
  HDFS per edit before the edit is acknowledged; replay after a
  region-server crash ignores a torn last line;
* memstore flushes to HDFS store files;
* automatic **region splits** once a region's stored bytes exceed
  ``split_threshold_bytes`` (4 MiB; HBase's ``hbase.hregion.max.
  filesize``) or its rows ``split_threshold_rows``, so a memstore flush
  rewrites one bounded region however large the table grows, and
  round-robin assignment of new regions to servers;
* get/put/scan costs charged to the shared sim clock.

On top of it, :class:`CerChunkStore` keeps the delta pool's CER
chunks in one row per process instance: in one table, or on *R* of
several shard tables with digest-checked read-repair.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
from dataclasses import dataclass, field

from ..errors import CloudError, RegionError, StorageError
from .hdfs import SimHdfs
from .network import LAN, NetworkModel
from .sharding import HashRing
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
    #: ("put", row_key, family, qualifier, value, timestamp), or the
    #: ("delete", row_key, "", "", b"", timestamp) and ("delcell",
    #: row_key, family, qualifier, b"", timestamp) tombstones.
    wal: list[tuple[str, str, str, str, bytes, float]] = field(
        default_factory=list)
    #: How many entries of :attr:`wal` the log file already holds;
    #: :meth:`encode_wal` encodes only the rest.  Reset with ``wal``.
    _wal_synced: int = field(default=0, repr=False)
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
        """Serialize the WAL entries the log file does not hold yet,
        and count them as held: the caller appends the result.

        Each entry is one line: ``json.dumps`` of its six fields (the
        value in base64) and ``b"\\n"``.  ``json.dumps`` escapes every
        control and non-ASCII character, so no entry contains a raw
        newline and the log is self-delimiting.  Base64 never needs
        escaping, so the value is spliced in as it is, between a
        ``json.dumps`` of the four fields before it and one of the
        timestamp: the same bytes, without a JSON pass over the value.
        """
        import base64
        import json

        pending = self.wal[self._wal_synced:]
        self._wal_synced = len(self.wal)
        parts: list[bytes] = []
        for op, row_key, family, qualifier, value, timestamp in pending:
            head = json.dumps([op, row_key, family, qualifier])
            parts += (head[:-1].encode("ascii"), b', "',
                      base64.b64encode(value),
                      f'", {json.dumps(timestamp)}]\n'.encode("ascii"))
        return b"".join(parts)

    def replay_wal(self, data: bytes) -> int:
        """Apply a log's complete entries on top of the recovered store
        rows; returns how many were applied.

        Bytes after the last newline are a torn tail, an append a crash
        cut short and so never acknowledged, and are ignored.  A
        complete line that does not decode raises :class:`StorageError`:
        that is corruption, and skipping it would lose an acknowledged
        write.
        """
        import base64
        import json

        *lines, _torn_tail = data.split(b"\n")
        for number, line in enumerate(lines, 1):
            try:
                op, row_key, family, qualifier, value_b64, timestamp = \
                    json.loads(line)
                value = base64.b64decode(value_b64, validate=True)
                if op not in ("put", "delete", "delcell"):
                    raise ValueError(f"unknown operation {op!r}")
            except (TypeError, ValueError) as exc:
                raise StorageError(
                    f"corrupt entry {number} in {self.wal_path()}: {exc}"
                ) from exc
            if op == "put":
                self.set_cell(row_key, family, qualifier,
                              Cell(value=value, timestamp=timestamp))
            elif op == "delete":
                self.drop_row(row_key)
            else:
                self.drop_cells(row_key, [(family, qualifier)])
        return len(lines)


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
                 split_threshold_bytes: int = 4 << 20,
                 auto_balance: bool = True,
                 memstore_flush_bytes: int = 1 << 20) -> None:
        if region_servers < 1:
            raise StorageError("need at least one region server")
        self.clock = clock or SimClock()
        self.hdfs = hdfs or SimHdfs(clock=self.clock, network=network)
        self.network = network
        self.split_threshold_rows = split_threshold_rows
        #: A region also splits once its stored cell bytes exceed this,
        #: the real HBase trigger (``hbase.hregion.max.filesize``): row
        #: count alone under-splits a table whose rows grow (the
        #: full-routing documents table, one row per instance holding
        #: every version), and each flush rewrites its region's whole
        #: store file.  4 MiB, four memstore flushes, came from a sweep
        #: over perfbench's ``fig9``: flush time stops tracking the pool
        #: there, while a smaller region splits on nearly every flush.
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
        """The region server currently hosting *region*.

        Compares identities: regions are distinct objects, and comparing
        them as dataclasses would build a tuple of every field for each
        hosted region.
        """
        for server in self.servers.values():
            for hosted in server.regions:
                if hosted is region:
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
            self.hdfs.append(region.wal_path(), region.encode_wal())
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

    def get(self, table: str, row_key: str,
            columns: list[tuple[str, str]] | None = None,
            ) -> dict[tuple[str, str], bytes]:
        """Read one row (empty dict when absent).

        *columns*, ``(family, qualifier)`` pairs, restricts the read to
        those cells (HBase's ``Get.addColumn``): the request carries
        their names and only their bytes come back.
        """
        with self.clock.trace("hbase.get", "hbase"):
            region = self._locate(table, row_key)
            server = self.server_of(region)
            server.ops += 1
            self.stats["gets"] += 1
            row = region.rows.get(row_key, {})
            request = len(row_key)
            if columns is not None:
                request += sum(len(f) + len(q) for f, q in columns)
                row = {cq: row[cq] for cq in columns if cq in row}
            size = sum(len(cell.value) for cell in row.values())
            self.clock.advance(self.network.rpc_seconds(request, size),
                               component="pool")
            return {cq: cell.value for cq, cell in row.items()}

    def get_rows(self, table: str, row_keys: list[str],
                 ) -> dict[str, dict[tuple[str, str], bytes]]:
        """Batched multi-get (HBase's ``Table.get(List<Get>)``).

        One client round-trip for the whole batch: the RPC latency is
        charged once, the payload cost covers all returned cells.
        Absent rows are simply missing from the result.
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
        """Append delete markers to the WAL in one append (group commit).

        Tombstones are memstore entries like any other write (real
        HBase flushes them with the rest of the memstore): without the
        pressure a delete-heavy sweep would grow the WAL, and the
        replay after a crash, without bound.  The flush check is the
        caller's job, *after* applying the deletions in memory —
        flushing first would persist the doomed cells and clear the
        tombstones, resurrecting them on recovery.
        """
        region.wal.extend(entries)
        self.hdfs.append(region.wal_path(), region.encode_wal())
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
        """Delete many rows, one WAL group commit per region: one
        append per region, not per row, pays one round trip to the
        log's replicas for the whole batch."""
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

    def delete_cells(self, table: str, row_key: str,
                     cells: list[tuple[str, str]]) -> int:
        """Delete several cells of one row; returns how many existed.

        Compaction retires individual ``hist:<seq>`` cells of a
        document row without touching its metadata cells, and chunk
        cells of an instance's chunk row, so whole-row deletion is not
        enough.  An empty row left behind is removed outright.  All
        tombstones share one WAL group commit.
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
        region._wal_synced = 0
        self.hdfs.write(region.wal_path(), b"")
        self.stats["flushes"] += 1

    def flush_table(self, name: str) -> int:
        """Flush every region of *name* with a pending WAL; returns how
        many flushed.

        The operator move after a bulk delete (HBase's ``flush`` shell
        command): persisting the memstore resets the per-region WAL, so
        a region-server crash no longer replays a log full of
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
        return (region.row_count > self.split_threshold_rows
                or region.data_bytes > self.split_threshold_bytes)

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
        replay of its write-ahead log (both replicated), flushed when
        the log held anything (as HBase flushes recovered edits when it
        reopens a region, so no later append follows a torn tail), and
        assigned to a surviving server — no acknowledged write is lost.
        Returns the number of WAL entries replayed.
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
            store = self._read_if_exists(region.hdfs_path())
            wal = self._read_if_exists(region.wal_path())
            replayed += region.restore(store, wal)
            if wal:
                self._flush(region)
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
    """Each process instance's delta chunks, on top of :class:`SimHBase`.

    An instance's chunks live in one row keyed by its process id, one
    cell per chunk: family ``c``, qualifier the chunk's SHA-256 hex.
    The row belongs to its instance.  Chunks are not shared across
    instances, because the designer signs each instance's definition
    and a workflow's instances share only a few constant separators.
    HBase never splits inside a row, so region splits and shard
    placement follow the seed-derived process id, not ciphertext
    digests.  A read is a column-restricted get (HBase's
    ``Get.addColumn``) of the chunks it names, charged for those cells
    only.

    The store keeps no index of what it holds.  The pool decides what
    to write (the chunks its instance's latest manifest does not name
    yet) and what to delete (the chunks that dropped manifests name and
    no kept manifest names), both from durable manifests, so a pool
    rebuilt over the same HBase manages them as the original would
    (``docs/STORAGE.md``).

    **Shards.**  One shard (the default) is the table :attr:`TABLE`.
    More shards hold each instance's row on *replicas* of them, chosen
    by consistent hash of its process id; reads re-hash every payload,
    so a corrupt replica counts as missing, and **read-repair** copies
    the first intact one back to the shards that missed.  A chunk
    failing its SHA-256 is never served, nor repaired *from*.

    :attr:`stats` counts writes (``logical_bytes`` presented,
    ``dedup_hits`` skipped because the instance held them already) and
    reads what the tables hold now (``unique_chunks`` and
    ``unique_bytes``, one copy of each); more shards add the replica
    counters.
    """

    TABLE = "dra4wfms_chunks"
    #: Virtual nodes per shard on the placement ring.
    _RING_VNODES = 64

    def __init__(self, hbase: SimHBase, shards: int = 1,
                 replicas: int = 1) -> None:
        if shards < 1:
            raise StorageError("need at least one chunk shard")
        if not isinstance(replicas, int) or isinstance(replicas, bool):
            raise StorageError(
                f"chunk replication factor must be an integer, "
                f"got {replicas!r}"
            )
        if replicas < 1:
            raise StorageError("chunk replication factor must be >= 1")
        if replicas > shards:
            raise StorageError(
                f"cannot keep {replicas} replicas on {shards} shard(s); "
                f"add region servers or lower the factor"
            )
        self.hbase = hbase
        self.replicas = replicas
        self.shard_ids = [f"shard{i}" for i in range(shards)]
        #: Process id → shards; ``None`` on one shard, which holds all.
        self.ring = (HashRing(self.shard_ids, vnodes=self._RING_VNODES)
                     if shards > 1 else None)
        for shard_id in self.shard_ids:
            table = self._table(shard_id)
            if not hbase.has_table(table):
                hbase.create_table(table)
        self._counts = {"dedup_hits": 0, "logical_bytes": 0}
        if self.ring is not None:
            self._counts.update(replicas=replicas, replica_fallbacks=0,
                                read_repairs=0, corrupt_replicas=0)

    def _table(self, shard_id: str) -> str:
        if self.ring is None:
            return self.TABLE
        return f"{self.TABLE}_shard-{shard_id}"

    def replica_shards(self, process_id: str) -> list[str]:
        """The *replicas* shard ids holding an instance's chunks,
        primary first."""
        if self.ring is None:
            return self.shard_ids
        return self.ring.nodes_for(process_id, self.replicas)

    @property
    def stats(self) -> dict[str, int]:
        """The write counters, plus the chunk cells and bytes the
        tables hold now, counting each instance's primary copy."""
        cells = size = 0
        for shard_id in self.shard_ids:
            for region in self.hbase.regions_of(self._table(shard_id)):
                for process_id, row in region.rows.items():
                    if self.replica_shards(process_id)[0] == shard_id:
                        cells += len(row)
                        size += sum(len(cell.value) for cell in row.values())
        return {**self._counts, "unique_chunks": cells,
                "unique_bytes": size}

    # -- writes and deletes ---------------------------------------------------

    def put_chunks(self, process_id: str, chunks: dict[str, bytes],
                   held: set[str] | frozenset[str] = frozenset()) -> int:
        """Write an instance's chunks on its replica set, except those
        in *held*; returns how many were written."""
        new = {digest: data for digest, data in chunks.items()
               if digest not in held}
        self._counts["logical_bytes"] += sum(map(len, chunks.values()))
        self._counts["dedup_hits"] += len(chunks) - len(new)
        for shard_id in self.replica_shards(process_id):
            table = self._table(shard_id)
            for digest, data in new.items():
                self.hbase.put(table, process_id, "c", digest, data)
        return len(new)

    def delete_chunks(self, process_id: str,
                      digests: list[str] | None = None) -> None:
        """Delete an instance's chunk cells from every replica; with
        no *digests*, its whole row."""
        for shard_id in self.replica_shards(process_id):
            table = self._table(shard_id)
            if digests is None:
                self.hbase.delete_row(table, process_id)
            else:
                self.hbase.delete_cells(table, process_id,
                                        [("c", d) for d in digests])

    def flush(self) -> int:
        """Flush every shard table (the WAL reset after bulk deletes)."""
        return sum(self.hbase.flush_table(self._table(shard_id))
                   for shard_id in self.shard_ids)

    # -- reads + repair -------------------------------------------------------

    def get_chunks(self, process_id: str,
                   digests: list[str]) -> dict[str, bytes]:
        """Fetch chunk payloads of one instance: one column-restricted
        get of its primary copy.

        On more than one shard, only digests whose primary copy is
        missing *or corrupt* are read from the replicas after it.
        Missing digests are absent from the result (the caller decides
        whether that is a fallback condition or an error).
        """
        wanted = list(dict.fromkeys(digests))
        if not wanted:
            return {}
        primary, *others = self.replica_shards(process_id)
        found = self._read(primary, process_id, wanted)
        if self.ring is None:
            return found
        out: dict[str, bytes] = {}
        degraded: list[str] = []
        for digest in wanted:
            data = self._intact(digest, found.get(digest))
            if data is None:
                degraded.append(digest)
            else:
                out[digest] = data
        if degraded:
            out.update(self._read_with_repair(process_id, degraded,
                                              primary, others))
        return out

    def _read(self, shard_id: str, process_id: str,
              digests: list[str]) -> dict[str, bytes]:
        cells = self.hbase.get(self._table(shard_id), process_id,
                               [("c", digest) for digest in digests])
        return {digest: data for (_, digest), data in cells.items()}

    def _intact(self, digest: str, data: bytes | None) -> bytes | None:
        """A replica's payload, or None when missing or failing its digest."""
        if data is not None and hashlib.sha256(data).hexdigest() != digest:
            self._counts["corrupt_replicas"] += 1
            return None
        return data

    def _read_with_repair(self, process_id: str, degraded: list[str],
                          primary: str,
                          others: list[str]) -> dict[str, bytes]:
        """Read the *degraded* digests once from each replica after the
        primary, whose read came back missing or corrupt; heal every
        shard that missed."""
        with self.hbase.clock.trace("chunks.read_repair", "hbase"):
            healthy: dict[str, bytes] = {}
            missed = {digest: [primary] for digest in degraded}
            for shard_id in others:
                found = self._read(shard_id, process_id, degraded)
                for digest in degraded:
                    data = self._intact(digest, found.get(digest))
                    if data is None:
                        missed[digest].append(shard_id)
                    elif digest not in healthy:
                        healthy[digest] = data
                        self._counts["replica_fallbacks"] += 1
            for digest, data in healthy.items():
                for shard_id in missed[digest]:
                    self.hbase.put(self._table(shard_id), process_id, "c",
                                   digest, data)
                    self._counts["read_repairs"] += 1
            return healthy

    def damage_replica(self, process_id: str, digest: str,
                       shard_index: int = 0, corrupt: bool = False) -> str:
        """Lose (or bit-flip) one replica of an instance's chunk —
        failure-injection hook for tests and the adversarial harness.
        Returns the shard id that was damaged."""
        shards = self.replica_shards(process_id)
        try:
            shard_id = shards[shard_index]
        except IndexError:
            raise CloudError(
                f"chunk has only {len(shards)} replicas"
            ) from None
        table = self._table(shard_id)
        if corrupt:
            self.hbase.put(table, process_id, "c", digest,
                           b"\x00corrupt\x00")
        else:
            self.hbase.delete_cells(table, process_id, [("c", digest)])
        return shard_id

    @property
    def dedup_ratio(self) -> float:
        """Logical bytes stored per physical *unique* byte (≥ 1.0)."""
        stats = self.stats
        if stats["unique_bytes"] == 0:
            return 1.0
        return stats["logical_bytes"] / stats["unique_bytes"]
