"""Simulated HBase: tables, regions, splits, balancing."""

from __future__ import annotations

import base64
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cloud.hbase import _END_KEY, Cell, Region, SimHBase
from repro.errors import RegionError, StorageError


@pytest.fixture()
def hbase():
    cluster = SimHBase(region_servers=3, split_threshold_rows=8)
    cluster.create_table("t")
    return cluster


class TestTableOps:
    def test_create_duplicate_rejected(self, hbase):
        with pytest.raises(StorageError):
            hbase.create_table("t")

    def test_unknown_table(self, hbase):
        with pytest.raises(StorageError):
            hbase.regions_of("ghost")
        with pytest.raises(RegionError):
            hbase.get("ghost", "row")

    def test_put_get(self, hbase):
        hbase.put("t", "row1", "cf", "q", b"value")
        row = hbase.get("t", "row1")
        assert row == {("cf", "q"): b"value"}

    def test_get_missing_row(self, hbase):
        assert hbase.get("t", "ghost") == {}

    def test_multiple_cells_per_row(self, hbase):
        hbase.put("t", "r", "cf", "a", b"1")
        hbase.put("t", "r", "cf", "b", b"2")
        hbase.put("t", "r", "other", "a", b"3")
        assert len(hbase.get("t", "r")) == 3

    def test_overwrite_cell(self, hbase):
        hbase.put("t", "r", "cf", "q", b"old")
        hbase.put("t", "r", "cf", "q", b"new")
        assert hbase.get("t", "r")[("cf", "q")] == b"new"

    def test_delete_row(self, hbase):
        hbase.put("t", "r", "cf", "q", b"v")
        hbase.delete_row("t", "r")
        assert hbase.get("t", "r") == {}


class TestScan:
    @pytest.fixture()
    def populated(self, hbase):
        for i in range(20):
            hbase.put("t", f"key{i:02d}", "cf", "q", str(i).encode())
        return hbase

    def test_full_scan_ordered(self, populated):
        rows = populated.scan("t")
        assert [k for k, _ in rows] == [f"key{i:02d}" for i in range(20)]

    def test_range_scan(self, populated):
        rows = populated.scan("t", start_key="key05", stop_key="key10")
        assert [k for k, _ in rows] == \
            ["key05", "key06", "key07", "key08", "key09"]

    def test_limit(self, populated):
        assert len(populated.scan("t", limit=7)) == 7

    def test_scan_crosses_regions(self, populated):
        # 20 rows with threshold 8 forces at least one split.
        assert populated.region_count("t") >= 2
        assert len(populated.scan("t")) == 20


class TestRegions:
    def test_auto_split(self, hbase):
        for i in range(30):
            hbase.put("t", f"r{i:03d}", "cf", "q", b"v")
        assert hbase.region_count("t") >= 3
        assert hbase.stats["splits"] >= 2
        assert hbase.total_rows("t") == 30
        # Every row still reachable after splits.
        for i in range(30):
            assert hbase.get("t", f"r{i:03d}") != {}

    def test_region_ranges_partition_keyspace(self, hbase):
        for i in range(40):
            hbase.put("t", f"r{i:03d}", "cf", "q", b"v")
        regions = hbase.regions_of("t")
        assert regions[0].start_key == ""
        for left, right in zip(regions, regions[1:]):
            assert left.end_key == right.start_key

    def test_regions_assigned_to_servers(self, hbase):
        for i in range(40):
            hbase.put("t", f"r{i:03d}", "cf", "q", b"v")
        hosted = sum(len(s.regions) for s in hbase.servers.values())
        assert hosted == hbase.region_count("t") + 0  # only table "t"

    def test_balance_moves_regions(self):
        cluster = SimHBase(region_servers=2, split_threshold_rows=4)
        cluster.create_table("t")
        for i in range(40):
            cluster.put("t", f"r{i:03d}", "cf", "q", b"v")
        # Force imbalance: pile everything on one server.
        all_regions = [r for s in cluster.servers.values()
                       for r in s.regions]
        for server in cluster.servers.values():
            server.regions = []
        first = next(iter(cluster.servers.values()))
        first.regions = all_regions
        moved = cluster.balance()
        assert moved > 0
        loads = [s.load for s in cluster.servers.values()]
        assert max(loads) - min(loads) <= max(r.row_count
                                              for r in all_regions)

    def test_store_files_written_to_hdfs(self, hbase):
        for i in range(30):
            hbase.put("t", f"r{i:03d}", "cf", "q", b"v")
        assert hbase.hdfs.list_files("/hbase/t/")


def test_needs_a_region_server():
    with pytest.raises(StorageError):
        SimHBase(region_servers=0)


class TestRegionServerFailure:
    def test_unflushed_writes_survive_via_wal(self):
        cluster = SimHBase(region_servers=2, split_threshold_rows=1000)
        cluster.create_table("t")
        for i in range(12):
            cluster.put("t", f"r{i:02d}", "cf", "q", f"v{i}".encode())
        # Nothing flushed yet (huge memstore threshold): the rows live
        # only in memory + WAL.
        region = cluster.regions_of("t")[0]
        victim = cluster.server_of(region).server_id
        replayed = cluster.kill_server(victim)
        assert replayed == 12
        for i in range(12):
            assert cluster.get("t", f"r{i:02d}") == \
                {("cf", "q"): f"v{i}".encode()}

    def test_deletes_survive_recovery(self):
        cluster = SimHBase(region_servers=2, split_threshold_rows=1000)
        cluster.create_table("t")
        cluster.put("t", "keep", "cf", "q", b"1")
        cluster.put("t", "drop", "cf", "q", b"2")
        cluster.delete_row("t", "drop")
        victim = cluster.server_of(cluster.regions_of("t")[0]).server_id
        cluster.kill_server(victim)
        assert cluster.get("t", "keep") != {}
        assert cluster.get("t", "drop") == {}

    def test_flushed_plus_wal_recovery(self):
        cluster = SimHBase(region_servers=3, split_threshold_rows=1000,
                           memstore_flush_bytes=1)  # flush every put
        cluster.create_table("t")
        cluster.put("t", "a", "cf", "q", b"flushed")
        cluster.memstore_flush_bytes = 1 << 30  # stop flushing
        cluster.put("t", "b", "cf", "q", b"wal-only")
        victim = cluster.server_of(cluster.regions_of("t")[0]).server_id
        cluster.kill_server(victim)
        assert cluster.get("t", "a")[("cf", "q")] == b"flushed"
        assert cluster.get("t", "b")[("cf", "q")] == b"wal-only"

    def test_regions_reassigned_to_survivors(self):
        cluster = SimHBase(region_servers=3, split_threshold_rows=4)
        cluster.create_table("t")
        for i in range(20):
            cluster.put("t", f"r{i:02d}", "cf", "q", b"v")
        cluster.kill_server("rs0")
        for region in cluster.regions_of("t"):
            host = cluster.server_of(region)
            assert host.alive and host.server_id != "rs0"
        assert cluster.total_rows("t") == 20

    def test_dead_server_gets_no_new_regions(self):
        cluster = SimHBase(region_servers=2, split_threshold_rows=4)
        cluster.create_table("t")
        cluster.kill_server("rs0")
        for i in range(20):
            cluster.put("t", f"r{i:02d}", "cf", "q", b"v")
        assert all(not r for r in (cluster.servers["rs0"].regions,))

    def test_last_server_death_is_fatal(self):
        cluster = SimHBase(region_servers=1)
        cluster.create_table("t")
        cluster.put("t", "r", "cf", "q", b"v")
        with pytest.raises(RegionError, match="last region server"):
            cluster.kill_server("rs0")

    def test_kill_unknown_or_dead(self):
        cluster = SimHBase(region_servers=2)
        with pytest.raises(RegionError):
            cluster.kill_server("rs9")
        cluster.kill_server("rs0")
        with pytest.raises(RegionError, match="already dead"):
            cluster.kill_server("rs0")

    def test_combined_datanode_and_regionserver_failure(self):
        # The full §1 durability story: lose a storage node AND a
        # serving node; acknowledged data still readable.
        cluster = SimHBase(region_servers=2, split_threshold_rows=1000)
        cluster.create_table("t")
        for i in range(8):
            cluster.put("t", f"r{i}", "cf", "q", str(i).encode())
        cluster.hdfs.kill_node("dn0")
        victim = cluster.server_of(cluster.regions_of("t")[0]).server_id
        cluster.kill_server(victim)
        for i in range(8):
            assert cluster.get("t", f"r{i}")[("cf", "q")] == str(i).encode()

    def test_balance_skips_dead_servers(self):
        cluster = SimHBase(region_servers=3, split_threshold_rows=4)
        cluster.create_table("t")
        for i in range(30):
            cluster.put("t", f"r{i:02d}", "cf", "q", b"v")
        cluster.kill_server("rs0")
        cluster.balance()
        assert cluster.servers["rs0"].regions == []
        assert cluster.total_rows("t") == 30


class TestRowCodec:
    """Store-file serialisation: encode_rows/decode_rows round-trips."""

    def _region(self):
        from repro.cloud.hbase import _END_KEY, Region
        return Region(region_id=99, table="t",
                      start_key="", end_key=_END_KEY)

    def test_round_trip(self):
        from repro.cloud.hbase import Cell, Region
        region = self._region()
        region.rows = {
            "r1": {("cf", "a"): Cell(b"alpha", 1.5),
                   ("cf", "b"): Cell(b"\x00\xffbinary", 2.0)},
            "r2": {("other", "q"): Cell(b"", 0.0)},
        }
        decoded = Region.decode_rows(region.encode_rows())
        assert decoded == region.rows

    def test_empty_region_round_trip(self):
        from repro.cloud.hbase import Region
        region = self._region()
        assert Region.decode_rows(region.encode_rows()) == {}
        assert Region.decode_rows(b"") == {}

    def test_unicode_row_keys_and_qualifiers(self):
        from repro.cloud.hbase import Cell, Region
        region = self._region()
        region.rows = {
            "région-clé ☃": {
                ("famille", "données"): Cell(b"payload", 3.25),
            },
            "中文键": {("cf", "q"): Cell(b"v", 1.0)},
        }
        decoded = Region.decode_rows(region.encode_rows())
        assert decoded == region.rows

    def test_timestamps_survive(self):
        from repro.cloud.hbase import Cell, Region
        region = self._region()
        region.rows = {"r": {("cf", "q"): Cell(b"v", 123.456789)}}
        decoded = Region.decode_rows(region.encode_rows())
        assert decoded["r"][("cf", "q")].timestamp == 123.456789


class TestWalCodec:
    """Write-ahead-log serialisation: encode_wal/replay_wal."""

    def _region(self):
        from repro.cloud.hbase import _END_KEY, Region
        return Region(region_id=99, table="t",
                      start_key="", end_key=_END_KEY)

    def test_round_trip_applies_puts(self):
        region = self._region()
        region.wal = [
            ("put", "r1", "cf", "q", b"one", 1.0),
            ("put", "r2", "cf", "q", b"two", 2.0),
            ("put", "r1", "cf", "q", b"one-v2", 3.0),
        ]
        encoded = region.encode_wal()
        fresh = self._region()
        applied = fresh.replay_wal(encoded)
        assert applied == 3
        assert fresh.rows["r1"][("cf", "q")].value == b"one-v2"
        assert fresh.rows["r2"][("cf", "q")].value == b"two"

    def test_tombstones_drop_rows(self):
        region = self._region()
        region.wal = [
            ("put", "r1", "cf", "q", b"v", 1.0),
            ("delete", "r1", "", "", b"", 2.0),
        ]
        fresh = self._region()
        fresh.replay_wal(region.encode_wal())
        assert "r1" not in fresh.rows

    def test_empty_wal(self):
        region = self._region()
        assert region.encode_wal() == b"[]"
        assert self._region().replay_wal(b"") == 0

    def test_unicode_wal_entries(self):
        region = self._region()
        region.wal = [("put", "clé ☃", "cf", "données",
                       b"\x00\x01\xfe", 1.0)]
        fresh = self._region()
        fresh.replay_wal(region.encode_wal())
        value = fresh.rows["clé ☃"][("cf", "données")]
        assert value.value == b"\x00\x01\xfe"


class TestByteSplit:
    """Region auto-split on stored-byte threshold + auto-rebalance."""

    def test_byte_threshold_splits_fat_rows(self):
        # 16 rows of 1 KiB each never trips a 256-row threshold, but
        # crosses 8 KiB of stored bytes and must split anyway.
        cluster = SimHBase(region_servers=2,
                           split_threshold_rows=256,
                           split_threshold_bytes=8 * 1024)
        cluster.create_table("t")
        for i in range(16):
            cluster.put("t", f"r{i:02d}", "cf", "q", b"x" * 1024)
        assert cluster.stats["splits"] >= 1
        assert cluster.region_count("t") >= 2

    def test_no_byte_threshold_no_byte_split(self):
        cluster = SimHBase(region_servers=2, split_threshold_rows=256)
        cluster.create_table("t")
        for i in range(16):
            cluster.put("t", f"r{i:02d}", "cf", "q", b"x" * 1024)
        assert cluster.stats["splits"] == 0

    def test_data_bytes_tracks_overwrites_and_deletes(self):
        cluster = SimHBase(region_servers=1)
        cluster.create_table("t")
        cluster.put("t", "r", "cf", "q", b"xxxx")
        assert cluster.total_bytes("t") == 4
        cluster.put("t", "r", "cf", "q", b"yy")       # overwrite shrinks
        assert cluster.total_bytes("t") == 2
        cluster.put("t", "r", "cf", "other", b"zzz")  # second cell adds
        assert cluster.total_bytes("t") == 5
        cluster.delete_row("t", "r")
        assert cluster.total_bytes("t") == 0

    def test_bytes_preserved_across_split(self):
        cluster = SimHBase(region_servers=2, split_threshold_rows=4)
        cluster.create_table("t")
        for i in range(20):
            cluster.put("t", f"r{i:02d}", "cf", "q", b"v" * 10)
        assert cluster.stats["splits"] >= 1
        assert cluster.total_bytes("t") == 200
        assert sum(r.recompute_bytes()
                   for r in cluster.regions_of("t")) == 200

    def test_auto_balance_spreads_split_regions(self):
        cluster = SimHBase(region_servers=3, split_threshold_rows=4)
        cluster.create_table("t")
        for i in range(40):
            cluster.put("t", f"r{i:02d}", "cf", "q", b"v")
        loads = cluster.server_loads()
        assert cluster.stats["moves"] >= 1
        hosting = [count for count in loads.values() if count > 0]
        assert len(hosting) >= 2  # splits did not pile on one server

    def test_auto_balance_off_keeps_regions_put(self):
        cluster = SimHBase(region_servers=3, split_threshold_rows=4,
                           auto_balance=False)
        cluster.create_table("t")
        for i in range(40):
            cluster.put("t", f"r{i:02d}", "cf", "q", b"v")
        assert cluster.stats["splits"] >= 1
        assert cluster.stats["moves"] == 0

    def test_recovery_recomputes_bytes(self):
        cluster = SimHBase(region_servers=2, split_threshold_rows=1000)
        cluster.create_table("t")
        for i in range(6):
            cluster.put("t", f"r{i}", "cf", "q", b"abcde")
        victim = cluster.server_of(cluster.regions_of("t")[0]).server_id
        cluster.kill_server(victim)
        assert cluster.total_bytes("t") == 30


class TestRowEdits:
    """Region edit methods keep data_bytes and the flush views in step."""

    def _region(self):
        region = Region(region_id=7, table="t", start_key="",
                        end_key=_END_KEY)
        for key in ("r1", "r2", "r3"):
            region.set_cell(key, "cf", "q", Cell(key.encode() * 3, 1.0))
        return region

    def test_flush_reuses_only_untouched_rows(self):
        region = self._region()
        first = region.encode_rows()
        region.set_cell("r2", "cf", "q", Cell(b"new", 2.0))
        assert set(region._row_views) == {"r1", "r3"}
        assert all(view.obj is first
                   for view in region._row_views.values())
        second = region.encode_rows()
        assert second == _reference_store_file(region.rows)
        assert all(view.obj is second
                   for view in region._row_views.values())

    def test_every_edit_invalidates_its_row(self):
        region = self._region()
        region.set_cell("r3", "cf", "other", Cell(b"x", 1.0))
        region.encode_rows()
        region.drop_row("r1")
        region.drop_cells("r2", [("cf", "q")])   # empties the row
        region.drop_cells("r3", [("cf", "q")])   # leaves one cell
        assert set(region.rows) == {"r3"}
        assert region._row_views == {}
        assert region.data_bytes == region.recompute_bytes() == 1
        assert region.encode_rows() == _reference_store_file(region.rows)

    def test_hand_rows_moves_bytes_and_views(self):
        region = self._region()
        region.encode_rows()
        sibling = Region(region_id=8, table="t", start_key="r2",
                         end_key=_END_KEY)
        region.hand_rows(sibling, ["r2", "r3"])
        assert (region.data_bytes, sibling.data_bytes) == (6, 12)
        assert set(sibling._row_views) == {"r2", "r3"}
        assert sibling.encode_rows() == _reference_store_file(sibling.rows)
        assert region.encode_rows() == _reference_store_file(region.rows)

    def test_restore_rebuilds_rows_and_bytes(self):
        region = self._region()
        store = region.encode_rows()
        region.wal = [("put", "r4", "cf", "q", b"four", 3.0),
                      ("delcell", "r1", "cf", "q", b"", 4.0)]
        recovered = Region(region_id=7, table="t", start_key="",
                           end_key=_END_KEY, memstore_bytes=99)
        assert recovered.restore(store, region.encode_wal()) == 2
        assert set(recovered.rows) == {"r2", "r3", "r4"}
        assert recovered.data_bytes == recovered.recompute_bytes() == 16
        assert recovered.memstore_bytes == 0


# -- differential storage engine ---------------------------------------------

def _reference_store_file(rows) -> bytes:
    """Store file as one ``json.dumps`` over the whole region."""
    payload = {
        row_key: {
            f"{family}\x00{qualifier}": [
                base64.b64encode(cell.value).decode("ascii"), cell.timestamp,
            ]
            for (family, qualifier), cell in cells.items()
        }
        for row_key, cells in rows.items()
    }
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def _reference_wal(entries) -> bytes:
    """WAL as one ``json.dumps`` over every pending entry."""
    return json.dumps([
        [op, row_key, family, qualifier,
         base64.b64encode(value).decode("ascii"), timestamp]
        for op, row_key, family, qualifier, value, timestamp in entries
    ]).encode("utf-8")


_ROW_KEYS = st.sampled_from(["r0", "r1", "r2", "r3", "clé ☃", "中文键"])
_COLUMNS = st.tuples(st.sampled_from(["cf", "hist"]),
                     st.sampled_from(["a", "données"]))
#: Operation kinds, repeated to weight the draw: rows should gain
#: several cells and lose some between flushes more often than whole
#: rows vanish or servers die.
_KINDS = ["put"] * 3 + ["delete_cells"] * 2 + ["delete_rows", "flush", "kill"]


@st.composite
def _operations(draw):
    kind = draw(st.sampled_from(_KINDS))
    if kind == "put":
        return (kind, draw(_ROW_KEYS), draw(_COLUMNS),
                draw(st.binary(min_size=1, max_size=32)))
    if kind == "delete_cells":
        return (kind, draw(_ROW_KEYS),
                draw(st.lists(_COLUMNS, min_size=1, max_size=2)))
    if kind == "delete_rows":
        return (kind, draw(st.lists(_ROW_KEYS, min_size=1, max_size=3)))
    if kind == "kill":
        return (kind, draw(st.integers(min_value=0, max_value=3)))
    return (kind,)


def _check_engine(cluster: SimHBase, model: dict) -> None:
    """Store files and WALs equal the reference encoders, byte counters
    are exact, and store file plus WAL recover every live row."""
    hdfs = cluster.hdfs
    live = {}
    with cluster.clock.capture():         # reads here must not move time
        for region in cluster.regions_of("t"):
            tracked = region.data_bytes
            assert region.recompute_bytes() == tracked
            wal = (hdfs.read(region.wal_path())
                   if hdfs.exists(region.wal_path()) else b"")
            assert wal == (_reference_wal(region.wal) if region.wal
                           else b"")
            store = hdfs.read(region.hdfs_path())
            if store:                     # b"" until the first flush
                stored = Region.decode_rows(store)
                assert store == _reference_store_file(stored)
                if not region.wal:
                    assert stored == region.rows
            recovered = Region(region_id=0, table="t",
                               start_key=region.start_key,
                               end_key=region.end_key)
            recovered.restore(store, wal)
            assert recovered.rows == region.rows
            for row_key, cells in region.rows.items():
                assert region.contains(row_key)
                live[row_key] = {cq: cell.value
                                 for cq, cell in cells.items()}
    assert live == model


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_operations(), min_size=10, max_size=60))
def test_storage_engine_matches_reference_encoders(operations):
    """Random puts and deletes, with flushes, splits and region-server
    failures interleaved, against whole-region reference encoders."""
    cluster = SimHBase(region_servers=4, split_threshold_rows=4,
                       split_threshold_bytes=120,
                       memstore_flush_bytes=40)
    cluster.create_table("t")
    model: dict[str, dict[tuple[str, str], bytes]] = {}
    for operation in operations:
        kind = operation[0]
        if kind == "put":
            _, row_key, (family, qualifier), value = operation
            cluster.put("t", row_key, family, qualifier, value)
            model.setdefault(row_key, {})[(family, qualifier)] = value
        elif kind == "delete_rows":
            cluster.delete_rows("t", operation[1])
            for row_key in operation[1]:
                model.pop(row_key, None)
        elif kind == "delete_cells":
            _, row_key, columns = operation
            existed = cluster.delete_cells("t", row_key, columns)
            row = model.get(row_key, {})
            assert existed == len([c for c in columns if c in row])
            for column in columns:
                row.pop(column, None)
            if not row:
                model.pop(row_key, None)
        elif kind == "flush":
            cluster.flush_table("t")
        else:
            alive = sorted(sid for sid, server in cluster.servers.items()
                           if server.alive)
            if len(alive) < 2:
                continue
            cluster.kill_server(alive[operation[1] % len(alive)])
        _check_engine(cluster, model)
