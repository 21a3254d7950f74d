"""A census of hot storage, taken straight from the simulated HBase.

It reads the document rows and the chunk tables region by region, not
through :class:`~repro.cloud.pool.DocumentPool` or
:class:`~repro.cloud.hbase.CerChunkStore`, so it checks their
bookkeeping instead of repeating it.  A manifest is *live* while a
document row holds it (a ``hist`` cell or ``doc:manifest``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.cloud.hbase import CerChunkStore, SimHBase
from repro.cloud.pool import DOC_TABLE
from repro.document.delta import Manifest


@dataclass(frozen=True)
class Census:
    """What the chunk tables hold: instances with a chunk row, chunk
    cells and their bytes, over every replica."""

    instances: int
    cells: int
    bytes: int


def _rows(hbase: SimHBase, table: str):
    for region in hbase.regions_of(table):
        for row_key, row in region.rows.items():
            yield row_key, {cq: cell.value for cq, cell in row.items()}


def live_manifests(hbase: SimHBase) -> dict[str, list[Manifest]]:
    """Process id → the manifests its document row holds."""
    out: dict[str, list[Manifest]] = {}
    for process_id, row in _rows(hbase, DOC_TABLE):
        manifests = [Manifest.from_bytes(value)
                     for (family, qualifier), value in row.items()
                     if family == "hist" or (family, qualifier)
                     == ("doc", "manifest")]
        for manifest in manifests:
            assert manifest.process_id == process_id, (
                f"row {process_id!r} holds a manifest of "
                f"{manifest.process_id!r}")
        if manifests:
            out[process_id] = manifests
    return out


def take_census(hbase: SimHBase, replicas: int = 1) -> Census:
    """Assert the chunk tables hold exactly what live manifests name.

    * every chunk cell is named by a live manifest of the instance its
      row belongs to;
    * every chunk a live manifest names is present and intact (its
      SHA-256 and length match) on *replicas* chunk tables.
    """
    tables = sorted(name for name in hbase._tables
                    if name.startswith(CerChunkStore.TABLE))
    assert tables, "no chunk table"
    named: dict[str, dict[str, int]] = {}
    for process_id, manifests in live_manifests(hbase).items():
        named[process_id] = {chunk.digest: chunk.length
                             for manifest in manifests
                             for chunk in manifest.chunks}
    copies: dict[tuple[str, str], int] = {}
    instances: set[str] = set()
    cells = size = 0
    for table in tables:
        for process_id, row in _rows(hbase, table):
            instances.add(process_id)
            for (family, digest), value in row.items():
                assert family == "c", (table, process_id, family)
                assert digest in named.get(process_id, {}), (
                    f"{table}: chunk {digest[:12]} of {process_id!r} is "
                    f"named by no live manifest of that instance")
                cells += 1
                size += len(value)
                if (hashlib.sha256(value).hexdigest() == digest
                        and len(value) == named[process_id][digest]):
                    copies[process_id, digest] = \
                        copies.get((process_id, digest), 0) + 1
    for process_id, digests in named.items():
        for digest in digests:
            found = copies.get((process_id, digest), 0)
            assert found == replicas, (
                f"chunk {digest[:12]} of {process_id!r} has {found} "
                f"intact copies, not {replicas}")
    return Census(instances=len(instances), cells=cells, bytes=size)
