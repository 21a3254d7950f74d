"""MapReduce over the simulated HBase (monitoring & statistics, §4.2).

"The MapReduce computing model supported in the HBase system can apply
some statistical analyses to workflow processes or instances stored in
the DRA4WfMS cloud system."  The engine runs one map task per region
(that is how HBase scans parallelise), shuffles by key, and reduces.

Parallelism is simulated: every map task is charged the network time
of scanning its region's bytes, and the job's *simulated makespan* is
the longest-processing-time schedule of those tasks over one slot per
region server, charged to the shared clock under the ``pool`` tag.
The in-memory reduce is charged nothing.  Charges follow from counts
only, never from the host's speed, so the same pool gives the same
makespan and the same clock on every run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, TypeVar

from .hbase import SimHBase

__all__ = ["JobStats", "MapReduceEngine"]

K = TypeVar("K")
V = TypeVar("V")
R = TypeVar("R")

#: map(row_key, row_cells) -> iterable of (key, value)
MapFn = Callable[[str, dict[tuple[str, str], bytes]], Iterable[tuple[K, V]]]
#: reduce(key, values) -> result
ReduceFn = Callable[[K, list[V]], R]


@dataclass
class JobStats:
    """Accounting for one MapReduce job; every second is simulated."""

    map_tasks: int = 0
    input_rows: int = 0
    shuffled_records: int = 0
    reduce_groups: int = 0
    #: Simulated seconds of all map tasks, summed (the reduce is free).
    total_compute_seconds: float = 0.0
    #: Simulated parallel completion time, charged to the clock.
    simulated_makespan_seconds: float = 0.0
    #: Simulated seconds of each map task: the network time of its
    #: region's bytes.
    map_task_seconds: list[float] = field(default_factory=list)


class MapReduceEngine:
    """Runs MapReduce jobs against one :class:`SimHBase` cluster."""

    def __init__(self, hbase: SimHBase) -> None:
        self.hbase = hbase

    def run(self, table: str, map_fn: MapFn, reduce_fn: ReduceFn,
            ) -> tuple[dict, JobStats]:
        """Execute a job over every row of *table*.

        Returns ``(results, stats)`` where ``results`` maps each
        distinct intermediate key to its reduced value.
        """
        stats = JobStats()
        intermediate: dict[object, list[object]] = {}

        regions = self.hbase.regions_of(table)
        slots = max(len(self.hbase.servers), 1)
        for region in regions:
            for row_key in region.sorted_keys():
                row = {
                    cq: cell.value for cq, cell in region.rows[row_key].items()
                }
                stats.input_rows += 1
                for key, value in map_fn(row_key, row):
                    intermediate.setdefault(key, []).append(value)
                    stats.shuffled_records += 1
            seconds = self.hbase.network.transfer_seconds(region.data_bytes)
            stats.map_tasks += 1
            stats.map_task_seconds.append(seconds)
            stats.total_compute_seconds += seconds

        # Simulated makespan: greedy longest-processing-time schedule of
        # map tasks onto the region servers' slots.
        loads = [0.0] * slots
        for task in sorted(stats.map_task_seconds, reverse=True):
            loads[loads.index(min(loads))] += task
        stats.simulated_makespan_seconds = max(loads) if loads else 0.0

        results = {
            key: reduce_fn(key, values)
            for key, values in intermediate.items()
        }
        stats.reduce_groups = len(results)
        self.hbase.clock.advance(stats.simulated_makespan_seconds,
                                 component="pool")
        return results, stats
