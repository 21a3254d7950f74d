"""Workflow monitoring (paper §2.2, §3).

"Monitoring encompasses the tracking of individual processes so that
information on their state can be easily seen and statistics on the
performance of one or more processes provided" [20].  In DRA4WfMS the
TFC server's records are the monitoring substrate, and a document's
status is read from the document itself (:meth:`WorkflowMonitor.
status_of`); the cloud deployment additionally keeps every version in
the document pool and runs MapReduce analyses over it (see
:mod:`repro.cloud.mapreduce`).
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import fmean

from ..document.document import Dra4wfmsDocument
from ..model.definition import WorkflowDefinition
from .state import ExecutionStatus, execution_status
from .tfc import TfcRecord, TfcServer

__all__ = ["ActivityStats", "WorkflowMonitor"]


@dataclass
class ActivityStats:
    """Aggregate statistics for one activity across process instances."""

    activity_id: str
    executions: int
    mean_gap_seconds: float | None
    participants: tuple[str, ...]


class WorkflowMonitor:
    """Query progress and statistics from TFC records and documents.

    Every query reads the TFC, its records or its signature cache,
    except :meth:`status_of`, which reads a document.  A fleet's load
    figures — station utilization, queue depths and the metrics
    snapshot — are computed once, on its
    :class:`~repro.fleet.report.FleetReport` and by
    :meth:`~repro.fleet.fleet.Fleet.queue_depths`.
    """

    def __init__(self, tfc: TfcServer | None = None,
                 records: list[TfcRecord] | None = None) -> None:
        if tfc is None and records is None:
            raise ValueError("pass a TFC server or a record list")
        self._tfc = tfc
        self._records = records

    @property
    def records(self) -> list[TfcRecord]:
        """All monitoring records visible to this monitor."""
        if self._tfc is not None:
            return list(self._tfc.records)
        return list(self._records or [])

    # -- per-process queries ------------------------------------------------

    def processes(self) -> list[str]:
        """Distinct process ids seen, in first-seen order."""
        seen: dict[str, None] = {}
        for record in self.records:
            seen.setdefault(record.process_id, None)
        return list(seen)

    def history(self, process_id: str) -> list[TfcRecord]:
        """Timestamped activity completions of one process instance."""
        return [r for r in self.records if r.process_id == process_id]

    def activity_gaps(self, process_id: str) -> dict[tuple[str, int], float]:
        """Seconds between consecutive completions (activity handoffs).

        The gap attributed to an activity covers routing, participant
        think time and AEA processing — exactly what a business monitor
        wants to see to find the slow desk.
        """
        history = self.history(process_id)
        gaps: dict[tuple[str, int], float] = {}
        for previous, current in zip(history, history[1:]):
            gaps[(current.activity_id, current.iteration)] = (
                current.timestamp - previous.timestamp
            )
        return gaps

    def process_duration(self, process_id: str) -> float | None:
        """Wall-clock from first to last witnessed completion."""
        history = self.history(process_id)
        if len(history) < 2:
            return None
        return history[-1].timestamp - history[0].timestamp

    def slowest_handoff(self, process_id: str
                        ) -> tuple[tuple[str, int], float] | None:
        """The activity handoff that took longest (the slow desk)."""
        gaps = self.activity_gaps(process_id)
        if not gaps:
            return None
        key = max(gaps, key=gaps.get)  # type: ignore[arg-type]
        return key, gaps[key]

    # -- incremental-verification health ------------------------------------

    def verification_cache_stats(self) -> dict[str, int | float] | None:
        """Hit/miss/store/invalidation counters of the signature cache.

        The TFC's cache; ``None`` without a TFC or when it has none.  A
        healthy steady-state hit rate approaches ``(n-1)/n`` for
        *n*-CER documents: only the newly appended CER needs RSA work
        per hop.
        """
        cache = None if self._tfc is None else self._tfc.verify_cache
        if cache is None:
            return None
        return cache.stats.snapshot()

    # -- fleet statistics ------------------------------------------------------

    def statistics(self) -> dict[str, ActivityStats]:
        """Per-activity statistics across every observed process."""
        by_activity: dict[str, list[TfcRecord]] = {}
        for record in self.records:
            by_activity.setdefault(record.activity_id, []).append(record)

        gap_samples: dict[str, list[float]] = {}
        for process_id in self.processes():
            for (activity_id, _), gap in self.activity_gaps(process_id).items():
                gap_samples.setdefault(activity_id, []).append(gap)

        stats: dict[str, ActivityStats] = {}
        for activity_id, records in by_activity.items():
            gaps = gap_samples.get(activity_id)
            stats[activity_id] = ActivityStats(
                activity_id=activity_id,
                executions=len(records),
                mean_gap_seconds=(fmean(gaps) if gaps else None),
                participants=tuple(sorted({r.participant for r in records})),
            )
        return stats

    # -- static helpers ------------------------------------------------------------

    @staticmethod
    def status_of(document: Dra4wfmsDocument,
                  definition: WorkflowDefinition | None = None,
                  ) -> ExecutionStatus:
        """Status straight from a document (no TFC needed)."""
        return execution_status(document, definition)
