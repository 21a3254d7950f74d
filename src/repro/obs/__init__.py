"""Observability: deterministic span tracing + a metrics registry.

The DRA4WfMS reproduction reports *aggregates* everywhere (FleetReport
percentiles, station utilization); this package adds the per-event
view: follow one process instance hop by hop through portal → TFC →
HBase/HDFS → notify → crypto and see where the simulated budget goes.

Three pieces:

* :class:`Tracer` — nested spans keyed by ``(instance, hop,
  component)``.  Span time comes from the tagged
  :class:`~repro.cloud.simclock.SimClock` charges (rounded to integer
  microseconds), so the same seed produces a byte-identical trace.
* :class:`MetricsRegistry` — counters / gauges / histograms
  (wire bytes, dedup hits, verify-cache hit rate, queue depths, …)
  with a JSON-safe :meth:`~MetricsRegistry.snapshot`.
* exporters — Chrome trace-event JSON (loadable in Perfetto), a
  flamegraph-style folded-stack text form, and a per-component summary
  table (``repro trace-report``).

The layer is a strict no-op by default: nothing in the stack creates a
tracer unless asked, and with tracing off every report stays
byte-identical.  See ``docs/OBSERVABILITY.md``.
"""

from .export import (
    summarize_chrome_trace,
    to_chrome_trace,
    to_folded_stacks,
    validate_chrome_trace,
    write_chrome_trace,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .tracer import ChargeRecord, SpanRecord, Tracer, microseconds

__all__ = [
    "ChargeRecord",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SpanRecord",
    "Tracer",
    "microseconds",
    "summarize_chrome_trace",
    "to_chrome_trace",
    "to_folded_stacks",
    "validate_chrome_trace",
    "write_chrome_trace",
]
