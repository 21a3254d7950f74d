"""Aggregated results of one fleet run.

A :class:`FleetReport` is a plain, JSON-serialisable value object: the
determinism acceptance test serialises two same-seed runs and compares
the bytes, so everything in here must derive from simulated quantities
only (never host time).  Simulated seconds are rounded to nanoseconds
before aggregation to keep float noise out of the serialised form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .stations import StationMetrics

__all__ = ["FleetReport", "RealFleetReport", "percentile"]


def percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile (deterministic; 0.0 for no samples)."""
    if not (0.0 <= fraction <= 1.0):
        raise ValueError("fraction must be within [0, 1]")
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1,
                      int(round(fraction * (len(ordered) - 1)))))
    return ordered[rank]


@dataclass
class FleetReport:
    """Throughput, latency, and per-component load of one fleet run."""

    workload: str
    mode: str
    seed: int
    instances_started: int
    instances_completed: int
    hops_executed: int
    events_processed: int
    #: Simulated seconds from first arrival to last completion.
    makespan_seconds: float
    #: Simulated seconds from t = 0 to the last completion: the horizon
    #: every station's utilization is measured over.  Not serialised;
    #: the stations' figures carry it.
    horizon_seconds: float
    #: Completed instances per simulated second.
    throughput_per_second: float
    #: Completion latencies (arrival → final store), simulated seconds.
    latencies: list[float] = field(default_factory=list, repr=False)
    stations: dict[str, StationMetrics] = field(default_factory=dict)
    #: Completed instances whose final document was re-verified cold.
    instances_audited: int = 0
    audit_failures: int = 0
    join_retries: int = 0
    #: ``"full"`` or ``"delta"`` — how documents moved over the wire.
    routing: str = "full"
    #: Client → cloud transfer volume (canonical or delta-wire bytes).
    bytes_to_cloud: int = 0
    #: Cloud → client transfer volume.
    bytes_from_cloud: int = 0
    #: Content-addressed chunk-store counters (delta runs; empty on
    #: full-routing runs, where no chunk store exists).
    chunk_store: dict[str, int] = field(default_factory=dict)
    #: Consistent-hash placement snapshot — scheme, vnodes, instances
    #: per portal, max/mean skew.  Populated only on ``placement="ring"``
    #: runs; empty (and omitted from the serialised form) otherwise, so
    #: legacy round-robin reports stay byte-identical.
    placement: dict[str, object] = field(default_factory=dict)
    #: Sharded-tier region-store counters (splits, moves, flushes,
    #: regions).  Same ring-mode-only rule as :attr:`placement`.
    storage: dict[str, int] = field(default_factory=dict)
    #: :class:`repro.obs.MetricsRegistry` snapshot (counters/gauges/
    #: histograms).  Populated only when the run collected metrics or
    #: traced; empty — and omitted from the serialised form — otherwise,
    #: so untraced report bytes are unchanged (the golden guarantee).
    metrics: dict[str, object] = field(default_factory=dict)
    #: Storage-lifecycle counters (sweeps, retired instances, compacted
    #: manifests, chunks deleted, hot/peak bytes, chunk-cache traffic).
    #: Populated only when the run swept (``gc_interval > 0``); empty —
    #: and omitted from the serialised form — otherwise, so reports of
    #: runs with the lifecycle off are byte-identical to older builds.
    lifecycle: dict[str, object] = field(default_factory=dict)

    # -- latency aggregates ------------------------------------------------

    @property
    def latency_mean(self) -> float:
        """Mean completion latency (0.0 when nothing completed)."""
        if not self.latencies:
            return 0.0
        return round(sum(self.latencies) / len(self.latencies), 9)

    @property
    def latency_p50(self) -> float:
        """Median completion latency."""
        return percentile(self.latencies, 0.50)

    @property
    def latency_p95(self) -> float:
        """95th-percentile completion latency."""
        return percentile(self.latencies, 0.95)

    @property
    def latency_p99(self) -> float:
        """99th-percentile completion latency."""
        return percentile(self.latencies, 0.99)

    @property
    def latency_max(self) -> float:
        """Worst completion latency."""
        return max(self.latencies, default=0.0)

    # -- component views ---------------------------------------------------

    def utilization(self) -> dict[str, float]:
        """Per-station utilization, AEA desks rolled up under ``aea``
        over the same horizon as each desk (once an instance has
        completed)."""
        out: dict[str, float] = {}
        aea_busy = aea_workers = 0.0
        for name, metrics in sorted(self.stations.items()):
            if name.startswith("aea:"):
                aea_busy += metrics.busy_seconds
                aea_workers += metrics.workers
            else:
                out[name] = metrics.utilization
        if aea_workers and self.makespan_seconds > 0:
            out["aea"] = round(
                aea_busy / (aea_workers * self.horizon_seconds), 9)
        return out

    def portal_utilization(self) -> dict[str, float]:
        """Utilization per portal station (ring runs; empty otherwise)."""
        return {
            name.split(":", 1)[1]: metrics.utilization
            for name, metrics in sorted(self.stations.items())
            if name.startswith("portal:")
        }

    # -- serialisation ------------------------------------------------------

    def to_dict(self) -> dict[str, object]:
        """JSON-safe snapshot (full latency list included).

        The ``placement`` and ``storage`` sections exist only on
        sharded (``placement="ring"``) runs; they are *omitted*, not
        emitted empty, so pre-sharding report bytes are unchanged.
        """
        out: dict[str, object] = {
            "workload": self.workload,
            "mode": self.mode,
            "seed": self.seed,
            "instances_started": self.instances_started,
            "instances_completed": self.instances_completed,
            "hops_executed": self.hops_executed,
            "events_processed": self.events_processed,
            "makespan_seconds": self.makespan_seconds,
            "throughput_per_second": self.throughput_per_second,
            "latency": {
                "mean": self.latency_mean,
                "p50": self.latency_p50,
                "p95": self.latency_p95,
                "p99": self.latency_p99,
                "max": self.latency_max,
                "samples": self.latencies,
            },
            "stations": {
                name: metrics.to_dict()
                for name, metrics in sorted(self.stations.items())
            },
            "utilization": self.utilization(),
            "instances_audited": self.instances_audited,
            "audit_failures": self.audit_failures,
            "join_retries": self.join_retries,
            "routing": self.routing,
            "bytes_to_cloud": self.bytes_to_cloud,
            "bytes_from_cloud": self.bytes_from_cloud,
            "chunk_store": {k: self.chunk_store[k]
                            for k in sorted(self.chunk_store)},
        }
        if self.placement:
            out["placement"] = self.placement
        if self.storage:
            out["storage"] = {k: self.storage[k]
                              for k in sorted(self.storage)}
        if self.metrics:
            out["metrics"] = self.metrics
        if self.lifecycle:
            out["lifecycle"] = self.lifecycle
        return out

    def to_json(self) -> str:
        """Canonical serialisation (the determinism-test currency)."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def render(self) -> str:
        """Human-readable summary table."""
        lines = [
            f"fleet run: {self.workload} [{self.mode} loop, "
            f"seed {self.seed}]",
            f"  instances : {self.instances_completed}/"
            f"{self.instances_started} completed, "
            f"{self.hops_executed} hops, "
            f"{self.events_processed} events",
            f"  makespan  : {self.makespan_seconds:.3f} sim-s   "
            f"throughput: {self.throughput_per_second:.3f} inst/sim-s",
            f"  latency   : mean {self.latency_mean:.3f}  "
            f"p50 {self.latency_p50:.3f}  p95 {self.latency_p95:.3f}  "
            f"p99 {self.latency_p99:.3f}  max {self.latency_max:.3f}",
            f"  audit     : {self.instances_audited} instances "
            f"re-verified cold, {self.audit_failures} failures; "
            f"{self.join_retries} join retries",
            f"  routing   : {self.routing}   "
            f"to cloud {self.bytes_to_cloud:,} B   "
            f"from cloud {self.bytes_from_cloud:,} B"
            + (f"   dedup hits {self.chunk_store.get('dedup_hits', 0)}"
               f" ({self.chunk_store.get('unique_bytes', 0):,} B unique "
               f"of {self.chunk_store.get('logical_bytes', 0):,} B logical)"
               if self.routing == "delta" else ""),
        ]
        if self.placement:
            portals = self.placement.get("portals", {})
            lines.append(
                f"  placement : ring, {self.placement.get('vnodes')} "
                f"vnodes, skew {self.placement.get('skew', 1.0):.3f}   "
                + "  ".join(f"{p}={n}"
                            for p, n in sorted(portals.items()))
            )
        if self.storage:
            lines.append(
                f"  storage   : {self.storage.get('regions', 0)} "
                f"regions, {self.storage.get('region_splits', 0)} "
                f"splits, {self.storage.get('region_moves', 0)} moves, "
                f"{self.storage.get('memstore_flushes', 0)} flushes"
            )
        if self.lifecycle:
            lines.append(
                f"  lifecycle : every {self.lifecycle.get('gc_interval')}"
                f" completions; {self.lifecycle.get('instances_retired', 0)}"
                f" retired, {self.lifecycle.get('manifests_compacted', 0)}"
                f" manifests compacted, "
                f"{self.lifecycle.get('chunks_deleted', 0)} chunks "
                f"deleted ({self.lifecycle.get('bytes_reclaimed', 0):,} B)"
                f"; hot {self.lifecycle.get('hot_unique_bytes', 0):,} B "
                f"(peak {self.lifecycle.get('peak_hot_bytes', 0):,} B)"
            )
        lines.append(
            "  station        util   busy-s     jobs  maxQ  meanQ  "
            "wait-s",
        )
        for name, m in sorted(self.stations.items()):
            lines.append(
                f"  {name:<14s} {m.utilization:>5.1%} "
                f"{m.busy_seconds:>8.3f} {m.jobs:>8d} {m.max_queue_depth:>5d} "
                f"{m.mean_queue_depth:>6.2f} {m.wait_seconds:>7.3f}"
            )
        return "\n".join(lines)


@dataclass
class RealFleetReport:
    """Aggregates of one true-parallel (``--real``) fleet run.

    Unlike :class:`FleetReport` this mixes two kinds of quantity:

    * **deterministic aggregates** — instance counts, hops, wire bytes,
      audit outcomes, merged *simulated* per-component seconds.  These
      are identical for the same (world, spec, seed) no matter how many
      worker processes ran the instances; :meth:`deterministic_dict`
      exposes exactly this subset, and the real-mode determinism test
      compares it across worker counts.
    * **host measurements** — wall-clock seconds, per-instance host
      seconds, throughput per *wall* second, and the host's CPU count.
      These obviously vary run to run and are excluded from the
      deterministic view; benches record them (with ``cpu_count`` for
      honest interpretation of scaling numbers).
    """

    workload: str
    routing: str
    seed: int
    workers: int
    instances: int
    hops_executed: int
    bytes_to_cloud: int
    bytes_from_cloud: int
    instances_audited: int
    audit_failures: int
    #: Simulated seconds per component tag, summed over the instances
    #: in index order.
    sim_seconds: dict[str, float] = field(default_factory=dict)
    #: Instances served per portal id (ring placement; empty otherwise).
    #: Deterministic: placement is a pure function of each process id.
    portals: dict[str, int] = field(default_factory=dict)
    #: Summed HBase region splits across the per-instance clouds.
    region_splits: int = 0
    #: Host seconds each instance took inside its worker, index order.
    host_seconds_per_instance: list[float] = field(
        default_factory=list, repr=False)
    #: Host wall-clock seconds of the whole run (pool setup included).
    wall_seconds: float = 0.0
    cpu_count: int = 1

    @property
    def throughput_per_wall_second(self) -> float:
        """Completed instances per *host* second (0.0 for empty runs)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.instances / self.wall_seconds

    @property
    def host_seconds_total(self) -> float:
        """Summed per-instance host seconds (CPU-ish, not wall)."""
        return sum(self.host_seconds_per_instance)

    # -- serialisation ------------------------------------------------------

    def deterministic_dict(self) -> dict[str, object]:
        """The worker-count-independent subset (determinism currency)."""
        out: dict[str, object] = {
            "workload": self.workload,
            "routing": self.routing,
            "seed": self.seed,
            "instances": self.instances,
            "hops_executed": self.hops_executed,
            "bytes_to_cloud": self.bytes_to_cloud,
            "bytes_from_cloud": self.bytes_from_cloud,
            "instances_audited": self.instances_audited,
            "audit_failures": self.audit_failures,
            "region_splits": self.region_splits,
            "sim_seconds": {k: self.sim_seconds[k]
                            for k in sorted(self.sim_seconds)},
        }
        if self.portals:
            out["portals"] = {k: self.portals[k]
                              for k in sorted(self.portals)}
        return out

    def to_dict(self) -> dict[str, object]:
        """Full JSON-safe snapshot (host measurements included)."""
        out = self.deterministic_dict()
        out.update({
            "workers": self.workers,
            "wall_seconds": round(self.wall_seconds, 6),
            "host_seconds_total": round(self.host_seconds_total, 6),
            "throughput_per_wall_second": round(
                self.throughput_per_wall_second, 6),
            "cpu_count": self.cpu_count,
        })
        return out

    def to_json(self) -> str:
        """Canonical serialisation of the full snapshot."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def render(self) -> str:
        """Human-readable summary."""
        lines = [
            f"real fleet run: {self.workload} [seed {self.seed}, "
            f"{self.workers} worker process"
            f"{'es' if self.workers != 1 else ''}, "
            f"{self.cpu_count} host CPUs]",
            f"  instances : {self.instances} completed, "
            f"{self.hops_executed} hops",
            f"  wall time : {self.wall_seconds:.3f} s   "
            f"throughput: {self.throughput_per_wall_second:.3f} inst/s   "
            f"(host work: {self.host_seconds_total:.3f} s)",
            f"  audit     : {self.instances_audited} instances "
            f"re-verified cold, {self.audit_failures} failures",
            f"  routing   : {self.routing}   "
            f"to cloud {self.bytes_to_cloud:,} B   "
            f"from cloud {self.bytes_from_cloud:,} B",
        ]
        if self.portals:
            parts = "  ".join(f"{p}={n}"
                              for p, n in sorted(self.portals.items()))
            lines.append(f"  placement : ring   {parts}   "
                         f"region splits {self.region_splits}")
        if self.sim_seconds:
            parts = ", ".join(
                f"{name} {seconds:.3f}s"
                for name, seconds in sorted(self.sim_seconds.items())
            )
            lines.append(f"  sim cost  : {parts}")
        return "\n".join(lines)
