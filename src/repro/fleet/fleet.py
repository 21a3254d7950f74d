"""The fleet: thousands of in-flight instances over one shared cloud.

``run_process_in_cloud`` drives a single instance start to finish; the
:class:`Fleet` instead runs a *population* of instances as a
deterministic discrete-event simulation over one :class:`CloudSystem`.
Every document still does the real cryptographic work (real CERs, real
cascade signatures — the auditor hook re-verifies finished instances
cold), but *when* things happen is governed by the fleet's own event
heap, which advances the shared :class:`SimClock`, and by FIFO service
stations modelling the shared components:

========  =====================================================
station   models
========  =====================================================
portal    the portal tier (workers = number of portal servers)
tfc       TFC verify/timestamp/re-encrypt/sign
pool      HBase/HDFS document reads and writes
notify    "your turn" notification fan-out
aea:<p>   participant *p*'s own execution agent (their desk)
========  =====================================================

Execution model — *eager execution, lazy completion*: when a hop event
fires, the real portal/AEA/TFC work runs immediately (so documents,
TO-DO lists and caches evolve in event order), the per-component costs
are captured from the tagged :class:`SimClock` charges plus the
deterministic :class:`CryptoCostModel`, and the hop is then threaded
through the station queues; only when its last station visit finishes
do successor hops get scheduled.  AND-joins additionally gate on the
*simulated* completion of every incoming branch, so a join never starts
before its inputs have finished in simulated time.

Determinism: same seed ⇒ identical event order ⇒ byte-identical
:class:`FleetReport`, under either routing.  Process ids are derived
from the seed and the instance index (host uuids would make HBase
region splits — and hence captured costs — vary between runs), and
every pool row, delta chunks included, is keyed by one, never by a
digest of ciphertext, which carries the backend's random nonces.
"""

from __future__ import annotations

import heapq
import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, ContextManager, Mapping

from ..cloud.system import CloudClient, CloudSystem
from ..crypto.keys import KeyPair
from ..document.builder import build_initial_document
from ..document.vcache import VerificationCache
from ..document.verify import verify_document
from ..errors import FleetError, JoinNotReady, ReproError
from ..model.controlflow import JoinKind
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import Tracer
from .arrivals import ClosedLoop, OpenLoop, think_time
from .costs import CryptoCostModel
from .report import FleetReport
from .stations import Station
from .workload import FleetWorkload

__all__ = ["FleetConfig", "Fleet", "audit_failed", "build_fleet",
           "TFC_IDENTITY"]

#: Identity the convenience builder enrolls for the cloud's notary.
TFC_IDENTITY = "tfc@cloud.example"

#: Visit order of captured components within one operation.
_STAGE_ORDER = ("portal", "tfc", "pool", "notify")

#: Parallel notification delivery workers.
_NOTIFY_WORKERS = 4

#: Hard stop against runaway event loops.
_MAX_EVENTS = 5_000_000

#: Deterministic simulated costs of the cryptographic work.
_COSTS = CryptoCostModel()


def audit_failed(system: CloudSystem, process_id: str) -> bool:
    """Cold full-cascade re-verification of one finished instance.

    True when the verifier rejects the pooled document.  Only a verdict
    counts: the document is fetched outside the ``try``, and anything
    but a :class:`~repro.errors.ReproError` propagates, so a crash in
    the verifier can never pass for detected tampering.
    """
    document = system.pool.latest(process_id)
    try:
        verify_document(
            document, system.directory, system.backend,
            definition_reader=(system.tfc.identity,
                               system.tfc.keypair.private_key),
        )
    except ReproError:
        return True
    return False


@dataclass(frozen=True)
class FleetConfig:
    """Tunable knobs of one fleet run."""

    arrivals: OpenLoop | ClosedLoop
    seed: int = 0
    #: Mean participant think time (exponential; 0 = automated).
    think_seconds: float = 0.0
    #: Parallel TFC verify/sign workers.
    tfc_workers: int = 1
    #: Cold-re-verify every Nth completed instance (0 disables).
    audit_every: int = 25
    #: Optional :class:`repro.obs.Tracer` collecting per-event spans.
    #: ``None`` (default) leaves the run entirely untraced — reports
    #: stay byte-identical to pre-observability builds.
    tracer: Tracer | None = field(default=None, compare=False)
    #: Collect a :class:`repro.obs.MetricsRegistry` snapshot into the
    #: report's ``metrics`` section without retaining span events
    #: (implied when *tracer* is set).
    collect_metrics: bool = False
    #: Storage-lifecycle sweep cadence (delta routing only): every N
    #: completed instances, archive + compact + retire the finished
    #: instances, deleting their chunks, so hot storage stays
    #: O(live instances).  0 (default) disables the sweep entirely —
    #: hot storage grows with total history, exactly as before.
    gc_interval: int = 0
    #: LRU byte budget for each client's peer chunk cache.  ``None``
    #: (default) keeps the historic unbounded cache.
    chunk_cache_bytes: int | None = None
    #: Callback receiving ``(process_id, ArchiveBundle)`` for every
    #: instance the lifecycle sweep retires — the bundle is exported
    #: *before* the instance leaves hot storage.  Requires
    #: ``gc_interval > 0`` to ever fire.
    archive_sink: Callable[[str, object], None] | None = field(
        default=None, compare=False)


@dataclass
class _Instance:
    """In-flight bookkeeping of one process instance."""

    index: int
    process_id: str
    arrival: float
    #: Unresolved hops + station chains; 0 ⇒ the instance is done.
    inflight: int = 0
    #: ``(activity_id, iteration)`` hops completed in *simulated* time.
    done_hops: set[tuple[str, int]] = field(default_factory=set)


class Fleet:
    """A concurrent multi-instance execution fabric over one cloud."""

    def __init__(self, system: CloudSystem, workload: FleetWorkload,
                 keypairs: Mapping[str, KeyPair],
                 config: FleetConfig) -> None:
        self.system = system
        self.workload = workload
        self.keypairs = keypairs
        self.config = config
        self.clock = system.clock
        self.rng = random.Random(config.seed)
        self.definition = workload.definition
        self.stations: dict[str, Station] = {
            "tfc": Station("tfc", config.tfc_workers),
            "pool": Station("pool", len(system.hbase.servers)),
            "notify": Station("notify", _NOTIFY_WORKERS),
        }
        if system.placement is None:
            # Round-robin front door: one station, a worker per portal.
            self.stations["portal"] = Station("portal",
                                              len(system.portals))
        else:
            # Ring placement pins each instance to one portal, so each
            # portal is its own single-worker station — per-portal
            # utilization, queue depth and skew become observable.
            for portal in system.portals:
                name = f"portal:{portal.portal_id}"
                self.stations[name] = Station(name, 1)
        for identity in workload.identities:
            # One desk per participant.
            self.stations[f"aea:{identity}"] = Station(f"aea:{identity}", 1)
        self._events: list[tuple[float, int, Callable[[], None]]] = []
        self._sequence = 0
        self._instances: dict[str, _Instance] = {}
        self._started = 0
        self._completed = 0
        self._hops = 0
        self._join_retries = 0
        self._audited = 0
        self._audit_failures = 0
        self._latencies: list[float] = []
        self._first_arrival: float | None = None
        self._last_completion = 0.0
        self._clients: dict[str, CloudClient] = {}
        if config.gc_interval and not system.delta_routing:
            raise FleetError(
                "gc_interval requires delta routing (full-document "
                "mode has no chunk store to collect)"
            )
        #: Completed-but-not-yet-retired instances awaiting the sweep.
        self._retirable: list[str] = []
        self._trust_snapshot: dict[str, object] | None = None
        self._lifecycle: dict[str, int] | None = None
        if config.gc_interval:
            self._lifecycle = {
                "gc_interval": config.gc_interval,
                "sweeps": 0,
                "instances_retired": 0,
                "manifests_compacted": 0,
                "archives_exported": 0,
                "chunks_deleted": 0,
                "bytes_reclaimed": 0,
                "peak_hot_bytes": 0,
            }
        #: Tracing tap: the caller's collecting tracer, or a metrics-only
        #: ``collect=False`` tracer, or ``None`` (fully untraced — the
        #: default, keeping the report byte-identical to older builds).
        #: With a tap, the report carries a ``metrics`` section.
        self._tap = config.tracer
        if self._tap is None and config.collect_metrics:
            self._tap = Tracer(collect=False)
        if self._tap is not None:
            system.attach_tracer(self._tap)

    def _span(self, name: str, component: str | None = None,
              instance: str | None = None,
              hop: str | None = None) -> ContextManager[object]:
        """Tracer span, or a no-op context when untraced."""
        if self._tap is None:
            return nullcontext()
        return self._tap.span(name, component=component,
                              instance=instance, hop=hop)

    def _leaf(self, name: str, seconds: float, component: str) -> None:
        """Explicit deterministic cost leaf (no-op when untraced)."""
        if self._tap is not None:
            self._tap.leaf(name, seconds, component=component)

    # -- event heap ----------------------------------------------------------

    def _push(self, when: float, fn: Callable[[], None]) -> None:
        self._sequence += 1
        heapq.heappush(self._events, (when, self._sequence, fn))

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.clock.now()

    # -- setup ---------------------------------------------------------------

    def _client(self, identity: str) -> CloudClient:
        """Logged-in portal client of one identity (session reused)."""
        client = self._clients.get(identity)
        if client is None:
            # Login cost is setup, not steady-state load: capture and
            # discard so the run starts at a clean clock.  Tracing is
            # muted for the same reason — discarded charges must not
            # appear in the trace either, or traced totals would stop
            # matching the capture sums the stations replay.
            with self.clock.trace_muted(), self.clock.capture():
                client = self.system.client(self.keypairs[identity])
            self._clients[identity] = client
        return client

    # -- station plumbing ----------------------------------------------------

    def _portal_station(self, process_id: str) -> str:
        """Name of the station serving *process_id*'s portal work."""
        if self.system.placement is None:
            return "portal"
        return f"portal:{self.system.placement.portal_for(process_id)}"

    def _captured_visits(self, charges: dict[str, float],
                         portal_station: str = "portal",
                         tfc_cost: float = 0.0,
                         ) -> list[tuple[Station, float]]:
        """Turn a capture's seconds per tag, plus a submission's
        modelled (never clock-charged) *tfc_cost*, into an ordered
        station-visit list."""
        by = dict(charges)
        # Anything untagged was charged by a component without a
        # station of its own; bill it to the front door.
        extra = by.pop("misc", 0.0)
        if extra:
            by["portal"] = by.get("portal", 0.0) + extra
        by["tfc"] = tfc_cost
        visits: list[tuple[Station, float]] = []
        for name in _STAGE_ORDER:
            if by.get(name, 0.0) > 0.0:
                station = portal_station if name == "portal" else name
                visits.append((self.stations[station], by[name]))
        return visits

    def _chain(self, visits: list[tuple[Station, float]],
               on_done: Callable[[], None]) -> None:
        """Thread a job through *visits*, then fire *on_done*.

        Must be called while processing an event (the first visit
        arrives "now"); every subsequent visit is its own event so
        station arrivals stay in nondecreasing time order.
        """
        if not visits:
            on_done()
            return
        (station, cost), rest = visits[0], visits[1:]
        end = station.submit(self.now, cost)
        if self._tap is not None:
            # Zero-duration marker: the visit's cost was already traced
            # when it was charged/captured, so advancing the cursor here
            # would double-count it.
            self._tap.instant(f"station.{station.name}", component="fleet",
                              detail=f"{cost:.9f}")
        self._push(end, lambda: self._chain(rest, on_done))

    # -- instance lifecycle ---------------------------------------------------

    def _process_id(self, index: int) -> str:
        return f"fleet{self.config.seed}-{index:06d}"

    def _launch(self) -> None:
        """Inject one new instance (event handler, runs at arrival)."""
        index = self._started
        self._started += 1
        arrival = self.now
        if self._first_arrival is None:
            self._first_arrival = arrival
        designer = self.workload.designer
        initial = build_initial_document(
            self.definition,
            self.keypairs[designer],
            process_id=self._process_id(index),
            backend=self.system.backend,
            # Simulated creation time: the host wall clock's varying
            # float width would leak into document sizes and break
            # byte-identical reports.
            created_at=arrival,
        )
        instance = _Instance(index=index, process_id=initial.process_id,
                             arrival=arrival, inflight=1)
        self._instances[initial.process_id] = instance

        client = self._client(designer)
        with self._span("launch", component="fleet",
                        instance=initial.process_id,
                        hop=self.definition.start_activity):
            sign_cost = _COSTS.initial_sign(initial.size_bytes)
            self._leaf("crypto.initial_sign", sign_cost, "crypto")
            with self.clock.capture() as captured:
                client.upload_initial(initial)
        portal_station = self._portal_station(initial.process_id)
        visits = [(self.stations[f"aea:{designer}"], sign_cost)]
        visits += self._captured_visits(captured, portal_station)
        start_activity = self.definition.start_activity
        self._chain(visits,
                    lambda: self._resolve(instance, [start_activity]))

    def _schedule_hop(self, instance: _Instance, activity_id: str) -> None:
        instance.inflight += 1
        delay = think_time(self.rng, self.config.think_seconds)
        self._push(self.now + delay,
                   lambda: self._hop(instance, activity_id))

    def _join_ready(self, instance: _Instance, activity_id: str) -> bool:
        """AND-join gate against *simulated* branch completion."""
        activity = self.definition.activity(activity_id)
        if activity.join is not JoinKind.AND:
            return True
        iteration = sum(1 for (done_id, _) in instance.done_hops
                        if done_id == activity_id)
        return all(
            (predecessor, iteration) in instance.done_hops
            for predecessor in self.definition.predecessors(activity_id)
        )

    def _hop(self, instance: _Instance, activity_id: str) -> None:
        """One activity execution attempt (event handler)."""
        with self._span("hop", component="fleet",
                        instance=instance.process_id, hop=activity_id):
            self._hop_traced(instance, activity_id)

    def _hop_traced(self, instance: _Instance, activity_id: str) -> None:
        participant = self.definition.activity(activity_id).participant
        portal_station = self._portal_station(instance.process_id)
        # The participant's TO-DO poll is a pool scan like any other:
        # it queues at the pool station ahead of the hop.
        with self.clock.capture() as poll_cost:
            pending = {
                (entry.process_id, entry.activity_id)
                for entry in self.system.pool.todo_for(participant)
            }
        polled = self._captured_visits(poll_cost, portal_station)
        if (instance.process_id, activity_id) not in pending:
            # A sibling attempt already executed this hop.
            self._join_retries += 1
            self._chain(polled, lambda: self._resolve(instance, []))
            return
        if not self._join_ready(instance, activity_id):
            # Some incoming branch has not *finished* in simulated
            # time; its completion will schedule a fresh attempt.
            self._join_retries += 1
            self._chain(polled, lambda: self._resolve(instance, []))
            return

        responder = self.workload.responders.get(activity_id)
        if responder is None:
            raise FleetError(
                f"workload {self.workload.name!r} has no responder for "
                f"activity {activity_id!r}"
            )
        client = self._client(participant)
        wire_before = client.bytes_received + client.bytes_sent
        try:
            with self.clock.capture() as retrieve_cost:
                result = client.checkout(instance.process_id, activity_id,
                                         responder)
        except JoinNotReady:
            # Defensive: the simulated gate should have caught this.
            self._join_retries += 1
            self._chain(polled + self._captured_visits(retrieve_cost,
                                                       portal_station),
                        lambda: self._resolve(instance, []))
            return

        with self.clock.capture() as submit_cost:
            entries = client.submit_document(result.document)
        self._hops += 1

        # Crypto costs are charged on the *full* canonical sizes in
        # both routing modes: delta routing shrinks the wire and the
        # store, never what gets hashed, verified, or signed.
        aea_cost = _COSTS.aea_execute(result.timings.signatures_verified,
                                      result.report.document.size_bytes)
        if self.system.delta_routing:
            hop_wire = (client.bytes_received + client.bytes_sent
                        - wire_before)
            aea_cost += _COSTS.delta_overhead(hop_wire)
        tfc_cost = _COSTS.tfc_process(result.timings.signatures_verified + 1,
                                      result.document.size_bytes)
        self._leaf("crypto.aea_execute", aea_cost, "crypto")
        self._leaf("crypto.tfc_process", tfc_cost, "crypto")
        visits = polled + self._captured_visits(retrieve_cost,
                                                portal_station)
        visits.append((self.stations[f"aea:{participant}"], aea_cost))
        visits += self._captured_visits(submit_cost, portal_station,
                                        tfc_cost)

        next_activities = [entry.activity_id for entry in entries]
        done = (activity_id, result.iteration)
        self._chain(
            visits,
            lambda: self._resolve(instance, next_activities, done),
        )

    def _resolve(self, instance: _Instance,
                 next_activities: list[str],
                 done_hop: tuple[str, int] | None = None) -> None:
        """Retire one in-flight hop; fan out successors or finish."""
        if done_hop is not None:
            instance.done_hops.add(done_hop)
        instance.inflight -= 1
        for activity_id in next_activities:
            self._schedule_hop(instance, activity_id)
        if instance.inflight == 0:
            self._complete(instance)

    def _complete(self, instance: _Instance) -> None:
        self._completed += 1
        self._last_completion = self.now
        self._latencies.append(round(self.now - instance.arrival, 9))
        every = self.config.audit_every
        if every and (self._completed - 1) % every == 0:
            self._audit(instance)
        if self._lifecycle is not None:
            self._retirable.append(instance.process_id)
            # Sample the hot footprint at every completion, so the peak
            # covers growth *between* sweeps too.
            self._lifecycle["peak_hot_bytes"] = max(
                self._lifecycle["peak_hot_bytes"],
                self.system.pool.chunks.stats["unique_bytes"],
            )
            if self._completed % self.config.gc_interval == 0:
                self._lifecycle_sweep()
        arrivals = self.config.arrivals
        if (isinstance(arrivals, ClosedLoop)
                and self._started < arrivals.instances):
            self._launch()

    def _trust(self) -> dict[str, object]:
        """Verification-only trust snapshot for archive exports."""
        if self._trust_snapshot is None:
            self._trust_snapshot = self.system.directory.to_public_dict()
        return self._trust_snapshot

    def _lifecycle_sweep(self) -> None:
        """Archive + compact + retire finished instances.

        Runs as part of a completion event: the pool work's simulated
        cost is captured and billed to the pool station, so lifecycle
        maintenance competes for the same storage capacity the hot path
        uses — throughput numbers stay honest.
        """
        from ..document.archive import export_archive

        pool = self.system.pool
        life = self._lifecycle
        assert life is not None and pool.chunks is not None
        before = pool.chunks.stats
        with self._span("lifecycle.sweep", component="pool"):
            with self.clock.capture() as captured:
                for process_id in self._retirable:
                    if self.config.archive_sink is not None:
                        bundle = export_archive(pool, process_id,
                                                self._trust())
                        self.config.archive_sink(process_id, bundle)
                        life["archives_exported"] += 1
                    pool.archive(process_id)
                    life["manifests_compacted"] += pool.compact(process_id)
                    pool.retire(process_id)
                    life["instances_retired"] += 1
                self._retirable.clear()
                pool.flush_hot_tables()
            after = pool.chunks.stats
            life["sweeps"] += 1
            life["chunks_deleted"] += (before["unique_chunks"]
                                       - after["unique_chunks"])
            life["bytes_reclaimed"] += (before["unique_bytes"]
                                        - after["unique_bytes"])
            self._chain(self._captured_visits(captured), lambda: None)

    def _audit(self, instance: _Instance) -> None:
        """Cold full-cascade re-verification of a finished instance.

        Its pool read is captured and billed to the pool station, as
        the lifecycle sweep's work is, so an audit queues for storage
        like any other read instead of moving the clock mid-event.
        """
        self._audited += 1
        with self._span("audit", component="crypto",
                        instance=instance.process_id):
            with self.clock.capture() as captured:
                failed = audit_failed(self.system, instance.process_id)
            if failed:
                self._audit_failures += 1
            self._chain(self._captured_visits(
                captured, self._portal_station(instance.process_id)),
                lambda: None)

    # -- main loop ------------------------------------------------------------

    def run(self) -> FleetReport:
        """Execute the configured arrival process; return the report."""
        arrivals = self.config.arrivals
        if isinstance(arrivals, OpenLoop):
            for when in arrivals.arrival_times(self.rng, start=self.now):
                self._push(when, self._launch)
        else:
            for _ in range(arrivals.initial_batch()):
                self._push(self.now, self._launch)

        processed = 0
        while self._events:
            processed += 1
            if processed > _MAX_EVENTS:
                raise FleetError(
                    f"fleet exceeded {_MAX_EVENTS} events "
                    f"(runaway loop?)"
                )
            when, _, fn = heapq.heappop(self._events)
            if when > self.clock.now():
                self.clock.advance_to(when)
            fn()

        return self._report(processed)

    # -- reporting ------------------------------------------------------------

    @property
    def instances(self) -> dict[str, _Instance]:
        """Per-process bookkeeping of every launched instance (read-only)."""
        return dict(self._instances)

    def queue_depths(self) -> dict[str, list[tuple[float, int]]]:
        """Per-station queue-depth time series (merged steps)."""
        return {name: station.queue_depth_series()
                for name, station in sorted(self.stations.items())}

    def _metrics(self, report: FleetReport,
                 tap: Tracer) -> dict[str, object]:
        """Registry snapshot of the finished report, the tap's
        per-component totals and the signature cache's counters."""
        reg = MetricsRegistry()
        for component, us in tap.component_totals().items():
            reg.counter("sim_us_total", component=component).inc(us)
        reg.counter("wire_bytes", direction="to_cloud").inc(
            report.bytes_to_cloud)
        reg.counter("wire_bytes", direction="from_cloud").inc(
            report.bytes_from_cloud)
        reg.counter("hops_total").inc(report.hops_executed)
        reg.counter("instances_started_total").inc(report.instances_started)
        reg.counter("instances_completed_total").inc(
            report.instances_completed)
        reg.counter("join_retries_total").inc(report.join_retries)
        reg.counter("audits_total").inc(report.instances_audited)
        reg.counter("audit_failures_total").inc(report.audit_failures)
        for key, value in report.chunk_store.items():
            reg.counter(f"chunk_store_{key}").inc(value)
        cache = self.system.verify_cache
        if cache is not None:
            reg.counter("verify_cache_hits_total").inc(cache.stats.hits)
            reg.counter("verify_cache_misses_total").inc(
                cache.stats.misses)
            reg.gauge("verify_cache_hit_rate").set(cache.stats.hit_rate)
        life = report.lifecycle
        if life:
            reg.counter("lifecycle_sweeps_total").inc(life["sweeps"])
            for name in ("instances_retired", "manifests_compacted",
                         "chunks_deleted", "bytes_reclaimed"):
                reg.counter(f"{name}_total").inc(life[name])
            reg.gauge("chunk_store_hot_bytes").set(life["hot_unique_bytes"])
            reg.gauge("chunk_store_peak_hot_bytes").set(
                life["peak_hot_bytes"])
        for name, m in report.stations.items():
            reg.gauge("queue_depth_max", station=name).set(
                m.max_queue_depth)
            reg.gauge("utilization", station=name).set(m.utilization)
        hist = reg.histogram("latency_seconds")
        for latency in report.latencies:
            hist.observe(latency)
        return reg.snapshot()

    def _report(self, events_processed: int) -> FleetReport:
        first = self._first_arrival or 0.0
        makespan = (round(self._last_completion - first, 9)
                    if self._completed else 0.0)
        throughput = (round(self._completed / makespan, 9)
                      if makespan > 0 else 0.0)
        horizon = self._last_completion if self._completed else self.now
        clients = self._clients.values()
        store = self.system.pool.chunks
        chunk_stats = store.stats if store is not None else {}
        placement = self.system.placement
        placement_dict: dict[str, object] = {}
        storage: dict[str, int] = {}
        if placement is not None:
            # The sharded-tier observability section: only emitted in
            # ring mode so legacy round-robin reports stay byte-stable.
            placement_dict = placement.to_dict()
            hb = self.system.hbase
            storage = {
                "region_splits": hb.stats["splits"],
                "region_moves": hb.stats["moves"],
                "memstore_flushes": hb.stats["flushes"],
                "regions": sum(len(s.regions) for s in
                               hb.servers.values()),
            }
        lifecycle_dict: dict[str, object] = {}
        if self._lifecycle is not None:
            lifecycle_dict = dict(self._lifecycle)
            lifecycle_dict["hot_unique_bytes"] = chunk_stats["unique_bytes"]
            lifecycle_dict["hot_unique_chunks"] = \
                chunk_stats["unique_chunks"]
            lifecycle_dict["chunk_cache"] = {
                "hits": sum(c.chunks.hits for c in clients),
                "misses": sum(c.chunks.misses for c in clients),
                "evictions": sum(c.chunks.evictions for c in clients),
                "evicted_bytes": sum(c.chunks.evicted_bytes
                                     for c in clients),
                "resident_bytes": sum(c.chunks.total_bytes
                                      for c in clients),
            }
        report = FleetReport(
            workload=self.workload.name,
            mode=self.config.arrivals.mode,
            seed=self.config.seed,
            routing="delta" if self.system.delta_routing else "full",
            bytes_to_cloud=sum(c.bytes_sent for c in clients),
            bytes_from_cloud=sum(c.bytes_received for c in clients),
            chunk_store=dict(sorted(chunk_stats.items())),
            instances_started=self._started,
            instances_completed=self._completed,
            hops_executed=self._hops,
            events_processed=events_processed,
            makespan_seconds=makespan,
            horizon_seconds=horizon,
            throughput_per_second=throughput,
            latencies=list(self._latencies),
            stations={name: station.metrics(horizon)
                      for name, station in self.stations.items()},
            instances_audited=self._audited,
            audit_failures=self._audit_failures,
            join_retries=self._join_retries,
            placement=placement_dict,
            storage=storage,
            lifecycle=lifecycle_dict,
        )
        if self._tap is not None:
            report.metrics = self._metrics(report, self._tap)
        return report


def build_fleet(workload: FleetWorkload,
                config: FleetConfig,
                portals: int = 2,
                backend=None,
                delta_routing: bool = False,
                placement: str = "round-robin",
                chunk_replicas: int | None = None,
                split_threshold_rows: int = 256) -> Fleet:
    """Stand up a world + cloud + fleet for *workload* in one call.

    Enrolls the workload's identities plus the cloud's TFC, wires a
    shared :class:`VerificationCache` through portals and TFC, and
    returns a ready-to-``run()`` :class:`Fleet`.  With
    ``delta_routing`` the pool stores content-addressed CER chunks and
    every client moves manifest + unseen chunks instead of full
    documents (see docs/ROUTING.md).  ``placement="ring"`` turns on the
    sharded portal tier: consistent-hash instance→portal pinning with
    per-portal stations in the report; ``chunk_replicas`` additionally
    replicates delta chunks factor-R over the region servers (see
    docs/SHARDING.md).
    """
    from ..workloads.participants import build_world

    world = build_world([*workload.identities, TFC_IDENTITY],
                        backend=backend)
    system = CloudSystem(
        world.directory,
        world.keypair(TFC_IDENTITY),
        portals=portals,
        backend=world.backend,
        verify_cache=VerificationCache(),
        delta_routing=delta_routing,
        placement=placement,
        chunk_replicas=chunk_replicas,
        split_threshold_rows=split_threshold_rows,
        chunk_cache_bytes=config.chunk_cache_bytes,
    )
    return Fleet(system, workload, world.keypairs, config)
