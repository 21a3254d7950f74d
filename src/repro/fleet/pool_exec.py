"""True-parallel fleet execution over a multiprocess worker pool.

The discrete-event :class:`~repro.fleet.fleet.Fleet` simulates
concurrency on one host thread; this module instead runs instances
*really* concurrently: a :class:`~concurrent.futures.ProcessPoolExecutor`
fans a population of independent process instances out over OS
processes, each doing the full cryptographic work end to end.

Design constraints that shape the code:

* **Picklable work units.**  Responder closures, key directories and
  live cloud components do not pickle, so nothing of that sort crosses
  the process boundary.  The pool initializer hands each worker the
  frozen :class:`RealFleetConfig` itself plus the world's
  :meth:`~repro.workloads.participants.World.to_dict` snapshot; the
  worker rebuilds the world, and the workload from its spec string,
  once.  Per-instance work units are then just integers, and results
  come back as the plain :class:`InstanceResult` value object.
* **Placement-independent determinism.**  Every instance gets its
  *own* :class:`~repro.cloud.system.CloudSystem` (fresh HBase regions,
  fresh caches) and a process id derived from ``(seed, index)``, so an
  instance's documents, byte counts and simulated charges do not
  depend on which worker ran it or what ran before it on that worker.
  ``--workers 1`` and ``--workers N`` therefore produce identical
  deterministic aggregates (see ``RealFleetReport.deterministic_dict``
  and ``tests/fleet/test_real_mode.py``).
* **Nothing dropped at the boundary.**  Each instance runs inside
  ``clock.capture()``; its simulated seconds per component come back as
  plain ``(component, seconds)`` pairs, and the parent adds them up in
  instance-index order, so per-component attribution survives the
  process boundary and the sums do not depend on the worker count.

The audit hook cold-verifies every ``audit_every``-th instance *by
index* (the simulated fleet audits by completion order, which is not
stable under real concurrency).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

from ..cloud.system import CloudSystem, drive_instance
from ..document.builder import build_initial_document
from ..document.vcache import VerificationCache
from ..obs.tracer import Tracer
from ..workloads.participants import World, build_world
from .fleet import TFC_IDENTITY, audit_failed
from .report import RealFleetReport
from .workload import FleetWorkload, workload_from_spec

__all__ = ["RealFleetConfig", "InstanceResult", "run_real_fleet"]


@dataclass(frozen=True)
class RealFleetConfig:
    """Knobs of one true-parallel (``--real``) fleet run."""

    #: Workload spec string (``fig9``, ``chain:N[:P]``, …) — shipped to
    #: workers instead of the unpicklable responder closures.
    spec: str
    instances: int
    seed: int = 0
    #: OS worker processes (1 = run inline in this process, same code).
    workers: int = 1
    #: Extra loop iterations for loop-guarded workloads (``fig9``).
    loops: int = 0
    #: Cold-re-verify every Nth instance *by index* (0 disables).
    audit_every: int = 25
    #: Delta document routing inside each instance's cloud.
    delta_routing: bool = False
    #: Portals per per-instance cloud.
    portals: int = 2
    #: ``"ring"`` pins each instance to one portal by consistent hash
    #: (and reports instances-per-portal); default keeps round-robin.
    placement: str = "round-robin"
    #: Factor-R replication of delta chunks over the region servers
    #: (requires ``delta_routing``; ``None`` keeps the single store).
    chunk_replicas: int | None = None
    #: HBase region auto-split threshold (rows) per per-instance cloud.
    split_threshold_rows: int = 256


@dataclass
class InstanceResult:
    """Picklable per-instance outcome returned by a pool worker."""

    index: int
    process_id: str
    hops: int
    bytes_to_cloud: int
    bytes_from_cloud: int
    audited: bool
    audit_failed: bool
    #: Per-component simulated seconds, sorted by component name.
    charges: list[tuple[str, float]] = field(default_factory=list)
    #: Host wall-clock seconds this instance took inside its worker.
    host_seconds: float = 0.0
    #: Portal id that served this instance ("" unless ring placement).
    portal: str = ""
    #: HBase region splits inside this instance's cloud.
    region_splits: int = 0
    #: Serialized worker-side :meth:`repro.obs.Tracer.payload` (``None``
    #: unless the run was traced) — the parent re-bases and merges it.
    trace: dict[str, object] | None = None


@dataclass
class _Worker:
    """What one worker process runs instances with."""

    config: RealFleetConfig
    world: World
    workload: FleetWorkload
    trace: bool


# Set once per process by :func:`_init_worker`.
_worker: _Worker | None = None


def _init_worker(config: RealFleetConfig, world: dict[str, object],
                 trace: bool) -> None:
    """Pool initializer: rebuild world + workload inside this process."""
    global _worker
    _worker = _Worker(config, World.from_dict(world),
                      workload_from_spec(config.spec, loops=config.loops),
                      trace)


def _run_instance(index: int) -> InstanceResult:
    """One complete process instance inside a (possibly pooled) worker."""
    assert _worker is not None
    config, world, workload = _worker.config, _worker.world, _worker.workload

    start = time.perf_counter()
    # Fresh per-INSTANCE cloud: determinism must not depend on which
    # worker process ran the instance or what ran there before.
    system = CloudSystem(
        world.directory,
        world.keypair(TFC_IDENTITY),
        portals=config.portals,
        backend=world.backend,
        verify_cache=VerificationCache(),
        delta_routing=config.delta_routing,
        placement=config.placement,
        chunk_replicas=config.chunk_replicas,
        split_threshold_rows=config.split_threshold_rows,
    )
    process_id = f"real{config.seed}-{index:06d}"
    # Per-instance tracer: each worker collects its own span tree (over
    # a fresh cursor) and ships it back as a picklable payload; the
    # parent re-bases and concatenates them in index order, the order
    # it adds up the instances' simulated seconds in.
    tracer = Tracer() if _worker.trace else None
    if tracer is not None:
        system.attach_tracer(tracer)
    with system.clock.capture() as captured, (
            tracer.span("instance", component="fleet", instance=process_id)
            if tracer is not None else nullcontext()):
        initial = build_initial_document(
            workload.definition, world.keypair(workload.designer),
            process_id=process_id, backend=system.backend,
            # Simulated creation time, as in the event-driven fleet: host
            # wall clocks would leak varying float widths into byte counts.
            created_at=0.0,
        )
        clients = {
            identity: system.client(world.keypair(identity))
            for identity in workload.identities
        }
        clients[workload.designer].upload_initial(initial)
        hops = drive_instance(
            [client for identity, client in clients.items()
             if identity != workload.designer],
            process_id, workload.responders,
        )
        audited = bool(config.audit_every) and index % config.audit_every == 0
        failed = audited and audit_failed(system, process_id)
    return InstanceResult(
        index=index,
        process_id=process_id,
        hops=hops,
        bytes_to_cloud=sum(c.bytes_sent for c in clients.values()),
        bytes_from_cloud=sum(c.bytes_received for c in clients.values()),
        audited=audited,
        audit_failed=failed,
        charges=sorted(captured.items()),
        host_seconds=time.perf_counter() - start,
        portal=(system.portal_for(process_id).portal_id
                if system.placement is not None else ""),
        region_splits=system.hbase.stats["splits"],
        trace=tracer.payload() if tracer is not None else None,
    )


def run_real_fleet(config: RealFleetConfig,
                   world: World | None = None,
                   tracer: Tracer | None = None) -> RealFleetReport:
    """Run *config.instances* instances over a real OS process pool.

    *world* lets callers reuse one generated PKI world across several
    runs (key generation is the expensive, non-deterministic part; the
    determinism test passes the same world to the ``workers=1`` and
    ``workers=N`` runs it compares).  When omitted, a fresh world is
    built for the workload's identities.

    *tracer* (optional) collects every instance's worker-side span tree:
    workers trace locally and the payloads merge back here in index
    order, so the assembled trace is identical for ``--workers 1`` and
    ``--workers N`` — the same guarantee the deterministic aggregates
    make.
    """
    if config.instances < 0:
        raise ValueError("instances must be non-negative")
    if config.workers < 1:
        raise ValueError("workers must be at least 1")
    workload = workload_from_spec(config.spec, loops=config.loops)
    if world is None:
        world = build_world([*workload.identities, TFC_IDENTITY])
    initargs = (config, world.to_dict(), tracer is not None)

    wall_start = time.perf_counter()
    indices = range(config.instances)
    if config.workers == 1 or config.instances <= 1:
        # Same code path as the pool, minus the processes: initialize
        # this process as "the worker" and map inline.
        _init_worker(*initargs)
        results = [_run_instance(index) for index in indices]
    else:
        with ProcessPoolExecutor(
            max_workers=config.workers,
            initializer=_init_worker,
            initargs=initargs,
        ) as pool:
            chunksize = max(1, config.instances // (config.workers * 4))
            results = list(pool.map(_run_instance, indices,
                                    chunksize=chunksize))
    wall_seconds = time.perf_counter() - wall_start

    # Results arrive in index order from pool.map, but sort defensively:
    # aggregate sums below must not depend on completion order.
    results.sort(key=lambda r: r.index)
    if tracer is not None:
        for result in results:
            if result.trace is not None:
                tracer.absorb(result.trace)
    totals: dict[str, float] = {}
    for result in results:
        for component, seconds in result.charges:
            totals[component] = totals.get(component, 0.0) + seconds
    sim_seconds = {component: round(seconds, 9)
                   for component, seconds in totals.items()}

    portal_counts: dict[str, int] = {}
    for result in results:
        if result.portal:
            portal_counts[result.portal] = (
                portal_counts.get(result.portal, 0) + 1)

    return RealFleetReport(
        workload=workload.name,
        routing="delta" if config.delta_routing else "full",
        seed=config.seed,
        workers=config.workers,
        instances=len(results),
        hops_executed=sum(r.hops for r in results),
        bytes_to_cloud=sum(r.bytes_to_cloud for r in results),
        bytes_from_cloud=sum(r.bytes_from_cloud for r in results),
        instances_audited=sum(1 for r in results if r.audited),
        audit_failures=sum(1 for r in results if r.audit_failed),
        sim_seconds=sim_seconds,
        portals=portal_counts,
        region_splits=sum(r.region_splits for r in results),
        host_seconds_per_instance=[r.host_seconds for r in results],
        wall_seconds=wall_seconds,
        cpu_count=os.cpu_count() or 1,
    )
