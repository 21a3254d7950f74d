"""Workloads, seeded inputs, the closed loop and the output checks.

Everything here drives the public API of ``repro.cloud`` and
``repro.fleet``.  One thread runs a closed loop: the designer builds and
uploads an instance, then the participants poll their TO-DO lists in
workload order and execute what they find, and the next instance starts
only when the previous one completes.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.cloud.system import CloudClient, CloudSystem
from repro.document.builder import build_initial_document
from repro.document.document import Dra4wfmsDocument
from repro.document.sections import (
    DESIGNER_ACTIVITY,
    KIND_DEFINITION,
    KIND_INTERMEDIATE,
    KIND_TFC,
)
from repro.document.vcache import VerificationCache
from repro.document.verify import verify_document
from repro.errors import (
    JoinNotReady,
    PortalError,
    SignatureError,
    VerificationError,
)
from repro.fleet.fleet import TFC_IDENTITY
from repro.fleet.pool_exec import RealFleetConfig, run_real_fleet
from repro.fleet.report import RealFleetReport
from repro.fleet.workload import FleetWorkload, workload_from_spec
from repro.workloads.participants import World, build_world

from hostspeed import HostSpeed

#: Closed-loop hops per ``--seconds``: 25 s gives the 1000 hops at which
#: ``hop_ms_p99`` has ten samples beyond it.  The work is fixed by this
#: sizing, never by a deadline, because per-hop cost grows with the pool.
HOPS_PER_SECOND = 40
#: Real-mode (process pool) runs per traced run, and instances per
#: ``--seconds`` in each.
FLEET_RUNS = 4
FLEET_INSTANCES_PER_SECOND = 0.4
#: Worker processes of the real-mode phase (this host has two cores).
FLEET_WORKERS = 2
#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPS = 3
#: Instances each set-up drives to completion before timing starts.
WARMUP_INSTANCES = 2
#: Read-phase and analytics passes per run (medians are reported).
READ_PASSES = 5
#: Documents audited between two host-speed probes.
AUDIT_GROUP = 8
#: RSA modulus of every generated key, the paper's key size.
KEY_BITS = 1024
#: Byte counts of one seed may differ by this share between runs.  With
#: delta routing, chunk digests (which depend on the keys) decide where
#: HBase regions split; the split flushes move the simulated clock, and
#: the TFC timestamps printed from it change width by a digit or so.
BYTES_TOLERANCE = 1e-4


class CheckFailed(Exception):
    """An output of the program differs from what the workload implies."""


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``repro.fleet`` workload spec.
    spec: str
    #: Extra trips around fig9's loop (every fig9 activity is on it).
    loops: int
    #: Delta document routing instead of full-document routing.
    delta: bool
    why: str

    def resolve(self) -> FleetWorkload:
        return workload_from_spec(self.spec, loops=self.loops)


WORKLOADS = {
    "fig9": Workload(
        "fig9", "fig9", loops=1, delta=False,
        why="paper Table 2 run: short documents, AND-split/join and XOR "
            "loop; per-hop fixed cost and full-routing storage dominate"),
    "chain-delta": Workload(
        "chain-delta", "chain:16:4", loops=0, delta=True,
        why="16-step cascades over 4 returning participants with delta "
            "routing: chunking, chunk store, memo-warm C14N, vcache"),
}


@dataclass
class Ops:
    """Attempted and failed operations per type, plus join retries."""

    attempted: Counter = field(default_factory=Counter)
    failed: Counter = field(default_factory=Counter)
    join_retries: int = 0

    def add(self, kind: str, count: int = 1, failed: int = 0) -> None:
        self.attempted[kind] += count
        self.failed[kind] += failed


@dataclass
class Inputs:
    """Everything a run is given, generated from the seed before timing."""

    workload: Workload
    spec: FleetWorkload
    warmup_ids: list[str]
    process_ids: list[str]
    fleet_instances: int
    fleet_seed: int

    @property
    def iterations(self) -> int:
        return self.workload.loops + 1

    @property
    def hops_per_instance(self) -> int:
        return len(self.spec.definition.activities) * self.iterations


def process_id(seed: int, kind: str, index: int) -> str:
    """Fixed-width id from ``(seed, index)``, shaped like a uuid4 hex."""
    return hashlib.sha256(f"{seed}:{kind}:{index}".encode()).hexdigest()[:32]


def make_inputs(workload: Workload, seed: int, seconds: int) -> Inputs:
    spec = workload.resolve()
    per_instance = len(spec.definition.activities) * (workload.loops + 1)
    instances = max(2, math.ceil(seconds * HOPS_PER_SECOND / per_instance))
    digest = hashlib.sha256(f"{seed}:fleet".encode()).digest()
    return Inputs(
        workload=workload,
        spec=spec,
        warmup_ids=[process_id(seed, "warmup", i)
                    for i in range(WARMUP_INSTANCES)],
        process_ids=[process_id(seed, "timed", i) for i in range(instances)],
        fleet_instances=max(2, math.ceil(seconds * FLEET_INSTANCES_PER_SECOND)),
        # Nine digits always, so real-mode process ids (and every byte
        # count) have the same width for every seed.
        fleet_seed=10**8 + int.from_bytes(digest[:4], "big") % (9 * 10**8),
    )


def new_world(inputs: Inputs, backend) -> World:
    """Fresh keys for every identity of the workload plus the TFC."""
    return build_world([*inputs.spec.identities, TFC_IDENTITY],
                       bits=KEY_BITS, backend=backend)


# -- the closed loop --------------------------------------------------------


@dataclass
class Deployment:
    """One long-lived default cloud and its logged-in clients."""

    world: World
    system: CloudSystem
    clients: dict[str, CloudClient]
    completed: list[str] = field(default_factory=list)

    def wire_bytes(self) -> int:
        return sum(c.bytes_sent + c.bytes_received
                   for c in self.clients.values())

    def stored_bytes(self) -> int:
        """HBase cell bytes over every table of the cloud."""
        return sum(region.data_bytes
                   for server in self.system.hbase.servers.values()
                   for region in server.regions)


def deploy(inputs: Inputs, world: World) -> Deployment:
    """The default cloud (2 portals, 2 region servers, 3 datanodes,
    replication 3, one shared verification cache) plus every login."""
    system = CloudSystem(
        world.directory, world.keypair(TFC_IDENTITY),
        backend=world.backend, verify_cache=VerificationCache(),
        delta_routing=inputs.workload.delta,
    )
    clients = {identity: system.client(world.keypair(identity))
               for identity in inputs.spec.identities}
    return Deployment(world, system, clients)


def run_instance(dep: Deployment, spec: FleetWorkload, pid: str, ops: Ops,
                 hop_seconds: list[float]) -> None:
    """Drive one instance to completion; time every completed hop."""
    initial = build_initial_document(
        spec.definition, dep.world.keypair(spec.designer), process_id=pid,
        backend=dep.system.backend, created_at=0.0,
    )
    try:
        dep.clients[spec.designer].upload_initial(initial)
    except PortalError:
        ops.add("upload", failed=1)
        return
    ops.add("upload")
    participants = [client for identity, client in dep.clients.items()
                    if identity != spec.designer]
    while True:
        pending = progressed = False
        for client in participants:
            for entry in client.todo():
                if entry.process_id != pid:
                    continue
                pending = True
                responder = spec.responders[entry.activity_id]
                start = time.perf_counter()
                try:
                    client.execute(pid, entry.activity_id, responder)
                except JoinNotReady:
                    ops.join_retries += 1
                    continue
                except PortalError:
                    ops.add("hop", failed=1)
                    return
                hop_seconds.append(time.perf_counter() - start)
                ops.add("hop")
                progressed = True
        if not pending:
            dep.completed.append(pid)
            return
        if not progressed:
            raise CheckFailed(f"instance {pid} deadlocked")


def setup(inputs: Inputs, worlds: list[World], ops: Ops, speed: HostSpeed,
          ) -> tuple[Deployment, list[float], list[dict]]:
    """Build, log in and warm up one cloud per world.

    Returns the last deployment (the one the timed phases use), the
    seconds of each set-up, and each set-up's deterministic counts.
    """
    seconds, fingerprints = [], []
    dep = None
    for world in worlds:
        dep = None  # release the previous cloud before building the next
        speed.begin()
        start = time.perf_counter()
        dep = deploy(inputs, world)
        total = speed.scale(time.perf_counter() - start)
        for pid in inputs.warmup_ids:
            start = time.perf_counter()
            run_instance(dep, inputs.spec, pid, ops, [])
            total += speed.scale(time.perf_counter() - start)
        seconds.append(total)
        fingerprints.append(fingerprint(dep, inputs.warmup_ids))
    return dep, seconds, fingerprints


@dataclass
class WritePhase:
    #: Write-phase and per-hop seconds, corrected for host speed.
    seconds: float
    hop_seconds: list[float]
    #: The same phase in raw wall-clock seconds.
    raw_seconds: float
    wire_bytes: int


def write_phase(dep: Deployment, inputs: Inputs, ops: Ops,
                speed: HostSpeed) -> WritePhase:
    """Every timed instance, each scaled by the host speed around it."""
    hop_seconds: list[float] = []
    seconds = raw = 0.0
    wire = dep.wire_bytes()
    speed.begin()
    for pid in inputs.process_ids:
        hops: list[float] = []
        start = time.perf_counter()
        run_instance(dep, inputs.spec, pid, ops, hops)
        elapsed = time.perf_counter() - start
        factor = speed.factor()
        raw += elapsed
        seconds += elapsed * factor
        hop_seconds.extend(hop * factor for hop in hops)
    return WritePhase(seconds, hop_seconds, raw, dep.wire_bytes() - wire)


def fingerprint(dep: Deployment, pids: list[str]) -> dict:
    """Counts that repeat exactly for one seed, whatever the keys."""
    pool = dep.system.pool
    return {
        "completed": len([p for p in dep.completed if p in pids]),
        "wire_bytes": dep.wire_bytes(),
        "stored_bytes": dep.stored_bytes(),
        "document_bytes": sum(len(pool.latest_bytes(p)) for p in pids),
    }


# -- read phase, analytics, real mode ---------------------------------------


def expected_cers(inputs: Inputs) -> Counter:
    """(CER key, signer) of a completed instance of the workload."""
    spec = inputs.spec
    expected = Counter({((DESIGNER_ACTIVITY, 0, KIND_DEFINITION),
                         spec.designer): 1})
    for activity in spec.definition.activities.values():
        for iteration in range(inputs.iterations):
            expected[((activity.activity_id, iteration, KIND_INTERMEDIATE),
                      activity.participant)] += 1
            expected[((activity.activity_id, iteration, KIND_TFC),
                      TFC_IDENTITY)] += 1
    return expected


def read_phase(dep: Deployment, inputs: Inputs, ops: Ops, speed: HostSpeed,
               ) -> tuple[float, dict[str, int]]:
    """Cold-verify every completed document, fetched through the
    designer's portal session, ``READ_PASSES`` times.

    Returns the median documents per second and each document's size.
    A verifier verdict is a failed audit; any other exception is a fault
    of the program or the harness and aborts the run.
    """
    designer = dep.clients[inputs.spec.designer]
    directory, backend = dep.world.directory, dep.system.backend
    expected = expected_cers(inputs)
    rates, sizes = [], {}
    for _ in range(READ_PASSES):
        documents = []
        seconds = 0.0
        speed.begin()
        for group in range(0, len(dep.completed), AUDIT_GROUP):
            start = time.perf_counter()
            for pid in dep.completed[group:group + AUDIT_GROUP]:
                data = designer.portal.retrieve(designer.session, pid)
                document = Dra4wfmsDocument.from_bytes(data)
                try:
                    verify_document(document, directory, backend,
                                    tfc_identities={TFC_IDENTITY})
                except (VerificationError, SignatureError):
                    ops.add("audit", failed=1)
                    continue
                ops.add("audit")
                documents.append((pid, len(data), document))
            seconds += speed.scale(time.perf_counter() - start)
        rates.append(len(dep.completed) / seconds)
        for pid, size, document in documents:
            found = Counter((cer.key, cer.participant)
                            for cer in document.cers())
            if found != expected:
                raise CheckFailed(f"document {pid} carries CERs "
                                  f"{sorted(found - expected)} too many and "
                                  f"{sorted(expected - found)} too few")
            sizes[pid] = size
    return statistics.median(rates), sizes


def analytics(dep: Deployment, inputs: Inputs, ops: Ops,
              speed: HostSpeed) -> float:
    """The three §4.2 MapReduce jobs over the whole pool; median ms."""
    system, spec = dep.system, inputs.spec
    docs = len(dep.completed)
    per_activity = {a: inputs.iterations * docs
                    for a in spec.definition.activities}
    per_participant: Counter = Counter()
    for activity in spec.definition.activities.values():
        per_participant[activity.participant] += inputs.iterations * docs
    per_instance = {pid: inputs.hops_per_instance for pid in dep.completed}
    timings = []
    for _ in range(READ_PASSES):
        results, seconds = [], 0.0
        speed.begin()
        for job in (system.activity_statistics, system.participant_workload,
                    system.instance_progress):
            start = time.perf_counter()
            results.append(job()[0])
            seconds += speed.scale(time.perf_counter() - start)
        timings.append(seconds)
        ops.add("job", 3)
        for job, got, want in zip(
                ("activity_statistics", "participant_workload",
                 "instance_progress"),
                results, (per_activity, dict(per_participant), per_instance)):
            if got != want:
                raise CheckFailed(f"{job} returned {got}, expected {want}")
    return statistics.median(timings) * 1000


def fleet_phase(inputs: Inputs, world: World, workers: int, runs: int,
                ops: Ops) -> list[RealFleetReport]:
    """*runs* identical ``run_real_fleet`` calls on the workload's spec,
    every instance audited."""
    workload = inputs.workload
    config = RealFleetConfig(
        spec=workload.spec, instances=inputs.fleet_instances,
        seed=inputs.fleet_seed, workers=workers, loops=workload.loops,
        audit_every=1, delta_routing=workload.delta,
    )
    want = {"instances": inputs.fleet_instances,
            "hops_executed": inputs.fleet_instances * inputs.hops_per_instance,
            "instances_audited": inputs.fleet_instances}
    reports = []
    for _ in range(runs):
        report = run_real_fleet(config, world=world)
        ops.add("fleet_instance", report.instances_audited,
                failed=report.audit_failures)
        got = {key: report.deterministic_dict()[key] for key in want}
        if got != want:
            raise CheckFailed(f"real-mode run reported {got}, expected {want}")
        for key in ("bytes_to_cloud", "bytes_from_cloud"):
            # Every instance runs alone in a fresh cloud under a process
            # id of the same width, so all move the same bytes.
            if getattr(report, key) % inputs.fleet_instances:
                raise CheckFailed(f"real-mode {key} differs between instances")
        reports.append(report)
    check_equal("real-mode deterministic counts",
                [report.deterministic_dict() for report in reports])
    return reports


def check_equal(what: str, values: list) -> None:
    """All *values* must be identical (deterministic counts)."""
    if any(value != values[0] for value in values[1:]):
        raise CheckFailed(f"{what} differ between runs of one seed: {values}")


def check_repeat(what: str, prints: list[dict]) -> None:
    """Fingerprints of one seed: counts exact, byte counts within
    :data:`BYTES_TOLERANCE` (reported when not exact)."""
    check_equal(what, [{k: v for k, v in p.items() if not k.endswith("_bytes")}
                       for p in prints])
    for key in (k for k in prints[0] if k.endswith("_bytes")):
        values = [p[key] for p in prints]
        spread = (max(values) - min(values)) / max(values)
        if spread > BYTES_TOLERANCE:
            raise CheckFailed(f"{what}: {key} differ between runs of one "
                              f"seed: {values}")
        if spread:
            print(f"note: {what}: {key} differ by "
                  f"{max(values) - min(values)} bytes between runs of one seed")


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (p99 of 1000 leaves ten samples beyond)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]
