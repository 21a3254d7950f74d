"""Delta routing: bytes *and host wall clock* for a long instance.

The acceptance claim of the delta-routing design (docs/ROUTING.md): a
50-activity sequential workflow cycling 5 participants moves **at most
15%** of the bytes full routing moves, because every hop after a
participant's first visit ships only the CERs appended since they last
held the document.  Since the chunker memoisation pass, delta mode must
also win on *host* wall clock — chunking is no longer allowed to cost
more than the serialisation it replaces.  Host time is the median of
:data:`ROUNDS` alternating rounds per mode, so one slow run on a shared
host cannot decide the gate.  Both claims are asserted from the emitted
``BENCH_delta_routing.json`` payload, so the machine-readable artifact
and the test can never disagree.
"""

from __future__ import annotations

import json
import statistics
import time

from conftest import emit_bench, emit_table
from repro.fleet import ClosedLoop, FleetConfig, build_fleet, workload_from_spec

SPEC = "chain:50:5"
SEED = 7
ACCEPTANCE_RATIO = 0.15
#: Runs per mode; each round alternates which mode runs first.
ROUNDS = 3


def _run(delta: bool):
    fleet = build_fleet(
        workload_from_spec(SPEC),
        FleetConfig(arrivals=ClosedLoop(instances=1, concurrency=1),
                    seed=SEED, audit_every=1),
        delta_routing=delta,
    )
    started = time.perf_counter()
    report = fleet.run()
    return report, time.perf_counter() - started


def _wire(report) -> int:
    return report.bytes_to_cloud + report.bytes_from_cloud


def _rounds() -> dict[bool, list]:
    """``(report, host seconds)`` per mode over :data:`ROUNDS` rounds,
    alternating which mode runs first."""
    runs: dict[bool, list] = {False: [], True: []}
    for index in range(ROUNDS):
        for delta in ((False, True) if index % 2 == 0 else (True, False)):
            runs[delta].append(_run(delta))
    return runs


def test_delta_moves_under_15_percent_of_full():
    runs = _rounds()
    (full, _), (delta, _) = runs[False][0], runs[True][0]
    full_rounds = [host for _, host in runs[False]]
    delta_rounds = [host for _, host in runs[True]]
    full_host = statistics.median(full_rounds)
    delta_host = statistics.median(delta_rounds)

    assert full.instances_completed == delta.instances_completed == 1
    assert full.audit_failures == delta.audit_failures == 0
    assert delta.hops_executed == full.hops_executed

    ratio = _wire(delta) / _wire(full)
    assert ratio <= ACCEPTANCE_RATIO, (
        f"delta routing moved {ratio:.1%} of full-routing bytes "
        f"(acceptance bar: {ACCEPTANCE_RATIO:.0%})"
    )

    rows = [
        [report.routing, _wire(report), report.bytes_to_cloud,
         report.bytes_from_cloud, f"{report.makespan_seconds:.3f}",
         f"{report.throughput_per_second:.3f}",
         f"{report.latency_p50:.3f}", f"{report.latency_p99:.3f}"]
        for report in (full, delta)
    ]
    rows.append(["ratio", f"{ratio:.4f}", "", "", "", "", "", ""])
    emit_table(
        "delta_routing",
        f"Delta vs full document routing — {SPEC}, 1 closed-loop instance",
        ["routing", "wire B", "to cloud", "from cloud", "makespan",
         "inst/sim-s", "p50", "p99"],
        rows,
    )

    def as_dict(report, host_seconds, host_rounds):
        return {
            "routing": report.routing,
            "bytes_on_wire": _wire(report),
            "bytes_to_cloud": report.bytes_to_cloud,
            "bytes_from_cloud": report.bytes_from_cloud,
            "makespan_seconds": report.makespan_seconds,
            "throughput_per_second": report.throughput_per_second,
            "latency_p50": report.latency_p50,
            "latency_p99": report.latency_p99,
            "hops_executed": report.hops_executed,
            "host_seconds": round(host_seconds, 3),
            "host_seconds_rounds": [round(host, 3) for host in host_rounds],
            "chunk_store": report.chunk_store,
        }

    emitted = emit_bench("delta_routing", {
        "workload": SPEC,
        "seed": SEED,
        "acceptance_ratio": ACCEPTANCE_RATIO,
        "measured_ratio": round(ratio, 4),
        "rounds": ROUNDS,
        "full": as_dict(full, full_host, full_rounds),
        "delta": as_dict(delta, delta_host, delta_rounds),
    })

    # Wall-clock regression gate, asserted from the emitted artifact:
    # delta routing must beat full routing on median *host* time too,
    # or the chunker memoisation has regressed (it used to lose by
    # ~30%).
    payload = json.loads(emitted)
    assert (payload["delta"]["host_seconds"]
            <= payload["full"]["host_seconds"]), (
        f"delta routing took a median {payload['delta']['host_seconds']}s "
        f"host time vs {payload['full']['host_seconds']}s for full "
        f"routing over {ROUNDS} rounds — "
        f"the chunking hot path has regressed"
    )
