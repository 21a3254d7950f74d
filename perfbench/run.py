"""The repository's benchmark: one command, two workloads.

    python3 perfbench/run.py --workload fig9 --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` repeats the write phase with the outside-in wrappers of
``layers.py`` installed and prints the per-layer metrics instead; its
spans are written to ``perfbench/out/``.  Either way every output is
checked, and the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A wrong output exits
with code 1 and prints no metrics.  See ``perfbench/README.md``.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Every end-to-end metric an untraced run prints, with its unit.
END_TO_END = (
    ("setup_s", "s"),
    ("hop_ms_p50", "ms"),
    ("hop_ms_p99", "ms"),
    ("instances_per_s", "1/s"),
    ("audit_docs_per_s", "1/s"),
    ("analytics_ms", "ms"),
    ("wire_kb_per_hop", "KiB"),
    ("stored_bytes_per_doc_byte", "ratio"),
    ("peak_rss_mb", "MiB"),
)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def plain_run(h, inputs, import_seconds: float, ops, speed,
              ) -> dict[str, float]:
    """Untraced run: set-up, write phase, read phase, analytics."""
    from repro.crypto.fast import FastBackend

    # Key generation is input generation: all of it happens first.
    worlds = [h.new_world(inputs, FastBackend()) for _ in range(h.SETUP_REPS)]

    dep, setup_seconds, prints = h.setup(inputs, worlds, ops, speed)
    h.check_repeat("set-up counts", prints)
    write = h.write_phase(dep, inputs, ops, speed)
    hops = len(write.hop_seconds)
    if hops != len(inputs.process_ids) * inputs.hops_per_instance:
        raise h.CheckFailed(f"write phase completed {hops} hops")
    audit_rate, sizes = h.read_phase(dep, inputs, ops, speed)
    analytics_ms = h.analytics(dep, inputs, ops, speed)
    stored_ratio = dep.stored_bytes() / sum(sizes.values())
    probe_ms = sorted(p * 1000 for p in speed.probes)
    print(f"raw write phase {write.raw_seconds:.3f} s, corrected "
          f"{write.seconds:.3f} s; host probe ms min {probe_ms[0]:.3f} "
          f"median {statistics.median(probe_ms):.3f} max {probe_ms[-1]:.3f}")
    return {
        "setup_s": import_seconds + statistics.median(setup_seconds),
        "hop_ms_p50": statistics.median(write.hop_seconds) * 1000,
        "hop_ms_p99": h.quantile(write.hop_seconds, 0.99) * 1000,
        "instances_per_s": len(inputs.process_ids) / write.seconds,
        "audit_docs_per_s": audit_rate,
        "analytics_ms": analytics_ms,
        "wire_kb_per_hop": write.wire_bytes / 1024 / hops,
        "stored_bytes_per_doc_byte": stored_ratio,
        "peak_rss_mb": peak_rss_mb(),
    }


def cache_stats(dep) -> dict[str, int]:
    """Cumulative cache, storage and fallback counters of a cloud."""
    system = dep.system
    vcache = system.verify_cache.stats
    return {
        "vcache_hits": vcache.hits,
        "vcache_misses": vcache.misses,
        "chunk_hits": sum(c.chunks.hits for c in dep.clients.values()),
        "chunk_misses": sum(c.chunks.misses for c in dep.clients.values()),
        "fallbacks": sum(p.stats["delta_fallbacks"] for p in system.portals),
        "flushes": system.hbase.stats["flushes"],
        "splits": system.hbase.stats["splits"],
    }


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def traced_run(h, inputs, seed: int, ops, speed):
    """Untraced reference, then the same work with every layer wrapped."""
    import layers
    from repro.crypto.fast import FastBackend

    rec = layers.Recorder()
    worlds = [h.new_world(inputs, FastBackend()) for _ in range(h.SETUP_REPS)]
    traced_worlds = [
        h.new_world(inputs, layers.TracedBackend(FastBackend(), rec))
        for _ in range(h.SETUP_REPS)
    ]
    fleet_worlds = [h.new_world(inputs, FastBackend()) for _ in range(2)]

    # The untraced reference: the same write phase, and the real-mode
    # runs at full width (the efficiency figures come from these).
    dep, _, prints = h.setup(inputs, worlds, ops, speed)
    plain = h.write_phase(dep, inputs, ops, speed)
    reference = h.fingerprint(dep, inputs.process_ids)
    del dep
    fleet = h.fleet_phase(inputs, fleet_worlds[0], h.FLEET_WORKERS,
                          h.FLEET_RUNS, ops)

    layers.install(rec)
    crypto_calls = []
    for index, world in enumerate(traced_worlds):
        rec.begin(f"setup{index}")
        dep, _, traced_prints = h.setup(inputs, [world], ops, speed)
        calls = rec.end()["calls"]
        crypto_calls.append(sorted((key, n) for key, n in calls.items()
                                   if key[0].startswith("crypto.")))
        prints += traced_prints
    h.check_repeat("set-up counts", prints)
    h.check_equal("crypto operations of the set-up", crypto_calls)

    before = cache_stats(dep)
    retries, attempts = ops.join_retries, ops.attempted["hop"]
    rec.begin("write")
    traced = h.write_phase(dep, inputs, ops, speed)
    write = rec.end()
    after = cache_stats(dep)
    retries = ops.join_retries - retries
    attempts = ops.attempted["hop"] - attempts + retries
    h.check_repeat("write-phase counts",
                   [reference, h.fingerprint(dep, inputs.process_ids)])
    if write["hops"] != len(plain.hop_seconds):
        raise h.CheckFailed(f"traced write phase completed {write['hops']} "
                            f"hops, untraced {len(plain.hop_seconds)}")
    h.read_phase(dep, inputs, ops, speed)
    h.analytics(dep, inputs, ops, speed)
    chunks = dep.system.pool.chunks
    dedup = chunks.dedup_ratio if chunks is not None else 0.0
    del dep

    rec.begin("fleet")
    (traced_fleet,) = h.fleet_phase(inputs, fleet_worlds[1], 1, 1, ops)
    fleet_record = rec.end()
    h.check_equal("real-mode deterministic counts",
                  [fleet[0].deterministic_dict(),
                   traced_fleet.deterministic_dict()])
    build = rec.name_id("fleet.cloud_build")
    build_ns = sum(end - start for name, start, end, parent, _
                   in layers.spans_of(fleet_record)
                   if name == build and parent < 0)

    delta = {key: after[key] - before[key] for key in after}
    host = [s for report in fleet for s in report.host_seconds_per_instance]
    extra = {
        "document.vcache.hit_ratio": ratio(
            delta["vcache_hits"], delta["vcache_hits"] + delta["vcache_misses"]),
        "document.delta.client_cache_hit_ratio": ratio(
            delta["chunk_hits"], delta["chunk_hits"] + delta["chunk_misses"]),
        "document.delta.fallbacks": delta["fallbacks"],
        "document.delta.dedup_ratio": dedup,
        "core.aea.join_retry_ratio": ratio(retries, attempts),
        "cloud.hbase.flushes": delta["flushes"],
        "cloud.hbase.splits": delta["splits"],
        "fleet.parallel_efficiency": sum(host) / sum(
            report.wall_seconds * report.workers for report in fleet),
        "fleet.instance_host_ms_p50": statistics.median(host) * 1000,
        "fleet.cloud_build_ms_per_instance": (
            build_ns / 1e6 / traced_fleet.instances),
        "fleet.world_payload_kb": len(
            pickle.dumps(fleet_worlds[0].to_dict())) / 1024,
        "trace.overhead_ratio": plain.seconds / traced.seconds,
    }
    metrics, shares = layers.layer_metrics(rec, write, extra)
    out = HERE / "out" / f"spans-{inputs.workload.name}-seed{seed}.json.gz"
    rec.dump(out)
    hop_ms = statistics.median(traced.hop_seconds) * 1000
    print(f"traced hop median {hop_ms:.3f} ms at the host's usual speed; "
          f"spans written to {out}")
    print("layer self-time share of traced hop time:")
    for name, share in shares:
        print(f"  {name:28s} {share * 100:6.2f} %")
    return metrics


def check_declared(kind: str, units: dict[str, str]) -> None:
    """The metrics printed must be exactly those BENCHMARK.json declares."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return
    declared = {m["name"]: m["unit"]
                for m in json.loads(path.read_text())[kind]}
    if declared != units:
        raise RuntimeError(f"BENCHMARK.json {kind} metrics differ from the "
                           f"ones printed: {sorted(set(declared) ^ set(units))}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25,
                        help="sizes the work (hops, instances); not a deadline")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: {src / 'repro'} not found; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import harness as h
    from hostspeed import HostSpeed

    import_seconds = time.perf_counter() - _START
    speed = HostSpeed()
    import_seconds *= speed.factor()
    workload = h.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r} (choose from "
              f"{', '.join(h.WORKLOADS)})", file=sys.stderr)
        return 2
    inputs = h.make_inputs(workload, args.seed, args.seconds)
    ops = h.Ops()
    if args.trace:
        import layers

        kind, units = "per_layer", dict(layers.PER_LAYER)
    else:
        kind, units = "end_to_end", dict(END_TO_END)
    check_declared(kind, units)
    try:
        if args.trace:
            values = traced_run(h, inputs, args.seed, ops, speed)
        else:
            values = plain_run(h, inputs, import_seconds, ops, speed)
        problem = None
    except h.CheckFailed as exc:
        problem = str(exc)
    attempted = sum(ops.attempted.values())
    failed = sum(ops.failed.values())
    print(f"workload {workload.name} seed {args.seed}: "
          + ", ".join(f"{op} {ops.attempted[op]} attempted "
                      f"{ops.failed[op]} failed"
                      for op in sorted(ops.attempted))
          + f", join retries {ops.join_retries}")
    if problem is not None or failed:
        print(f"perfbench: wrong output: {problem or f'{failed} failed'}",
              file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1
    for name, value in values.items():
        print(f"  {name:42s} {value:14.6f} {units[name]}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
