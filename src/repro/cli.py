"""Command-line interface: inspect, verify, and audit DRA4WfMS documents.

Usage (also via ``python -m repro``):

.. code-block:: bash

    # Generate a demo world + executed document to play with
    python -m repro demo --out /tmp/dra

    # Structural inspection (no keys needed)
    python -m repro inspect /tmp/dra/final_document.xml

    # Full cryptographic verification against the saved PKI
    python -m repro verify --world /tmp/dra/world.json \\
        /tmp/dra/final_document.xml

    # Chronological audit trail
    python -m repro trail /tmp/dra/final_document.xml

    # Dispute evidence for one activity execution
    python -m repro evidence --world /tmp/dra/world.json \\
        --activity D --iteration 1 /tmp/dra/final_document.xml
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from .core.audit import extract_evidence, render_trail
from .document.document import Dra4wfmsDocument
from .document.nonrepudiation import nonrepudiation_scope
from .document.verify import verify_document
from .errors import ReproError
from .workloads.participants import World

__all__ = ["main", "build_parser"]


def _load_document(path: str) -> Dra4wfmsDocument:
    return Dra4wfmsDocument.from_bytes(pathlib.Path(path).read_bytes())


def _load_world(path: str) -> World:
    """Load either a full world or a public (verification-only) trust file."""
    data = json.loads(pathlib.Path(path).read_text())
    authorities = data.get("authorities") or []
    if authorities and "public_key" in authorities[0]:
        return World.from_public_dict(data)
    return World.from_dict(data)


def cmd_demo(args: argparse.Namespace) -> int:
    """Create a demo world, run Fig. 9A, save world + final document."""
    from .core.runtime import InMemoryRuntime
    from .document.builder import build_initial_document
    from .workloads.figure9 import (
        DESIGNER,
        PARTICIPANTS,
        figure9_responders,
        figure_9a_definition,
    )
    from .workloads.participants import build_world

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    definition = figure_9a_definition()
    world = build_world([DESIGNER, *PARTICIPANTS.values()])
    initial = build_initial_document(definition, world.keypair(DESIGNER))
    runtime = InMemoryRuntime(world.directory, world.keypairs)
    trace = runtime.run(initial, definition,
                        figure9_responders(args.loops))

    (out / "world.json").write_text(json.dumps(world.to_dict()))
    (out / "trust.json").write_text(json.dumps(world.to_public_dict()))
    (out / "initial_document.xml").write_bytes(initial.to_bytes())
    (out / "final_document.xml").write_bytes(
        trace.final_document.to_bytes()
    )
    print(f"wrote {out}/world.json (full), trust.json (public keys "
          f"only — hand this to auditors), initial_document.xml, "
          f"final_document.xml ({trace.final_size} bytes, "
          f"{len(trace.steps)} executions)")
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    """Structural listing of a document (no keys required)."""
    document = _load_document(args.document)
    print(f"process      : {document.process_name} "
          f"({document.process_id})")
    print(f"designer     : {document.designer}")
    print(f"size         : {document.size_bytes} bytes")
    print(f"definition   : "
          f"{'encrypted' if document.definition_is_encrypted else 'plain'}")
    cers = document.cers(include_definition=False)
    print(f"CERs         : {len(cers)}")
    for cer in cers:
        timestamp = (f" t={cer.timestamp}" if cer.timestamp is not None
                     else "")
        print(f"  {cer.cer_id:20s} {cer.kind:12s} "
              f"{cer.activity_id}^{cer.iteration} by "
              f"{cer.participant}{timestamp}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    """Cryptographically verify a document against a saved world."""
    document = _load_document(args.document)
    world = _load_world(args.world)
    try:
        report = verify_document(document, world.directory)
    except ReproError as exc:
        print(f"INVALID: {type(exc).__name__}: {exc}")
        return 1
    print(f"VALID: {report.signatures_verified} signatures verified, "
          f"{report.cers_checked} CERs checked"
          + (f"; warnings: {report.warnings}" if report.warnings else ""))
    return 0


def cmd_archive(args: argparse.Namespace) -> int:
    """Seal a document into a cold-verifiable archival bundle."""
    from .document.archive import build_archive

    document = _load_document(args.document)
    world = _load_world(args.world)
    bundle = build_archive(document, world,
                           tfc_identities=args.tfc or ())
    data = bundle.to_bytes()
    pathlib.Path(args.out).write_bytes(data)
    print(f"wrote {args.out} ({len(data)} bytes: "
          f"{len(bundle.chunks)} chunks, "
          f"{len(bundle.trust.get('certificates', []))} certificates, "
          f"process {bundle.process_id})")
    return 0


def cmd_verify_archive(args: argparse.Namespace) -> int:
    """Cold-verify an archival bundle — no pool, HBase, or network."""
    from .document.archive import verify_archive

    data = pathlib.Path(args.bundle).read_bytes()
    try:
        report = verify_archive(data)
    except ReproError as exc:
        print(f"INVALID: {type(exc).__name__}: {exc}")
        return 1
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return 0
    print(f"VALID: {report.signatures_verified} signatures verified, "
          f"{report.cers_checked} CERs checked, "
          f"{report.chunks_checked} chunks re-hashed "
          f"({report.doc_bytes} document bytes)"
          + (f"; warnings: {report.warnings}" if report.warnings else ""))
    return 0


def cmd_trail(args: argparse.Namespace) -> int:
    """Print the chronological audit trail."""
    print(render_trail(_load_document(args.document)))
    return 0


def cmd_scope(args: argparse.Namespace) -> int:
    """Print the nonrepudiation scope of one CER (Algorithm 1)."""
    document = _load_document(args.document)
    cer = (document.find_cer(args.activity, args.iteration)
           or document.find_cer(args.activity, args.iteration, "tfc"))
    if cer is None:
        print(f"no CER for {args.activity}^{args.iteration}")
        return 1
    scope = nonrepudiation_scope(document, cer)
    print(f"nonrepudiation scope of {cer.cer_id} "
          f"(signed by {cer.participant}):")
    for item in scope:
        print(f"  {item.cer_id:20s} by {item.participant}")
    return 0


def cmd_evidence(args: argparse.Namespace) -> int:
    """Print the dispute-evidence report for one execution."""
    document = _load_document(args.document)
    world = _load_world(args.world)
    bundle = extract_evidence(document, world.directory,
                              args.activity, args.iteration)
    print(bundle.render_report())
    return 0 if bundle.document_valid else 1


def _write_trace_outputs(tracer, args: argparse.Namespace) -> None:
    """Serialize a finished tracer to the files the user asked for."""
    from .obs import to_folded_stacks, write_chrome_trace

    if args.trace:
        size = write_chrome_trace(tracer, args.trace)
        print(f"trace: wrote {args.trace} ({size} bytes, "
              f"{len(tracer.spans)} spans, {len(tracer.charges)} events; "
              f"open in https://ui.perfetto.dev)", file=sys.stderr)
    if args.trace_folded:
        text = to_folded_stacks(tracer)
        pathlib.Path(args.trace_folded).write_text(text)
        print(f"trace: wrote {args.trace_folded} "
              f"({len(text.splitlines())} folded stacks)", file=sys.stderr)


def cmd_loadtest(args: argparse.Namespace) -> int:
    """Run a multi-instance fleet load test and print the report."""
    from .fleet import (
        ClosedLoop,
        FleetConfig,
        OpenLoop,
        RealFleetConfig,
        build_fleet,
        run_real_fleet,
        workload_from_spec,
    )

    try:
        workload = workload_from_spec(args.workflow, loops=args.loops)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # --replication and --gc-interval only make sense over the chunk
    # store, so either implies delta routing.
    delta = (args.delta or args.replication is not None
             or args.gc_interval > 0)
    if args.archive_out and not args.gc_interval:
        print("error: --archive-out requires --gc-interval (bundles "
              "are exported by the lifecycle sweep)", file=sys.stderr)
        return 2
    tracer = None
    if args.trace or args.trace_folded:
        from .obs import Tracer
        tracer = Tracer()
    if args.real:
        if args.metrics:
            print("note: --metrics needs the simulated fleet report; "
                  "ignored with --real", file=sys.stderr)
        if args.gc_interval or args.archive_out or args.chunk_cache_bytes:
            print("note: --gc-interval/--archive-out/--chunk-cache-bytes "
                  "need the simulated fleet; ignored with --real",
                  file=sys.stderr)
        config = RealFleetConfig(
            spec=args.workflow,
            instances=args.instances,
            seed=args.seed,
            workers=args.workers,
            loops=args.loops,
            audit_every=args.audit_every,
            delta_routing=delta,
            portals=args.portals,
            placement=args.placement,
            chunk_replicas=args.replication,
            split_threshold_rows=args.split_rows,
        )
        report = run_real_fleet(config, tracer=tracer)
        if tracer is not None:
            _write_trace_outputs(tracer, args)
        if args.json:
            print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        else:
            print(report.render())
        return 0 if report.audit_failures == 0 else 1
    if args.mode == "open":
        arrivals = OpenLoop(instances=args.instances,
                            rate_per_second=args.rate)
    else:
        arrivals = ClosedLoop(instances=args.instances,
                              concurrency=args.concurrency)
    archive_sink = None
    if args.archive_out:
        out_dir = pathlib.Path(args.archive_out)
        out_dir.mkdir(parents=True, exist_ok=True)

        def archive_sink(process_id: str, bundle) -> None:
            (out_dir / f"{process_id}.json").write_bytes(
                bundle.to_bytes())

    config = FleetConfig(
        arrivals=arrivals,
        seed=args.seed,
        think_seconds=args.think,
        tfc_workers=args.tfc_workers,
        audit_every=args.audit_every,
        tracer=tracer,
        collect_metrics=args.metrics,
        gc_interval=args.gc_interval,
        chunk_cache_bytes=args.chunk_cache_bytes,
        archive_sink=archive_sink,
    )
    fleet = build_fleet(workload, config, portals=args.portals,
                        delta_routing=delta,
                        placement=args.placement,
                        chunk_replicas=args.replication,
                        split_threshold_rows=args.split_rows)
    report = fleet.run()
    if tracer is not None:
        _write_trace_outputs(tracer, args)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0 if report.audit_failures == 0 else 1


def cmd_trace_report(args: argparse.Namespace) -> int:
    """Validate + summarize a Chrome trace written by ``loadtest --trace``."""
    from .obs import summarize_chrome_trace, validate_chrome_trace

    payload = json.loads(pathlib.Path(args.trace_file).read_text())
    try:
        counts = validate_chrome_trace(payload)
    except ValueError as exc:
        print(f"INVALID trace: {exc}", file=sys.stderr)
        return 1
    rows = summarize_chrome_trace(payload)
    total_us = sum(int(row["sim_us"]) for row in rows)
    print(f"valid trace: {counts['spans']} spans, {counts['leaves']} "
          f"charge leaves, {counts['instants']} instants "
          f"({total_us / 1e6:.6f} sim-seconds)")
    print(f"{'component':<12} {'spans':>8} {'leaves':>8} "
          f"{'sim_us':>14} {'share':>8}")
    for row in rows:
        print(f"{row['component']:<12} {row['spans']:>8} "
              f"{row['leaves']:>8} {row['sim_us']:>14} "
              f"{float(row['share']) * 100:>7.2f}%")
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    """Render the (effective) workflow definition of a document."""
    from .document.amendments import effective_definition
    from .model.render import to_ascii, to_dot

    document = _load_document(args.document)
    definition = effective_definition(document)
    if args.format == "dot":
        print(to_dot(definition))
    else:
        print(to_ascii(definition))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DRA4WfMS document tooling (IPDPSW 2012 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="generate a demo world + document")
    demo.add_argument("--out", required=True, help="output directory")
    demo.add_argument("--loops", type=int, default=1,
                      help="loop iterations before acceptance")
    demo.set_defaults(func=cmd_demo)

    inspect = sub.add_parser("inspect", help="structural listing")
    inspect.add_argument("document")
    inspect.set_defaults(func=cmd_inspect)

    verify = sub.add_parser("verify", help="cryptographic verification")
    verify.add_argument("document")
    verify.add_argument("--world", required=True,
                        help="world.json with the PKI")
    verify.set_defaults(func=cmd_verify)

    archive = sub.add_parser(
        "archive",
        help="seal a document into a cold-verifiable archival bundle")
    archive.add_argument("document")
    archive.add_argument("--world", required=True,
                         help="world.json or trust.json with the PKI")
    archive.add_argument("--out", required=True,
                         help="bundle output path")
    archive.add_argument("--tfc", action="append", default=None,
                         metavar="IDENTITY",
                         help="identity accepted as a TFC server "
                              "(repeatable)")
    archive.set_defaults(func=cmd_archive)

    verify_archive = sub.add_parser(
        "verify-archive",
        help="cold-verify an archival bundle (no pool/HBase/network)")
    verify_archive.add_argument("bundle")
    verify_archive.add_argument("--json", action="store_true",
                                help="emit the verification summary "
                                     "as JSON")
    verify_archive.set_defaults(func=cmd_verify_archive)

    trail = sub.add_parser("trail", help="chronological audit trail")
    trail.add_argument("document")
    trail.set_defaults(func=cmd_trail)

    scope = sub.add_parser("scope", help="nonrepudiation scope of a CER")
    scope.add_argument("document")
    scope.add_argument("--activity", required=True)
    scope.add_argument("--iteration", type=int, default=0)
    scope.set_defaults(func=cmd_scope)

    render = sub.add_parser("render",
                            help="render the workflow definition")
    render.add_argument("document")
    render.add_argument("--format", choices=("dot", "ascii"),
                        default="ascii")
    render.set_defaults(func=cmd_render)

    loadtest = sub.add_parser(
        "loadtest",
        help="run a concurrent multi-instance fleet load test")
    loadtest.add_argument("--instances", type=int, default=100,
                          help="process instances to run")
    loadtest.add_argument("--seed", type=int, default=0,
                          help="PRNG seed (same seed → same report)")
    loadtest.add_argument("--mode", choices=("open", "closed"),
                          default="open",
                          help="open = Poisson arrivals, closed = fixed "
                               "concurrency with re-submission")
    loadtest.add_argument("--rate", type=float, default=5.0,
                          help="open loop: mean arrivals per sim-second")
    loadtest.add_argument("--concurrency", type=int, default=10,
                          help="closed loop: instances in flight")
    loadtest.add_argument("--workflow", default="fig9",
                          help="fig9, chain:N[:P] or diamond:N[:P] "
                               "(P participants cycling)")
    loadtest.add_argument("--loops", type=int, default=0,
                          help="extra loop iterations (fig9 only)")
    loadtest.add_argument("--think", type=float, default=0.0,
                          help="mean participant think time, sim-seconds")
    loadtest.add_argument("--portals", type=int, default=2,
                          help="portal servers")
    loadtest.add_argument("--placement", choices=("round-robin", "ring"),
                          default="round-robin",
                          help="instance→portal placement: ring pins "
                               "each instance to one portal by "
                               "consistent hash and reports per-portal "
                               "load (see docs/SHARDING.md)")
    loadtest.add_argument("--replication", type=int, default=None,
                          metavar="R",
                          help="replicate delta chunks over R region-"
                               "server shards with read-repair "
                               "(implies --delta)")
    loadtest.add_argument("--split-rows", type=int, default=256,
                          help="HBase region auto-split row threshold")
    loadtest.add_argument("--tfc-workers", type=int, default=1,
                          help="parallel TFC verify/sign workers")
    loadtest.add_argument("--audit-every", type=int, default=25,
                          help="cold-verify every Nth completion "
                               "(0 disables)")
    loadtest.add_argument("--delta", action="store_true",
                          help="delta document routing: ship only the "
                               "CER chunks each side has not seen")
    loadtest.add_argument("--gc-interval", type=int, default=0,
                          metavar="N",
                          help="storage-lifecycle sweep: every N "
                               "completions, archive+compact+retire "
                               "finished instances and delete their "
                               "chunks (implies --delta; 0 disables)")
    loadtest.add_argument("--chunk-cache-bytes", type=int, default=None,
                          metavar="B",
                          help="LRU byte budget per client chunk cache "
                               "(delta mode; default unbounded)")
    loadtest.add_argument("--archive-out", metavar="DIR", default=None,
                          help="export a cold-verifiable archival "
                               "bundle per retired instance into DIR "
                               "(requires --gc-interval)")
    loadtest.add_argument("--real", action="store_true",
                          help="true-parallel mode: run instances over "
                               "an OS process pool instead of the "
                               "discrete-event simulation")
    loadtest.add_argument("--workers", type=int, default=1,
                          help="worker processes for --real (aggregates "
                               "are identical for any worker count)")
    loadtest.add_argument("--json", action="store_true",
                          help="emit the full report as JSON")
    loadtest.add_argument("--trace", metavar="OUT.json", default=None,
                          help="write a Chrome trace-event file of the "
                               "run (view at https://ui.perfetto.dev)")
    loadtest.add_argument("--trace-folded", metavar="OUT.txt",
                          default=None,
                          help="write flamegraph folded stacks "
                               "(span;span;leaf microseconds)")
    loadtest.add_argument("--metrics", action="store_true",
                          help="collect the component metrics registry "
                               "and embed its snapshot in the report "
                               "(sim mode)")
    loadtest.set_defaults(func=cmd_loadtest)

    trace_report = sub.add_parser(
        "trace-report",
        help="validate + summarize a loadtest --trace file")
    trace_report.add_argument("trace_file",
                              help="Chrome trace JSON from --trace")
    trace_report.set_defaults(func=cmd_trace_report)

    evidence = sub.add_parser("evidence",
                              help="dispute evidence for one execution")
    evidence.add_argument("document")
    evidence.add_argument("--world", required=True)
    evidence.add_argument("--activity", required=True)
    evidence.add_argument("--iteration", type=int, default=0)
    evidence.set_defaults(func=cmd_evidence)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout piped into a pager/head that closed early — not an error
        return 0
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
