"""Observability integration: tracing the cloud + fleet end to end.

Four guarantees anchor the tracer's integration:

1. **Span-tree invariants.**  Parents strictly enclose children; the
   cursor is monotone; every charged microsecond is a leaf under some
   span — the exported Chrome trace passes structural validation.
2. **Capture agreement.**  Every charge a clock capture adds up lands
   as one leaf, rounded on its own to the microsecond — tracing is an
   observer of the charge stream, never a second bookkeeper.
3. **Determinism.**  Same seed ⇒ byte-identical exported trace, and
   worker-count-independent traces in real mode.
4. **Strict no-op when off.**  A traced run's report (minus the opt-in
   ``metrics`` section) is byte-identical to the untraced golden.
"""

from __future__ import annotations

import json
import pathlib

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cloud.simclock import SimClock
from repro.cloud.system import CloudSystem, run_process_in_cloud
from repro.document.builder import build_initial_document
from repro.document.vcache import VerificationCache
from repro.fleet import (
    ClosedLoop,
    FleetConfig,
    RealFleetConfig,
    build_fleet,
    run_real_fleet,
    workload_from_spec,
)
from repro.fleet.fleet import TFC_IDENTITY, Fleet
from repro.obs import (
    Tracer,
    microseconds,
    to_chrome_trace,
    validate_chrome_trace,
)
from repro.workloads.generator import participant_pool
from repro.workloads.participants import build_world

GOLDENS = pathlib.Path(__file__).parent / "goldens"

#: The committed-golden fleet configuration (see test_real_mode.py).
GOLDEN_SPEC = "chain:6:3"


def golden_config(**extra) -> FleetConfig:
    return FleetConfig(arrivals=ClosedLoop(instances=8, concurrency=3),
                       seed=7, audit_every=2, **extra)


def run_traced(tracer: Tracer | None = None, **config_extra):
    fleet = build_fleet(workload_from_spec(GOLDEN_SPEC),
                        golden_config(tracer=tracer, **config_extra))
    return fleet, fleet.run()


class TestSpanTreeInvariants:
    def trace_fleet(self) -> Tracer:
        tracer = Tracer()
        run_traced(tracer)
        return tracer

    def test_parents_enclose_children(self):
        tracer = self.trace_fleet()
        events = sorted(
            [(s.seq_open, "open", s) for s in tracer.spans]
            + [(s.seq_close, "close", s) for s in tracer.spans],
            key=lambda item: item[0],
        )
        stack = []
        for _, kind, span in events:
            if kind == "open":
                if stack:
                    parent = stack[-1]
                    assert parent.start_us <= span.start_us
                    assert span.end_us <= parent.end_us
                stack.append(span)
            else:
                assert stack.pop() is span
        assert stack == []

    def test_leaves_account_for_every_cursor_tick(self):
        tracer = self.trace_fleet()
        assert sum(c.dur_us for c in tracer.charges
                   if c.phase == "X") == tracer.now_us
        assert sum(tracer.component_totals().values()) == tracer.now_us

    def test_exported_trace_validates_with_all_components(self):
        tracer = self.trace_fleet()
        payload = to_chrome_trace(tracer)
        counts = validate_chrome_trace(payload)
        assert counts["spans"] > 0 and counts["leaves"] > 0
        categories = {e["cat"] for e in payload["traceEvents"]
                      if e["ph"] in ("B", "X")}
        assert {"portal", "tfc", "hbase", "hdfs", "notify",
                "crypto", "fleet"} <= categories


def clock_leaves(tracer: Tracer) -> list[tuple[str, int]]:
    """``(tag, microseconds)`` of every leaf the clock charged, in
    order; the fleet's explicit crypto leaves are left out."""
    return [(leaf.name, leaf.dur_us) for leaf in tracer.charges
            if leaf.phase == "X" and not leaf.name.startswith("crypto.")]


class TestCaptureAgreement:
    def test_single_instance_capture_equals_leaves(self, monkeypatch):
        """One full cloud process under one capture: each charge is one
        leaf of its own rounded microseconds, and each tag's leaves sum
        to its captured seconds within half a microsecond per leaf."""
        workload = workload_from_spec("chain:3:2")
        world = build_world([*workload.identities, TFC_IDENTITY],
                            bits=1024)
        system = CloudSystem(world.directory,
                             world.keypair(TFC_IDENTITY),
                             backend=world.backend)
        tracer = Tracer()
        system.attach_tracer(tracer)
        designer = world.keypair(workload.designer)
        initial = build_initial_document(workload.definition, designer,
                                         backend=world.backend)
        keypairs = {identity: world.keypair(identity)
                    for identity in workload.identities}
        stream: list[tuple[str, float]] = []
        original = SimClock.advance

        def spy(seconds, component=None):
            stream.append((component or "misc", seconds))
            return original(system.clock, seconds, component=component)

        monkeypatch.setattr(system.clock, "advance", spy)
        with system.clock.capture() as captured:
            run_process_in_cloud(system, workload.definition, initial,
                                 designer, keypairs,
                                 workload.responders)
        assert captured  # the run actually charged something
        sums: dict[str, float] = {}
        for tag, seconds in stream:
            sums[tag] = sums.get(tag, 0.0) + seconds
        assert captured == sums
        assert clock_leaves(tracer) == [
            (tag, microseconds(seconds)) for tag, seconds in stream]
        for tag, seconds in captured.items():
            leaves = [us for name, us in clock_leaves(tracer)
                      if name == tag]
            assert abs(sum(leaves) - seconds * 1e6) <= 0.5 * len(leaves)

    def test_fleet_leaves_match_shadowed_charge_stream(self, monkeypatch):
        """Every charge the clock hands the tracer is one leaf of its
        own rounded microseconds, in charge order."""
        tracer = Tracer()
        fleet = build_fleet(workload_from_spec(GOLDEN_SPEC),
                            golden_config(tracer=tracer))
        clock = fleet.clock
        shadow: list[tuple[str, int]] = []
        original = SimClock.advance

        def spy(seconds, component=None):
            if clock.tracer is not None:  # mirrors the tracing hook
                if clock._capture is not None:
                    shadow.append((component or "misc",
                                   microseconds(seconds)))
                elif component is not None:
                    shadow.append((component, microseconds(seconds)))
            return original(clock, seconds, component=component)

        monkeypatch.setattr(clock, "advance", spy)
        fleet.run()
        assert shadow  # the run actually charged something
        assert clock_leaves(tracer) == shadow
        # The rest of the cursor is the fleet's explicit crypto leaves
        # (names the clock never charges).
        crypto = {leaf.name for leaf in tracer.charges
                  if leaf.phase == "X"} - {tag for tag, _ in shadow}
        assert crypto <= {"crypto.initial_sign", "crypto.aea_execute",
                          "crypto.tfc_process"}


class TestDeterminism:
    def test_same_seed_byte_identical_export(self):
        def export() -> str:
            tracer = Tracer()
            run_traced(tracer)
            return json.dumps(to_chrome_trace(tracer), sort_keys=True,
                              separators=(",", ":"))

        assert export() == export()

    def test_real_mode_trace_worker_count_independent(self):
        workload = workload_from_spec("chain:3:2")
        world = build_world([*workload.identities, TFC_IDENTITY],
                            bits=1024)

        def export(workers: int) -> str:
            tracer = Tracer()
            run_real_fleet(
                RealFleetConfig(spec="chain:3:2", instances=2, seed=1,
                                workers=workers, audit_every=2),
                world=world, tracer=tracer)
            payload = to_chrome_trace(tracer)
            validate_chrome_trace(payload)
            return json.dumps(payload, sort_keys=True,
                              separators=(",", ":"))

        assert export(1) == export(2)


class TestStrictNoOp:
    def test_traced_report_equals_golden_minus_metrics(self):
        """Tracing changes no reported byte: strip the opt-in metrics
        section and the traced report IS the committed golden."""
        golden = json.loads(
            (GOLDENS / "sim_chain6x3_seed7_full.json").read_text())
        _, report = run_traced(Tracer())
        traced = report.to_dict()
        assert traced.pop("metrics", None) is not None
        assert traced == golden

    def test_metrics_only_run_equals_golden_minus_metrics(self):
        golden = json.loads(
            (GOLDENS / "sim_chain6x3_seed7_full.json").read_text())
        _, report = run_traced(None, collect_metrics=True)
        snapshot = report.to_dict()
        metrics = snapshot.pop("metrics")
        assert snapshot == golden
        counters = metrics["counters"]
        assert counters["hops_total"] == golden["hops_executed"]
        assert counters["instances_completed_total"] == 8

    def test_untraced_run_is_byte_identical_to_golden(self):
        golden_text = (GOLDENS / "sim_chain6x3_seed7_full.json").read_text()
        _, report = run_traced(None)
        assert report.to_json() == json.dumps(
            json.loads(golden_text), sort_keys=True,
            separators=(",", ":"))


class TestTopologySweep:
    """Every executed hop of any chain/diamond shape yields exactly one
    portal submission span, attributed to its (instance, activity)."""

    _world = None

    @classmethod
    def world(cls):
        if cls._world is None:
            cls._world = build_world(
                ["designer@enterprise.example", *participant_pool(3),
                 TFC_IDENTITY],
                bits=1024)
        return cls._world

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(kind=st.sampled_from(["chain", "diamond"]),
           activities=st.integers(min_value=2, max_value=5),
           participants=st.integers(min_value=1, max_value=3))
    def test_one_submit_span_per_hop(self, kind, activities,
                                     participants):
        workload = workload_from_spec(
            f"{kind}:{activities}:{participants}")
        world = self.world()
        system = CloudSystem(world.directory,
                             world.keypair(TFC_IDENTITY),
                             backend=world.backend,
                             verify_cache=VerificationCache())
        tracer = Tracer()
        fleet = Fleet(system, workload, world.keypairs,
                      FleetConfig(
                          arrivals=ClosedLoop(instances=2, concurrency=2),
                          seed=3, audit_every=0, tracer=tracer))
        report = fleet.run()
        submits: dict[tuple[str, str], int] = {}
        for span in tracer.spans:
            if span.name in ("portal.submit", "portal.submit_delta"):
                key = (span.instance, span.hop)
                submits[key] = submits.get(key, 0) + 1
        assert sum(submits.values()) == report.hops_executed
        assert set(submits.values()) == {1}
        # Every hop span carries instance + activity attribution.
        assert all(instance and hop for instance, hop in submits)
        uploads = [s for s in tracer.spans
                   if s.name == "portal.upload_initial"]
        assert len(uploads) == 2  # one launch per instance
