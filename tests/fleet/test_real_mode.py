"""True-parallel (``--real``) mode: determinism and sim-report stability.

Two guarantees anchor the multiprocess execution path:

1. **Worker-count independence.**  Each instance runs in its own
   per-instance cloud with a seed-derived process id, so the
   deterministic aggregates (hops, wire bytes, audits, merged
   simulated seconds) are identical whether one worker process runs
   all instances or several split them.  Only host measurements
   (wall seconds, cpu count) may differ.

2. **The simulated fleet is untouched.**  Real mode and the chunker
   memoisation must not change a single byte of the discrete-event
   :class:`FleetReport` — pinned here against committed golden files
   from the run that introduced them.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.fleet import (
    ClosedLoop,
    FleetConfig,
    RealFleetConfig,
    build_fleet,
    run_real_fleet,
    workload_from_spec,
)
from repro.errors import TamperDetected
from repro.fleet.fleet import TFC_IDENTITY
from repro.workloads.participants import build_world

GOLDENS = pathlib.Path(__file__).parent / "goldens"

SPEC = "chain:3:2"
INSTANCES = 4


@pytest.fixture(scope="module")
def real_world():
    """One PKI world shared by every run under comparison (fresh key
    generation between runs would change nothing deterministic, but
    reusing the world is what the CLI's repeated benches do — and it
    makes the runs directly byte-comparable *and* fast)."""
    workload = workload_from_spec(SPEC)
    return build_world([*workload.identities, TFC_IDENTITY], bits=1024)


def run_real(workers: int, world, **overrides):
    config = RealFleetConfig(
        spec=SPEC, instances=INSTANCES, seed=11, workers=workers,
        audit_every=2, **overrides,
    )
    return run_real_fleet(config, world=world)


class TestWorkerCountIndependence:
    @pytest.fixture(scope="class")
    def serial_and_pooled(self, real_world):
        return run_real(1, real_world), run_real(3, real_world)

    def test_deterministic_aggregates_identical(self, serial_and_pooled):
        serial, pooled = serial_and_pooled
        assert serial.deterministic_dict() == pooled.deterministic_dict()
        # ... and byte-identical once serialised.
        assert (json.dumps(serial.deterministic_dict(), sort_keys=True)
                == json.dumps(pooled.deterministic_dict(), sort_keys=True))

    def test_expected_shape(self, serial_and_pooled):
        serial, _ = serial_and_pooled
        assert serial.instances == INSTANCES
        assert serial.hops_executed == INSTANCES * 3
        assert serial.instances_audited == 2  # indices 0 and 2
        assert serial.audit_failures == 0
        assert serial.bytes_to_cloud > 0
        assert serial.bytes_from_cloud > 0
        # Tagged simulated charges survived the process boundary.
        assert serial.sim_seconds.get("portal", 0.0) > 0.0
        assert serial.sim_seconds.get("notify", 0.0) > 0.0

    def test_host_measurements_reported_not_compared(self,
                                                     serial_and_pooled):
        serial, pooled = serial_and_pooled
        for report in (serial, pooled):
            assert report.wall_seconds > 0.0
            assert report.cpu_count >= 1
            assert len(report.host_seconds_per_instance) == INSTANCES
            assert report.throughput_per_wall_second > 0.0
        assert serial.workers == 1
        assert pooled.workers == 3

    def test_delta_routing_independent_too(self, real_world):
        serial = run_real(1, real_world, delta_routing=True)
        pooled = run_real(2, real_world, delta_routing=True)
        assert serial.deterministic_dict() == pooled.deterministic_dict()
        assert serial.routing == "delta"


class TestAuditVerdicts:
    """Both fleet audit paths count verifier verdicts, not verifier
    crashes: a crash propagates, a rejection is one audit failure."""

    def run_sim(self):
        return build_fleet(
            workload_from_spec(SPEC),
            FleetConfig(arrivals=ClosedLoop(instances=2, concurrency=1),
                        audit_every=2),
        ).run()

    def run_real_inline(self, world):
        return run_real_fleet(
            RealFleetConfig(spec=SPEC, instances=2, seed=11, workers=1,
                            audit_every=2),
            world=world,
        )

    @staticmethod
    def patch_verifier(monkeypatch, error: Exception) -> None:
        def verify_document(*args, **kwargs):
            raise error

        monkeypatch.setattr("repro.fleet.fleet.verify_document",
                            verify_document)

    def test_verifier_crash_propagates_from_sim_fleet(self, monkeypatch):
        self.patch_verifier(monkeypatch, RuntimeError("verifier bug"))
        with pytest.raises(RuntimeError, match="verifier bug"):
            self.run_sim()

    def test_verifier_crash_propagates_from_real_fleet(self, monkeypatch,
                                                       real_world):
        self.patch_verifier(monkeypatch, RuntimeError("verifier bug"))
        with pytest.raises(RuntimeError, match="verifier bug"):
            self.run_real_inline(real_world)

    def test_rejection_counts_once_in_sim_fleet(self, monkeypatch):
        self.patch_verifier(monkeypatch, TamperDetected("forged"))
        report = self.run_sim()
        assert (report.instances_audited, report.audit_failures) == (1, 1)

    def test_rejection_counts_once_in_real_fleet(self, monkeypatch,
                                                 real_world):
        self.patch_verifier(monkeypatch, TamperDetected("forged"))
        report = self.run_real_inline(real_world)
        assert (report.instances_audited, report.audit_failures) == (1, 1)


class TestRealModeValidation:
    def test_zero_workers_rejected(self, real_world):
        with pytest.raises(ValueError):
            run_real(0, real_world)

    def test_empty_run(self, real_world):
        report = run_real_fleet(
            RealFleetConfig(spec=SPEC, instances=0, seed=1),
            world=real_world,
        )
        assert report.instances == 0
        assert report.hops_executed == 0
        assert report.throughput_per_wall_second == 0.0


class TestSimModeGoldens:
    """The event-driven fleet still reports byte-for-byte what it did
    before batching/memoisation/real mode existed."""

    def run_sim(self, delta: bool):
        fleet = build_fleet(
            workload_from_spec("chain:6:3"),
            FleetConfig(
                arrivals=ClosedLoop(instances=8, concurrency=3),
                seed=7, audit_every=2,
            ),
            delta_routing=delta,
        )
        return fleet.run()

    @pytest.mark.parametrize("routing", ["full", "delta"])
    def test_report_matches_golden(self, routing):
        golden = (GOLDENS / f"sim_chain6x3_seed7_{routing}.json").read_text()
        report = self.run_sim(delta=routing == "delta")
        assert json.loads(report.to_json()) == json.loads(golden)
        # Byte-level: canonical serialisation of both sides agrees.
        assert report.to_json() == json.dumps(
            json.loads(golden), sort_keys=True, separators=(",", ":"))
