"""Outputs pinned byte for byte against committed goldens.

The fleet reports themselves are pinned in ``test_real_mode.py``.  The
goldens here pin what the report leaves out, for the same ``chain:6:3``
seed-7 fleet: the opt-in ``metrics`` section (from a metrics-only run
and from a traced one), the traced run's Chrome-trace export and folded
stacks (as SHA-256 digests), and the deterministic aggregates of a
real-mode run in a fresh world.  Each was generated once and is
compared, never regenerated, by these tests.
"""

from __future__ import annotations

import hashlib
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
from repro.obs import Tracer, to_folded_stacks, write_chrome_trace

GOLDENS = pathlib.Path(__file__).parent / "goldens"


def canonical(data: object) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def golden_fleet_metrics(**extra) -> dict[str, object]:
    fleet = build_fleet(
        workload_from_spec("chain:6:3"),
        FleetConfig(arrivals=ClosedLoop(instances=8, concurrency=3),
                    seed=7, audit_every=2, **extra),
    )
    return fleet.run().to_dict()["metrics"]


@pytest.fixture(scope="module")
def traced():
    tracer = Tracer()
    return tracer, golden_fleet_metrics(tracer=tracer)


class TestMetricsSection:
    golden = (GOLDENS / "sim_chain6x3_seed7_metrics.json").read_text()

    def test_metrics_only_run(self):
        assert canonical(golden_fleet_metrics(collect_metrics=True)) \
            == self.golden

    def test_traced_run(self, traced):
        _, metrics = traced
        assert canonical(metrics) == self.golden


class TestTraceExports:
    digests = {
        name: digest for digest, name in (
            line.split() for line in (
                GOLDENS / "sim_chain6x3_seed7_trace.sha256"
            ).read_text().splitlines())
    }

    def test_chrome_trace(self, traced, tmp_path):
        tracer, _ = traced
        path = tmp_path / "trace.json"
        write_chrome_trace(tracer, path)
        assert (hashlib.sha256(path.read_bytes()).hexdigest()
                == self.digests["chrome-trace.json"])

    def test_folded_stacks(self, traced):
        tracer, _ = traced
        text = to_folded_stacks(tracer)
        assert (hashlib.sha256(text.encode("utf-8")).hexdigest()
                == self.digests["folded-stacks.txt"])


def test_real_mode_deterministic_aggregates():
    report = run_real_fleet(RealFleetConfig(
        spec="chain:6:3", instances=4, seed=7, audit_every=2))
    assert canonical(report.deterministic_dict()) == (
        GOLDENS / "real_chain6x3_seed7.json").read_text()
