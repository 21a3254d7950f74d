"""Fleet fabric behavior: open/closed loops, joins, audits, reports."""

from __future__ import annotations

import pytest

from repro.core.monitor import WorkflowMonitor
from repro.document.resume import KeptPasses
from repro.fleet import fleet as fleet_module
from repro.fleet import (
    ClosedLoop,
    CryptoCostModel,
    FleetConfig,
    OpenLoop,
    build_fleet,
    percentile,
    workload_from_spec,
)


@pytest.fixture(scope="module")
def fig9_report():
    """A small open-loop Figure-9 fleet, run once for the module."""
    fleet = build_fleet(
        workload_from_spec("fig9"),
        FleetConfig(arrivals=OpenLoop(instances=12, rate_per_second=4.0),
                    seed=11, audit_every=5),
    )
    return fleet, fleet.run()


@pytest.fixture(scope="module")
def closed_report():
    fleet = build_fleet(
        workload_from_spec("chain:3"),
        FleetConfig(arrivals=ClosedLoop(instances=9, concurrency=3),
                    seed=2, audit_every=4),
    )
    return fleet, fleet.run()


class TestOpenLoopRun:
    def test_all_instances_complete(self, fig9_report):
        _, report = fig9_report
        assert report.instances_started == 12
        assert report.instances_completed == 12

    def test_hops_match_workflow_shape(self, fig9_report):
        # fig9 advanced: A, B1, B2, C, D per instance
        _, report = fig9_report
        assert report.hops_executed == 12 * 5

    def test_and_join_retries_counted(self, fig9_report):
        # C is an AND-join of B1/B2: the first branch to finish parks.
        _, report = fig9_report
        assert report.join_retries == 12

    def test_audit_hook_re_verified_cold(self, fig9_report):
        _, report = fig9_report
        # every-5th sampling starting at the first completion: 1, 6, 11
        assert report.instances_audited == 3
        assert report.audit_failures == 0

    def test_throughput_and_latency_populated(self, fig9_report):
        _, report = fig9_report
        assert report.makespan_seconds > 0
        assert report.throughput_per_second > 0
        assert len(report.latencies) == 12
        assert 0 < report.latency_p50 <= report.latency_p95 \
            <= report.latency_p99 <= report.latency_max

    def test_station_roster_covers_components(self, fig9_report):
        _, report = fig9_report
        names = set(report.stations)
        assert {"portal", "pool", "notify", "tfc"} <= names
        assert any(n.startswith("aea:") for n in names)

    def test_every_hop_visits_portal_and_pool(self, fig9_report):
        _, report = fig9_report
        assert report.stations["portal"].jobs >= report.hops_executed
        assert report.stations["pool"].jobs >= report.hops_executed
        assert report.stations["tfc"].jobs == report.hops_executed

    def test_utilization_rollup(self, fig9_report):
        _, report = fig9_report
        util = report.utilization()
        assert "aea" in util
        assert not any(k.startswith("aea:") for k in util)
        assert all(0.0 <= v <= 1.0 for v in util.values())

    def test_documents_land_in_pool(self, fig9_report):
        fleet, _ = fig9_report
        assert len(fleet.system.pool.process_ids()) == 12

    def test_render_is_textual(self, fig9_report):
        _, report = fig9_report
        text = report.render()
        assert "fig9" in text and "throughput" in text

    def test_queue_depths_accessor(self, fig9_report):
        fleet, _ = fig9_report
        depths = fleet.queue_depths()
        assert set(depths) == set(fleet.stations)
        for series in depths.values():
            times = [t for t, _ in series]
            assert times == sorted(times)

    def test_monitor_surfaces_fleet_metrics(self, fig9_report):
        """The monitor reads a fleet run from its TFC: a record per
        hop, every instance, and per-activity executions that add up."""
        fleet, report = fig9_report
        monitor = WorkflowMonitor(tfc=fleet.system.tfc)
        assert len(monitor.records) == report.hops_executed
        assert set(monitor.processes()) == set(fleet.instances)
        executions = {activity: stats.executions
                      for activity, stats in monitor.statistics().items()}
        assert executions == dict.fromkeys(("A", "B1", "B2", "C", "D"), 12)


class TestClosedLoopRun:
    def test_all_instances_complete(self, closed_report):
        _, report = closed_report
        assert report.instances_started == 9
        assert report.instances_completed == 9
        assert report.mode == "closed"

    def test_relaunch_keeps_concurrency(self, closed_report):
        # 9 instances at concurrency 3 → completions trigger relaunches,
        # so arrivals are spread over the run rather than all at t=0.
        fleet, report = closed_report
        arrivals = sorted(i.arrival for i in fleet.instances.values())
        assert arrivals[0] == arrivals[1] == arrivals[2]
        assert arrivals[3] > arrivals[2]

    def test_no_join_retries_in_a_chain(self, closed_report):
        _, report = closed_report
        assert report.join_retries == 0


class TestUtilizationHorizon:
    """The ``aea`` roll-up is measured over the horizon of the desks it
    rolls up, t = 0 to the last completion, not over the makespan, which
    starts at the first arrival, after the cloud's set-up charges."""

    @pytest.mark.parametrize("spec, arrivals", [
        ("fig9", OpenLoop(instances=8, rate_per_second=4.0)),
        ("chain:3", ClosedLoop(instances=6, concurrency=3)),
    ], ids=["open", "closed"])
    def test_aea_rollup_uses_the_station_horizon(self, spec, arrivals):
        fleet = build_fleet(workload_from_spec(spec),
                            FleetConfig(arrivals=arrivals, seed=4,
                                        audit_every=0))
        report = fleet.run()
        # Without audits nothing charges the clock after the last
        # completion, so the run ends at the stations' horizon.
        horizon = fleet.now
        assert horizon > report.makespan_seconds
        assert all(fleet.stations[name].metrics(horizon) == metrics
                   for name, metrics in report.stations.items())
        desks = [metrics for name, metrics in report.stations.items()
                 if name.startswith("aea:")]
        busy = sum(metrics.busy_seconds for metrics in desks)
        capacity = sum(metrics.workers for metrics in desks) * horizon
        assert report.utilization()["aea"] == round(busy / capacity, 9)


class TestAuditBilling:
    """An audit's pool read is captured and replayed through the pool
    station, like every other storage operation of the run."""

    def test_audits_queue_at_the_pool_station(self, monkeypatch):
        fleet = build_fleet(
            workload_from_spec("chain:3"),
            FleetConfig(arrivals=ClosedLoop(instances=4, concurrency=2),
                        seed=3, audit_every=1),
        )
        clock = fleet.clock
        advance = clock.advance
        audit_failed = fleet_module.audit_failed
        loose: list[str] = []
        audits: list[float] = []
        state: dict[str, float] = {}

        def charged(seconds, component=None):
            if component is not None and clock._capture is None:
                loose.append(component)
            if component == "pool" and "audit" in state:
                state["audit"] += seconds
            return advance(seconds, component)

        def audited(system, process_id):
            state["audit"] = 0.0
            try:
                return audit_failed(system, process_id)
            finally:
                audits.append(state.pop("audit"))

        monkeypatch.setattr(clock, "advance", charged)
        monkeypatch.setattr(fleet_module, "audit_failed", audited)
        pool = fleet.stations["pool"]
        submit = pool.submit
        visits: list[float] = []

        def visited(arrival, service_seconds):
            visits.append(service_seconds)
            return submit(arrival, service_seconds)

        monkeypatch.setattr(pool, "submit", visited)
        report = fleet.run()
        assert report.instances_audited == 4 == len(audits)
        assert loose == []
        assert all(seconds > 0.0 for seconds in audits)
        for seconds in audits:
            visits.remove(seconds)      # each audit's read: one visit
        assert pool.busy_seconds == pytest.approx(
            sum(audits) + sum(visits))


class TestConfigValidation:
    def test_unknown_workload_spec(self):
        with pytest.raises(ValueError):
            workload_from_spec("ring:4")

    def test_chain_spec_requires_numeric_arg(self):
        with pytest.raises(ValueError):
            workload_from_spec("chain:x")

    def test_cost_model_rejects_negative(self):
        with pytest.raises(ValueError):
            CryptoCostModel(sign_seconds=-1.0)

    def test_cost_model_scales_with_signatures(self):
        costs = CryptoCostModel()
        assert costs.tfc_process(10, 1000) > costs.tfc_process(2, 1000)
        assert costs.aea_execute(5, 2000) > costs.aea_execute(5, 100)


class TestAgentsResume:
    """Fleet hops run :meth:`CloudClient.checkout`, so each AEA gets the
    retrieved bytes and a returning participant resumes its kept pass."""

    @pytest.mark.parametrize("delta", [False, True])
    def test_every_return_visit_resumes(self, monkeypatch, delta):
        receipts: dict[int, list[bool]] = {}
        resume = KeptPasses.resume

        def recorded(self, data, params):
            document, kept, appended = resume(self, data, params)
            receipts.setdefault(id(self), []).append(kept is not None)
            return document, kept, appended

        monkeypatch.setattr(KeptPasses, "resume", recorded)
        fleet = build_fleet(
            workload_from_spec("chain:8:3"),
            FleetConfig(arrivals=ClosedLoop(instances=1, concurrency=1),
                        audit_every=0),
            delta_routing=delta,
        )
        report = fleet.run()
        tfc = receipts.pop(id(fleet.system.tfc.kept_passes))
        assert tfc == [False] + [True] * 7
        # p0, p1 and p2 execute A0-A7 in turn: 3, 3 and 2 receipts, of
        # which each participant's first is cold.
        assert sorted(receipts.values()) == [[False, True],
                                             [False, True, True],
                                             [False, True, True]]
        assert report.hops_executed == 8


class TestPercentile:
    def test_empty(self):
        assert percentile([], 0.5) == 0.0

    def test_single(self):
        assert percentile([3.0], 0.99) == 3.0

    def test_median_and_extremes(self):
        samples = [float(i) for i in range(1, 101)]
        assert percentile(samples, 0.0) == 1.0
        assert percentile(samples, 1.0) == 100.0
        assert percentile(samples, 0.5) == pytest.approx(50.0, abs=1.0)

    def test_fraction_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)
