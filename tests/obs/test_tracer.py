"""Unit tests for the deterministic span tracer.

The invariants pinned here are the ones the exporters and the fleet
integration rely on: a monotone cursor advanced only by charges,
parents strictly enclosing children, one leaf per captured charge, and
a lossless cross-process payload/absorb round trip.
"""

from __future__ import annotations

import pytest

from repro.cloud.simclock import SimClock
from repro.obs.tracer import Tracer, microseconds


class TestMicroseconds:
    def test_rounding(self):
        assert microseconds(0.0) == 0
        assert microseconds(1.0) == 1_000_000
        assert microseconds(0.0000005) == 0  # banker's rounding at .5
        assert microseconds(0.0000015) == 2


class TestSpans:
    def test_parent_encloses_child(self):
        tracer = Tracer()
        with tracer.span("outer", component="portal"):
            tracer.leaf("portal", 0.25)
            with tracer.span("inner"):
                tracer.leaf("pool", 0.5)
            tracer.leaf("portal", 0.125)
        inner, outer = tracer.spans  # close order
        assert inner.name == "inner"
        assert outer.start_us <= inner.start_us
        assert inner.end_us <= outer.end_us
        assert outer.dur_us == microseconds(0.875)
        assert inner.dur_us == microseconds(0.5)

    def test_context_inheritance(self):
        tracer = Tracer()
        with tracer.span("hop", component="fleet", instance="i1",
                         hop="A"):
            with tracer.span("portal.submit", component="portal"):
                tracer.leaf("portal", 0.1)
        submit, hop = tracer.spans
        assert submit.instance == "i1"
        assert submit.hop == "A"
        assert submit.component == "portal"
        assert hop.component == "fleet"
        leaf = tracer.charges[0]
        assert (leaf.instance, leaf.hop) == ("i1", "A")

    def test_leaf_component_resolution(self):
        """A leaf's name stays the raw tag; its component comes from the
        innermost open span (the hbase/hdfs split), else the tag."""
        tracer = Tracer()
        with tracer.span("hbase.put", component="hbase"):
            tracer.leaf("pool", 0.5)
        tracer.leaf("pool", 0.25)
        inside, outside = tracer.charges
        assert (inside.name, inside.component) == ("pool", "hbase")
        assert (outside.name, outside.component) == ("pool", "pool")
        assert tracer.component_totals() == {
            "hbase": microseconds(0.5), "pool": microseconds(0.25),
        }

    def test_instant_does_not_advance_cursor(self):
        tracer = Tracer()
        with tracer.span("hop", component="fleet"):
            tracer.instant("station.portal", detail="0.5")
        assert tracer.now_us == 0
        marker = tracer.charges[0]
        assert marker.phase == "i"
        assert marker.dur_us == 0
        assert marker.detail == "0.5"


def leaf_totals(tracer: Tracer) -> dict[str, int]:
    """Microseconds per raw charge tag, summed over the leaves."""
    totals: dict[str, int] = {}
    for leaf in tracer.charges:
        if leaf.phase == "X":
            totals[leaf.name] = totals.get(leaf.name, 0) + leaf.dur_us
    return totals


class TestCaptureCompatibility:
    def test_leaves_match_capture_to_the_microsecond(self):
        """A tracer watching a captured charge stream records one leaf
        per charge, rounded on its own, so each tag's leaves sum to its
        captured seconds within half a microsecond per leaf."""
        clock = SimClock()
        tracer = Tracer()
        clock.tracer = tracer
        stream = []
        with clock.capture() as captured:
            for i in range(100):
                for tag, seconds in (("portal", 0.0000005 + i * 0.0013),
                                     ("notify", 0.0021 * i),
                                     (None, 0.0007)):  # untagged: "misc"
                    clock.advance(seconds, component=tag)
                    stream.append((tag or "misc", microseconds(seconds)))
        assert [(leaf.name, leaf.dur_us)
                for leaf in tracer.charges] == stream
        totals = leaf_totals(tracer)
        assert set(totals) == set(captured) == {"portal", "notify", "misc"}
        for tag, seconds in captured.items():
            assert abs(totals[tag] - seconds * 1e6) <= 0.5 * 100
        assert sum(totals.values()) == tracer.now_us

    def test_untagged_advances_outside_capture_not_traced(self):
        """``advance_to`` idle time is not work — only tagged charges
        trace outside a capture."""
        clock = SimClock()
        tracer = Tracer()
        clock.tracer = tracer
        clock.advance(5.0)  # scheduler idle: untagged, uncaptured
        clock.advance(0.5, component="portal")
        assert leaf_totals(tracer) == {"portal": microseconds(0.5)}

    def test_trace_muted_suppresses_charges(self):
        clock = SimClock()
        tracer = Tracer()
        clock.tracer = tracer
        with clock.trace_muted():
            with clock.capture():
                clock.advance(1.0, component="portal")
        assert tracer.now_us == 0
        assert clock.tracer is tracer  # restored


class TestMetricsTap:
    def test_collect_false_keeps_totals_drops_events(self):
        tracer = Tracer(collect=False)
        with tracer.span("hbase.put", component="hbase"):
            tracer.leaf("pool", 0.5)
        assert tracer.spans == []
        assert tracer.charges == []
        assert tracer.component_totals() == {"hbase": microseconds(0.5)}
        assert tracer.now_us == microseconds(0.5)


class TestPayloadAbsorb:
    def build_worker(self):
        worker = Tracer()
        with worker.span("instance", component="fleet", instance="w1"):
            with worker.span("portal.submit", component="portal"):
                worker.leaf("portal", 0.25)
        return worker

    def test_round_trip_rebases(self):
        parent = Tracer()
        parent.leaf("portal", 1.0)  # parent cursor at 1s
        base = parent.now_us
        worker = self.build_worker()
        parent.absorb(worker.payload())
        assert parent.now_us == base + worker.now_us
        merged = parent.spans[-1]
        assert merged.start_us >= base
        assert parent.component_totals()["portal"] == microseconds(1.25)

    def test_open_span_cannot_serialize(self):
        tracer = Tracer()
        with tracer.span("open"):
            with pytest.raises(RuntimeError):
                tracer.payload()

    def test_cannot_absorb_mid_span(self):
        parent = Tracer()
        payload = self.build_worker().payload()
        with parent.span("open"):
            with pytest.raises(RuntimeError):
                parent.absorb(payload)

    def test_merge_order_independence_of_totals(self):
        a, b = self.build_worker(), self.build_worker()
        parent1, parent2 = Tracer(), Tracer()
        parent1.absorb(a.payload())
        parent1.absorb(b.payload())
        parent2.absorb(b.payload())
        parent2.absorb(a.payload())
        assert parent1.component_totals() == parent2.component_totals()
        assert parent1.now_us == parent2.now_us
