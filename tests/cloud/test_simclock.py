"""Simulated clock semantics."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.cloud.simclock import SimClock


def test_starts_at_zero():
    assert SimClock().now() == 0.0


def test_custom_start():
    assert SimClock(5.0).now() == 5.0


def test_advance():
    clock = SimClock()
    clock.advance(1.5)
    clock.advance(0.5)
    assert clock.now() == 2.0


def test_advance_backwards_rejected():
    with pytest.raises(ValueError):
        SimClock().advance(-1)


def test_zero_advance_allowed():
    clock = SimClock(3.0)
    clock.advance(0)
    assert clock.now() == 3.0


# -- properties --------------------------------------------------------------

_durations = st.floats(min_value=0.0, max_value=1e6,
                       allow_nan=False, allow_infinity=False)


@given(advances=st.lists(_durations, max_size=50))
def test_time_is_monotone_under_interleaved_advances(advances):
    """Any interleaving of non-negative advances never moves time back."""
    clock = SimClock()
    seen = [clock.now()]
    for seconds in advances:
        clock.advance(seconds)
        seen.append(clock.now())
    assert seen == sorted(seen)
    assert clock.now() == pytest.approx(sum(advances))


@given(advances=st.lists(_durations, min_size=1, max_size=20),
       split=st.integers(min_value=0, max_value=20))
def test_advance_is_associative(advances, split):
    """Advancing in two batches lands where one batch would."""
    split = min(split, len(advances))
    one = SimClock()
    one.advance(sum(advances))
    two = SimClock()
    two.advance(sum(advances[:split]))
    two.advance(sum(advances[split:]))
    assert two.now() == pytest.approx(one.now())


# -- capture semantics -------------------------------------------------------


def test_capture_freezes_time_and_records_charges():
    clock = SimClock(5.0)
    with clock.capture() as bucket:
        clock.advance(1.0, component="portal")
        clock.advance(0.5, component="pool")
        clock.advance(0.25)
    assert clock.now() == 5.0
    assert bucket == {"portal": 1.0, "pool": 0.5, "misc": 0.25}


def test_capture_restores_normal_advancing():
    clock = SimClock()
    with clock.capture():
        clock.advance(9.0)
    clock.advance(1.0)
    assert clock.now() == 1.0


def test_nested_captures_see_only_their_own_charges():
    clock = SimClock()
    with clock.capture() as outer:
        clock.advance(1.0, component="a")
        with clock.capture() as inner:
            clock.advance(2.0, component="b")
        clock.advance(3.0, component="c")
    assert inner == {"b": 2.0}
    assert outer == {"a": 1.0, "c": 3.0}


def test_capture_rejects_negative_charges():
    clock = SimClock()
    with clock.capture():
        with pytest.raises(ValueError):
            clock.advance(-0.1)


@given(charges=st.lists(st.tuples(
    st.sampled_from(["portal", "pool", "notify", None]), _durations),
    max_size=30))
def test_captured_totals_match_equivalent_advances(charges):
    """A capture accounts for exactly what advancing would cost: per
    tag, the float sum of its charges in charge order."""
    clock = SimClock()
    with clock.capture() as bucket:
        for component, seconds in charges:
            clock.advance(seconds, component=component)
    assert clock.now() == 0.0
    expected: dict[str, float] = {}
    for component, seconds in charges:
        tag = component or "misc"
        expected[tag] = expected.get(tag, 0.0) + seconds
    assert bucket == expected
    assert sum(bucket.values()) == pytest.approx(
        sum(seconds for _, seconds in charges))
