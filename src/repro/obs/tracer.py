"""Deterministic nested-span tracer for the simulated cloud stack.

Time model — **charge time, not wall time**: the tracer keeps one
monotone cursor in integer microseconds.  Every tagged
:class:`~repro.cloud.simclock.SimClock` charge (and every explicit
:meth:`Tracer.leaf` cost, e.g. the fleet's deterministic crypto charges)
advances the cursor and lands as a leaf event under the innermost open
span; spans start and end at the cursor.  Because the charge stream is
a pure function of the seed, two same-seed runs produce byte-identical
traces.  Each captured charge is one leaf of its own rounded
microseconds, so a tag's leaves sum to the seconds
:meth:`~repro.cloud.simclock.SimClock.capture` added up for it, within
half a microsecond per leaf.

Component attribution is two-level:

* a leaf's **name** is the raw charge tag (``portal``/``pool``/
  ``notify``/``misc`` — the keys of a clock capture);
* its **component** is the innermost open span's component when one is
  set (so HBase's ``pool``-tagged charges resolve to ``hbase`` inside a
  ``SimHBase`` span, HDFS's to ``hdfs``), falling back to the tag.

Spans inherit ``instance``/``hop``/``component`` context from their
parent, so a ``portal.submit`` span opened deep inside a fleet hop still
knows which instance and activity it serves.

Cross-process merging: a pool worker's tracer serializes to a plain
:meth:`payload` (tuples only) and the parent re-bases it with
:meth:`absorb`, in instance-index order, as the real-mode runner adds up
the workers' per-component seconds.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

__all__ = ["Tracer", "SpanRecord", "ChargeRecord", "microseconds"]


def microseconds(seconds: float) -> int:
    """Integer microseconds of one charge — THE rounding used everywhere."""
    return int(round(float(seconds) * 1_000_000))


@dataclass
class ChargeRecord:
    """One leaf event: a charge (``X``) or an instant marker (``i``)."""

    phase: str  # "X" (has duration) or "i" (instant marker)
    name: str
    component: str
    instance: str
    hop: str
    ts_us: int
    dur_us: int
    seq: int
    detail: str = ""

    def to_tuple(self) -> tuple:
        return (self.phase, self.name, self.component, self.instance,
                self.hop, self.ts_us, self.dur_us, self.seq, self.detail)

    @classmethod
    def from_tuple(cls, data: tuple) -> "ChargeRecord":
        return cls(*data)


@dataclass
class SpanRecord:
    """One closed span: ``[start_us, end_us]`` encloses its children."""

    name: str
    component: str
    instance: str
    hop: str
    start_us: int
    end_us: int
    seq_open: int
    seq_close: int

    @property
    def dur_us(self) -> int:
        return self.end_us - self.start_us

    def to_tuple(self) -> tuple:
        return (self.name, self.component, self.instance, self.hop,
                self.start_us, self.end_us, self.seq_open, self.seq_close)

    @classmethod
    def from_tuple(cls, data: tuple) -> "SpanRecord":
        return cls(*data)


@dataclass
class _OpenSpan:
    name: str
    component: str  # effective (own, or inherited from the parent)
    instance: str
    hop: str
    start_us: int
    seq_open: int


class Tracer:
    """Collects spans + charge leaves on one deterministic cursor.

    ``collect=False`` keeps only the cursor and the per-component
    totals, retaining no event objects — the fleet uses this for
    metrics-only runs, whose ``sim_us_total`` counters it reads from
    :meth:`component_totals`.
    """

    def __init__(self, collect: bool = True) -> None:
        self.collect = collect
        self._seq = 0
        self._now_us = 0
        self._stack: list[_OpenSpan] = []
        self._spans: list[SpanRecord] = []
        self._charges: list[ChargeRecord] = []
        self._component_us: dict[str, int] = {}

    # -- cursor / totals ----------------------------------------------------

    @property
    def now_us(self) -> int:
        """Current cursor position (total charged microseconds)."""
        return self._now_us

    @property
    def spans(self) -> list[SpanRecord]:
        """Closed spans, in close order."""
        return list(self._spans)

    @property
    def charges(self) -> list[ChargeRecord]:
        """Charge leaves + instant markers, in record order."""
        return list(self._charges)

    def component_totals(self) -> dict[str, int]:
        """Microseconds per resolved component (hbase/hdfs split out)."""
        return dict(sorted(self._component_us.items()))

    # -- spans --------------------------------------------------------------

    @contextmanager
    def span(self, name: str, component: str | None = None,
             instance: str | None = None,
             hop: str | None = None) -> Iterator[_OpenSpan]:
        """Open a nested span; closes (and records) on block exit.

        Unset ``component``/``instance``/``hop`` inherit from the
        innermost open span, so call sites deep in the cloud substrate
        need no plumbing to stay attributable.
        """
        parent = self._stack[-1] if self._stack else None
        self._seq += 1
        open_span = _OpenSpan(
            name=name,
            component=component or (parent.component if parent else ""),
            instance=(instance if instance is not None
                      else (parent.instance if parent else "")),
            hop=hop if hop is not None else (parent.hop if parent else ""),
            start_us=self._now_us,
            seq_open=self._seq,
        )
        self._stack.append(open_span)
        try:
            yield open_span
        finally:
            popped = self._stack.pop()
            self._seq += 1
            if self.collect:
                self._spans.append(SpanRecord(
                    name=popped.name,
                    component=popped.component,
                    instance=popped.instance,
                    hop=popped.hop,
                    start_us=popped.start_us,
                    end_us=self._now_us,
                    seq_open=popped.seq_open,
                    seq_close=self._seq,
                ))

    # -- charges ------------------------------------------------------------

    def on_charge(self, tag: str, seconds: float) -> None:
        """SimClock hook: one tagged charge lands under the open span."""
        self._charge(tag, seconds, component=None)

    def leaf(self, name: str, seconds: float,
             component: str | None = None) -> None:
        """Record an explicit deterministic cost (e.g. a crypto charge).

        Advances the cursor exactly like a clock charge; *name* becomes
        the leaf's tag (kept apart from the clock's tags on purpose —
        these are costs the clock never saw).
        """
        self._charge(name, seconds, component=component)

    def instant(self, name: str, component: str | None = None,
                detail: str = "") -> None:
        """Zero-duration marker (station visits, cache events, …)."""
        if not self.collect:
            return
        top = self._stack[-1] if self._stack else None
        self._seq += 1
        self._charges.append(ChargeRecord(
            phase="i",
            name=name,
            component=component or (top.component if top else name),
            instance=top.instance if top else "",
            hop=top.hop if top else "",
            ts_us=self._now_us,
            dur_us=0,
            seq=self._seq,
            detail=detail,
        ))

    def _charge(self, tag: str, seconds: float,
                component: str | None) -> None:
        us = microseconds(seconds)
        top = self._stack[-1] if self._stack else None
        comp = component or (top.component if top and top.component
                             else tag)
        self._component_us[comp] = self._component_us.get(comp, 0) + us
        if self.collect:
            self._seq += 1
            self._charges.append(ChargeRecord(
                phase="X",
                name=tag,
                component=comp,
                instance=top.instance if top else "",
                hop=top.hop if top else "",
                ts_us=self._now_us,
                dur_us=us,
                seq=self._seq,
            ))
        self._now_us += us

    # -- cross-process merge -------------------------------------------------

    def payload(self) -> dict[str, object]:
        """Picklable snapshot for crossing a process boundary."""
        if self._stack:
            raise RuntimeError(
                f"cannot serialize a tracer with {len(self._stack)} open "
                f"span(s)"
            )
        return {
            "spans": [s.to_tuple() for s in self._spans],
            "charges": [c.to_tuple() for c in self._charges],
            "total_us": self._now_us,
            "max_seq": self._seq,
        }

    def absorb(self, payload: dict[str, object]) -> None:
        """Merge a worker tracer's :meth:`payload`, re-based onto this one.

        Event times shift by the current cursor and sequence numbers by
        the current sequence, so merged worker traces concatenate in the
        order they are absorbed — the span-tree invariants (parents
        enclose children, cursor monotone) are preserved.  Component
        totals accumulate exactly as if the charges had happened
        locally.
        """
        if self._stack:
            raise RuntimeError("cannot absorb into a tracer mid-span")
        ts_base = self._now_us
        seq_base = self._seq
        for data in payload["spans"]:  # type: ignore[union-attr]
            span = SpanRecord.from_tuple(tuple(data))
            span.start_us += ts_base
            span.end_us += ts_base
            span.seq_open += seq_base
            span.seq_close += seq_base
            if self.collect:
                self._spans.append(span)
        for data in payload["charges"]:  # type: ignore[union-attr]
            charge = ChargeRecord.from_tuple(tuple(data))
            charge.ts_us += ts_base
            charge.seq += seq_base
            if charge.phase == "X":
                self._component_us[charge.component] = (
                    self._component_us.get(charge.component, 0)
                    + charge.dur_us)
            if self.collect:
                self._charges.append(charge)
        self._now_us = ts_base + int(payload["total_us"])  # type: ignore[arg-type]
        self._seq = seq_base + int(payload["max_seq"])  # type: ignore[arg-type]
