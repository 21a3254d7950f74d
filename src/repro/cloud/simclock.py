"""Simulated wall clock for the cloud substrate.

All cloud components (HDFS, HBase, portals, MapReduce) charge their
operation costs to a shared :class:`SimClock`, so experiments measure a
deterministic *simulated* latency budget independent of the host's real
performance — except for the crypto work, which is always measured in
real time because that is what the paper's tables report.

Two fleet-oriented extensions let a discrete-event scheduler reuse the
same component code without rewriting it:

* every charge may carry a **component tag** (``advance(s,
  component="portal")``), so a listener can attribute cost to the
  service station that incurred it;
* :meth:`capture` temporarily redirects charges into a
  :class:`CostCapture` bucket instead of moving global time — the
  scheduler runs a portal/pool operation, reads the per-component
  costs it *would* have charged, and replays them through queued
  service stations at the right simulated moments.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, ContextManager, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs.tracer import Tracer

__all__ = ["SimClock", "CostCapture"]

#: Shared do-nothing context for untraced clocks — allocated once so the
#: tracing-off path adds no per-call object churn.
_NULL_SPAN: ContextManager[None] = nullcontext()


@dataclass
class CostCapture:
    """Charges recorded during a :meth:`SimClock.capture` block."""

    #: ``(component, seconds)`` in charge order.  Untagged charges are
    #: recorded under ``"misc"``.
    charges: list[tuple[str, float]] = field(default_factory=list)

    @property
    def total(self) -> float:
        """Sum of all captured charges."""
        return sum(seconds for _, seconds in self.charges)

    def by_component(self) -> dict[str, float]:
        """Captured seconds aggregated per component tag."""
        out: dict[str, float] = {}
        for component, seconds in self.charges:
            out[component] = out.get(component, 0.0) + seconds
        return out

    def component(self, name: str) -> float:
        """Captured seconds of one component (0.0 when absent)."""
        return self.by_component().get(name, 0.0)

    def merge(self, other: "CostCapture | list[tuple[str, float]]") -> None:
        """Append another capture's charges (tags preserved) to this one.

        A worker-pool run captures costs in the worker process; the
        parent merges each worker's serialized charge list into its own
        capture so per-component attribution survives the process
        boundary instead of being silently dropped.
        """
        charges = other.charges if isinstance(other, CostCapture) else other
        for component, seconds in charges:
            self.charges.append((str(component), float(seconds)))


class SimClock:
    """A monotonically advancing simulated clock.

    It only keeps time: event scheduling belongs to the caller (the
    fleet's discrete-event loop advances it with :meth:`advance_to`).
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._capture: CostCapture | None = None
        #: Optional observability hook (:class:`repro.obs.Tracer`).  When
        #: set, every cost charge is mirrored to the tracer; ``None``
        #: (the default) keeps the clock entirely observation-free.
        self.tracer: "Tracer | None" = None

    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float, component: str | None = None) -> float:
        """Move time forward.

        *component* names the service that incurred the cost (portal,
        pool, notify, …).  It has no effect on normal advancing, but
        inside a :meth:`capture` block the charge is recorded under
        that tag instead of moving time.
        """
        if seconds < 0:
            raise ValueError("cannot advance the clock backwards")
        if self._capture is not None:
            self._capture.charges.append((component or "misc", seconds))
            if self.tracer is not None:
                self.tracer.on_charge(component or "misc", seconds)
            return self._now
        if self.tracer is not None and component is not None:
            # Untagged advances outside a capture are scheduler idle time
            # (``advance_to``), not work — only tagged cost is traced.
            self.tracer.on_charge(component, seconds)
        self._now += seconds
        return self._now

    def advance_to(self, target: float) -> float:
        """Advance to an absolute simulated time (≥ now)."""
        return self.advance(target - self._now)

    def trace(self, name: str,
              component: str | None = None) -> ContextManager[object]:
        """A tracer span for *name*, or a shared no-op context.

        Component code wraps its operations in ``with
        clock.trace("hbase.put", "hbase"):`` unconditionally; when no
        tracer is attached this returns one preallocated
        ``nullcontext`` so the untraced hot path stays allocation-free.
        """
        if self.tracer is None:
            return _NULL_SPAN
        return self.tracer.span(name, component=component)

    @contextmanager
    def trace_muted(self) -> Iterator[None]:
        """Suspend tracing for a block (setup cost the caller discards).

        The fleet logs in every enterprise client once and throws that
        capture away; muting keeps those charges out of the trace so
        traced totals still equal the capture sums the reports use.
        """
        tracer, self.tracer = self.tracer, None
        try:
            yield
        finally:
            self.tracer = tracer

    @contextmanager
    def capture(self) -> Iterator[CostCapture]:
        """Record charges instead of advancing time.

        Used by the fleet scheduler: component code still calls
        ``clock.advance(cost, component=...)``, but while the block is
        active the clock stands still and every charge lands in the
        returned :class:`CostCapture`.  Nested captures each see only
        their own charges.
        """
        previous = self._capture
        bucket = CostCapture()
        self._capture = bucket
        try:
            yield bucket
        finally:
            self._capture = previous

    def absorb(self,
               charges: "CostCapture | list[tuple[str, float]]") -> None:
        """Credit charges recorded *elsewhere* into this clock.

        Pool workers run with their own :class:`SimClock`; their tagged
        crypto/IO charges come back to the parent as plain
        ``(component, seconds)`` lists.  Inside an active
        :meth:`capture` block the charges land in the capture bucket
        (preserving tags); outside one, simulated time advances by
        their total — either way nothing is dropped.
        """
        items = (charges.charges if isinstance(charges, CostCapture)
                 else charges)
        if self._capture is not None:
            self._capture.merge(items)
            return
        for _, seconds in items:
            self.advance(seconds)
