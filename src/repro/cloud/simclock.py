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
* :meth:`capture` temporarily redirects charges into a dict of
  seconds per tag instead of moving global time — the scheduler runs a
  portal/pool operation, reads the per-component costs it *would* have
  charged, and replays them through queued service stations at the
  right simulated moments.

The capture dicts are the one record of what was charged; a tracer
attached to the clock sees the same stream as events.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import TYPE_CHECKING, ContextManager, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs.tracer import Tracer

__all__ = ["SimClock"]

#: Shared do-nothing context for untraced clocks — allocated once so the
#: tracing-off path adds no per-call object churn.
_NULL_SPAN: ContextManager[None] = nullcontext()


class SimClock:
    """A monotonically advancing simulated clock.

    It only keeps time: event scheduling belongs to the caller (the
    fleet's discrete-event loop advances it with :meth:`advance_to`).
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._capture: dict[str, float] | None = None
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
            tag = component or "misc"
            self._capture[tag] = self._capture.get(tag, 0.0) + seconds
            if self.tracer is not None:
                self.tracer.on_charge(tag, seconds)
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
        traced totals still equal the capture sums the stations replay.
        """
        tracer, self.tracer = self.tracer, None
        try:
            yield
        finally:
            self.tracer = tracer

    @contextmanager
    def capture(self) -> Iterator[dict[str, float]]:
        """Record charges instead of advancing time.

        Used by the fleet scheduler: component code still calls
        ``clock.advance(cost, component=...)``, but while the block is
        active the clock stands still and every charge is added, in
        charge order, to the yielded ``{tag: seconds}`` dict (untagged
        charges under ``"misc"``).  Nested captures each see only their
        own charges.
        """
        previous = self._capture
        bucket: dict[str, float] = {}
        self._capture = bucket
        try:
            yield bucket
        finally:
            self._capture = previous
