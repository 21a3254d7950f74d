"""Trace exporters: Chrome trace-event JSON, folded stacks, summaries.

The Chrome trace-event form loads directly in Perfetto
(https://ui.perfetto.dev → *Open trace file*) and in ``chrome://tracing``:
one process, one thread track per traced instance, ``B``/``E`` pairs
for spans and ``X`` complete events for the charge leaves.  Timestamps
are the tracer's deterministic microsecond cursor, so a trace file is a
reproducible artifact — the determinism tests compare exported bytes.

The folded-stack form (``span;span;leaf  microseconds`` per line) feeds
flamegraph tooling (e.g. ``flamegraph.pl`` or speedscope's folded
importer) and doubles as a grep-able text profile.
"""

from __future__ import annotations

import json
import pathlib
from typing import Iterable

from .tracer import ChargeRecord, SpanRecord, Tracer

__all__ = ["to_chrome_trace", "write_chrome_trace", "to_folded_stacks",
           "validate_chrome_trace", "summarize_chrome_trace"]

#: Schema tag embedded in exported traces (bump on breaking changes).
TRACE_SCHEMA = 1


def _ordered_events(tracer: Tracer) -> list[tuple[int, str, object]]:
    """All records as ``(seq, kind, record)`` in chronological order."""
    items: list[tuple[int, str, object]] = []
    for span in tracer.spans:
        items.append((span.seq_open, "open", span))
        items.append((span.seq_close, "close", span))
    for charge in tracer.charges:
        items.append((charge.seq, "leaf", charge))
    items.sort(key=lambda item: item[0])
    return items


def to_chrome_trace(tracer: Tracer) -> dict[str, object]:
    """Render a tracer as a Chrome trace-event JSON object."""
    events: list[dict[str, object]] = []
    tids: dict[str, int] = {"": 0}
    ordered = _ordered_events(tracer)

    def tid_of(instance: str) -> int:
        tid = tids.get(instance)
        if tid is None:
            tid = tids[instance] = len(tids)
        return tid

    for _, kind, record in ordered:
        if kind == "open":
            span = record  # type: SpanRecord
            assert isinstance(span, SpanRecord)
            args: dict[str, object] = {}
            if span.instance:
                args["instance"] = span.instance
            if span.hop:
                args["hop"] = span.hop
            events.append({
                "ph": "B", "name": span.name,
                "cat": span.component or "misc",
                "ts": span.start_us, "pid": 1,
                "tid": tid_of(span.instance), "args": args,
            })
        elif kind == "close":
            span = record
            assert isinstance(span, SpanRecord)
            events.append({
                "ph": "E", "name": span.name,
                "cat": span.component or "misc",
                "ts": span.end_us, "pid": 1,
                "tid": tid_of(span.instance),
            })
        else:
            charge = record
            assert isinstance(charge, ChargeRecord)
            event: dict[str, object] = {
                "ph": "X" if charge.phase == "X" else "i",
                "name": charge.name,
                "cat": charge.component or "misc",
                "ts": charge.ts_us, "pid": 1,
                "tid": tid_of(charge.instance),
            }
            if charge.phase == "X":
                event["dur"] = charge.dur_us
            if charge.detail:
                event["args"] = {"detail": charge.detail}
            events.append(event)

    metadata: list[dict[str, object]] = [{
        "ph": "M", "name": "process_name", "pid": 1, "tid": 0,
        "args": {"name": "dra4wfms"},
    }]
    for instance, tid in tids.items():
        metadata.append({
            "ph": "M", "name": "thread_name", "pid": 1, "tid": tid,
            "args": {"name": instance or "(shared)"},
        })
    return {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
        "otherData": {"generator": "repro.obs", "schema": TRACE_SCHEMA},
    }


def write_chrome_trace(tracer: Tracer, path: str | pathlib.Path) -> int:
    """Serialize :func:`to_chrome_trace` to *path*; return byte count.

    Canonical form — sorted keys, compact separators, trailing newline —
    so same-seed traces are byte-identical files.
    """
    text = json.dumps(to_chrome_trace(tracer), sort_keys=True,
                      separators=(",", ":")) + "\n"
    data = text.encode("utf-8")
    pathlib.Path(path).write_bytes(data)
    return len(data)


def to_folded_stacks(tracer: Tracer) -> str:
    """Flamegraph-style folded stacks: ``span;span;leaf  dur_us``.

    Only charge leaves carry weight (spans are pure structure), so the
    folded totals sum to the tracer's cursor exactly.  Lines are sorted
    for deterministic output.
    """
    folded: dict[str, int] = {}
    stack: list[str] = []
    for _, kind, record in _ordered_events(tracer):
        if kind == "open":
            assert isinstance(record, SpanRecord)
            stack.append(record.name)
        elif kind == "close":
            stack.pop()
        else:
            assert isinstance(record, ChargeRecord)
            if record.phase != "X" or record.dur_us <= 0:
                continue
            path = ";".join([*stack, record.name])
            folded[path] = folded.get(path, 0) + record.dur_us
    return "".join(f"{path} {us}\n" for path, us in sorted(folded.items()))


def validate_chrome_trace(payload: dict[str, object]) -> dict[str, int]:
    """Structural validation of an exported (or parsed) Chrome trace.

    Checks the trace-event contract the CI ``obs-smoke`` job relies on:
    required keys per event, globally non-decreasing timestamps,
    strictly matched ``B``/``E`` pairs per ``(pid, tid)`` (LIFO, names
    agree, end ≥ begin), and non-negative ``X`` durations.  Returns
    summary counts; raises :class:`ValueError` on any violation.
    """
    events = payload.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise ValueError("trace has no traceEvents list")
    last_ts: int | None = None
    stacks: dict[tuple[object, object], list[dict[str, object]]] = {}
    counts = {"spans": 0, "leaves": 0, "instants": 0, "metadata": 0}
    for i, event in enumerate(events):
        phase = event.get("ph")
        if phase == "M":
            counts["metadata"] += 1
            continue
        for key in ("name", "ph", "ts", "pid", "tid"):
            if key not in event:
                raise ValueError(f"event {i} missing required key {key!r}")
        ts = event["ts"]
        if not isinstance(ts, int) or ts < 0:
            raise ValueError(f"event {i} has non-integer ts {ts!r}")
        if last_ts is not None and ts < last_ts:
            raise ValueError(
                f"event {i} goes backwards in time ({ts} < {last_ts})"
            )
        last_ts = ts
        track = (event["pid"], event["tid"])
        if phase == "B":
            stacks.setdefault(track, []).append(event)
        elif phase == "E":
            stack = stacks.get(track) or []
            if not stack:
                raise ValueError(f"event {i}: E without matching B")
            begin = stack.pop()
            if begin["name"] != event["name"]:
                raise ValueError(
                    f"event {i}: E {event['name']!r} closes B "
                    f"{begin['name']!r}"
                )
            if event["ts"] < begin["ts"]:
                raise ValueError(f"event {i}: span ends before it starts")
            counts["spans"] += 1
        elif phase == "X":
            if not isinstance(event.get("dur"), int) or event["dur"] < 0:
                raise ValueError(f"event {i}: X needs a non-negative dur")
            counts["leaves"] += 1
        elif phase == "i":
            counts["instants"] += 1
        else:
            raise ValueError(f"event {i}: unknown phase {phase!r}")
    dangling = {track: stack for track, stack in stacks.items() if stack}
    if dangling:
        raise ValueError(f"unclosed B events on tracks {sorted(dangling)}")
    return counts


def summarize_chrome_trace(payload: dict[str, object]
                           ) -> list[dict[str, object]]:
    """Per-component rollup of a Chrome trace (``repro trace-report``).

    One row per component (``cat``): span count, charge-leaf count,
    summed leaf microseconds and the share of the total, sorted by
    sim-time descending (ties by name so output is deterministic).
    """
    events: Iterable[dict[str, object]] = payload.get("traceEvents", [])  # type: ignore[assignment]
    spans: dict[str, int] = {}
    leaves: dict[str, int] = {}
    sim_us: dict[str, int] = {}
    for event in events:
        cat = str(event.get("cat", "misc"))
        phase = event.get("ph")
        if phase == "B":
            spans[cat] = spans.get(cat, 0) + 1
        elif phase == "X":
            leaves[cat] = leaves.get(cat, 0) + 1
            sim_us[cat] = sim_us.get(cat, 0) + int(event.get("dur", 0))  # type: ignore[arg-type]
    total = sum(sim_us.values())
    components = sorted(set(spans) | set(leaves) | set(sim_us))
    rows = [{
        "component": cat,
        "spans": spans.get(cat, 0),
        "leaves": leaves.get(cat, 0),
        "sim_us": sim_us.get(cat, 0),
        "share": (round(sim_us.get(cat, 0) / total, 6) if total else 0.0),
    } for cat in components]
    rows.sort(key=lambda row: (-int(row["sim_us"]), str(row["component"])))
    return rows
