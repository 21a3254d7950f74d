"""Outside-in layer tracing for the traced benchmark run.

Nothing in ``src/repro`` knows about this module.  :func:`install`
rebinds public functions wherever ``repro`` modules imported them and
wraps public methods on their classes; :class:`TracedBackend` is a
delegating :class:`~repro.crypto.backend.CryptoBackend` handed to
``build_world`` and ``CloudSystem``.  The wrappers exist only in the
process of a ``--trace 1`` run.

Every wrapper records a span (name, start, end, parent, hop id) or just
bumps a call counter, and only while the :class:`Recorder` is on.  A hop
is one ``CloudClient.execute``.  Spans stay in memory, in a flat integer
array the garbage collector never traverses (a list per span would make
every full collection of the traced run slower than the untraced one's);
:meth:`Recorder.dump` writes them when the run ends.  A layer's self time is its span's duration
minus the durations of its direct children, so inside a hop the self
times of all spans add up exactly to the hop's duration.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

__all__ = ["PER_LAYER", "Recorder", "TracedBackend", "install",
           "layer_metrics"]

_now = time.perf_counter_ns

#: Span recorded for each ``CloudClient.execute``.
HOP = "hop"
#: Fields of one span in :attr:`Recorder` arrays.
FIELDS = ("name", "start_ns", "end_ns", "parent", "hop")
_STRIDE = len(FIELDS)

#: Timed layers, each reported as ``<name>.ms_per_hop`` (in-hop self time).
TIMED = (
    "crypto.sign", "crypto.verify", "crypto.unwrap", "crypto.aes",
    "xmlsec.c14n", "xmlsec.parse", "xmlsec.encrypt",
    "model.definition_parse",
    "document.verify", "document.clone", "document.merge",
    "document.serialize", "document.cer_build",
    "document.delta.chunk", "document.delta.encode",
    "document.delta.decode", "document.delta.assemble",
    "document.delta.seed",
    "core.aea.execute", "core.tfc.process",
    "cloud.portal.submit", "cloud.portal.retrieve", "cloud.pool.store",
    "cloud.hbase", "cloud.hbase.wal_encode", "cloud.hbase.flush_encode",
    "cloud.hdfs.write",
)

#: Layers reported as ``<name>.calls_per_hop`` (in-hop calls, except
#: TO-DO polling, which happens between hops and counts the whole phase).
CALLS = (
    "crypto.sign", "crypto.verify", "crypto.unwrap", "crypto.wrap",
    "crypto.aes", "crypto.digest", "xmlsec.c14n", "xmlsec.parse",
    "xmlsec.encrypt", "model.definition_parse", "document.verify",
    "document.definition", "cloud.portal.search_todo", "cloud.hbase.put",
    "cloud.hbase.get", "cloud.hdfs.write", "cloud.notify",
)

#: Layers reported as ``<name>.kb_per_hop`` (KiB handed to the layer).
KIB = ("crypto.digest", "xmlsec.c14n", "xmlsec.parse")

#: Every per-layer metric a traced run prints, with its unit.
PER_LAYER: tuple[tuple[str, str], ...] = (
    *((f"{name}.calls_per_hop", "count") for name in CALLS),
    *((f"{name}.ms_per_hop", "ms") for name in TIMED),
    *((f"{name}.kb_per_hop", "KiB") for name in KIB),
    ("document.vcache.hit_ratio", "ratio"),
    ("document.delta.chunks_sent_ratio", "ratio"),
    ("document.delta.client_cache_hit_ratio", "ratio"),
    ("document.delta.fallbacks", "count"),
    ("document.delta.dedup_ratio", "ratio"),
    ("core.aea.join_retry_ratio", "ratio"),
    ("cloud.hbase.flushes", "count"),
    ("cloud.hbase.splits", "count"),
    ("cloud.hdfs.write_amplification", "ratio"),
    ("fleet.parallel_efficiency", "ratio"),
    ("fleet.instance_host_ms_p50", "ms"),
    ("fleet.cloud_build_ms_per_instance", "ms"),
    ("fleet.world_payload_kb", "KiB"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_share", "ratio"),
)


class Recorder:
    """In-memory spans and call counters, grouped into named phases."""

    def __init__(self) -> None:
        self.on = False
        #: Id of the hop in progress, -1 between hops.
        self.hop = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.phases: dict[str, dict] = {}
        self._phase = ""
        self._reset()

    def _reset(self) -> None:
        self._spans = array("q")
        self._stack: list[int] = []
        self._calls: Counter = Counter()
        self._bytes: Counter = Counter()
        self._next_hop = 0
        self._hops = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, phase: str) -> None:
        """Start recording a new phase."""
        self._reset()
        self._phase = phase
        self.on = True

    def end(self) -> dict:
        """Stop recording; keep and return the phase's record."""
        self.on = False
        if self._stack or 0 in self._spans[2::_STRIDE]:
            raise RuntimeError(f"unclosed span in phase {self._phase!r}")
        record = {"spans": self._spans, "calls": self._calls,
                  "bytes": self._bytes, "hops": self._hops}
        self.phases[self._phase] = record
        self._reset()
        return record

    def open(self, name_id: int) -> int:
        stack = self._stack
        spans = self._spans
        index = len(spans) // _STRIDE
        spans.extend((name_id, _now(), 0, stack[-1] if stack else -1,
                      self.hop))
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self._spans[index * _STRIDE + 2] = _now()
        self._stack.pop()

    def count(self, name: str, amount: int = 0) -> None:
        """One call of *name*, handling *amount* bytes (or items)."""
        key = (name, self.hop >= 0)
        self._calls[key] += 1
        if amount:
            self._bytes[key] += amount

    def open_hop(self) -> int:
        self.hop = self._next_hop
        self._next_hop += 1
        return self.open(self.name_id(HOP))

    def close_hop(self, index: int, completed: bool) -> None:
        self.close(index)
        self.hop = -1
        self._hops += completed

    def dump(self, path: Path) -> None:
        """Write every recorded phase's spans (gzipped JSON)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "format": "perfbench-spans/1",
            # Each phase is one flat list, len(fields) integers per span.
            "fields": list(FIELDS),
            "names": self.names,
            "phases": {phase: record["spans"].tolist()
                       for phase, record in self.phases.items()},
        }
        with gzip.open(path, "wt", encoding="utf-8") as out:
            json.dump(payload, out, separators=(",", ":"))


def _timed(rec: Recorder, fn, name: str, count: str | None = None,
           size=None, after=None):
    """Wrap *fn* in a span named *name*.

    *count* names the call counter (default: the span name), *size* maps
    ``(args, result)`` to the bytes the call handled, and *after* sees
    ``(args, result)`` to record derived counts.
    """
    name_id = rec.name_id(name)
    count = count or name

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.on:
            return fn(*args, **kwargs)
        index = rec.open(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        rec.count(count, size(args, result) if size else 0)
        if after is not None:
            after(args, result)
        return result

    return wrapper


def _counted(rec: Recorder, fn, name: str, size=None):
    """Wrap *fn* with a call counter only (its time stays with the caller)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.on:
            rec.count(name, size(args) if size else 0)
        return fn(*args, **kwargs)

    return wrapper


class TracedBackend:
    """Delegating :class:`~repro.crypto.backend.CryptoBackend`.

    Times every RSA and AES call of the wrapped backend and counts
    digests; key generation and randomness pass straight through.
    """

    def __init__(self, inner, recorder: Recorder) -> None:
        self._inner = inner
        self._rec = recorder
        self.name = inner.name
        for method, span in (
            ("sign", "crypto.sign"), ("sign_pss", "crypto.sign"),
            ("verify", "crypto.verify"), ("verify_pss", "crypto.verify"),
            ("unwrap_key", "crypto.unwrap"),
            ("seal", "crypto.aes"), ("open_sealed", "crypto.aes"),
            ("seal_gcm", "crypto.aes"), ("open_gcm", "crypto.aes"),
        ):
            setattr(self, method,
                    _timed(recorder, getattr(inner, method), span))
        self.wrap_key = _counted(recorder, inner.wrap_key, "crypto.wrap")
        self.digest = _counted(recorder, inner.digest, "crypto.digest",
                               size=lambda args: len(args[0]))
        self._verify_batch = _timed(recorder, inner.verify_batch,
                                    "crypto.verify")

    def random(self, nbytes: int) -> bytes:
        return self._inner.random(nbytes)

    def generate_keypair(self, bits: int = 2048):
        return self._inner.generate_keypair(bits)

    def verify_batch(self, jobs, workers=None):
        # One span for the batch, one counted call per signature.
        if self._rec.on:
            for _ in range(len(jobs) - 1):
                self._rec.count("crypto.verify")
        return self._verify_batch(jobs, workers=workers)


def _rebind(original, wrapper) -> None:
    """Point every ``repro`` module's name for *original* at *wrapper*."""
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name != "repro" and not name.startswith("repro."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _size_of_arg(position: int):
    return lambda args, result=None: len(args[position])


def install(rec: Recorder) -> None:
    """Wrap the public entry points of every layer (this process only)."""
    from repro.cloud import hbase, hdfs, notify, pool, portal, system
    from repro.core import aea, tfc
    from repro.document import amendments, builder, delta, document, verify
    from repro.model import xpdl
    from repro.xmlsec import canonical, xmlenc

    def delta_sent(args, result) -> None:
        # Amounts, not calls: chunks shipped and chunks the manifest names.
        rec.count("document.delta.chunks_sent", len(result.chunks))
        rec.count("document.delta.chunks_named", len(result.manifest.chunks))

    functions = (
        (canonical, "canonicalize", "xmlsec.c14n",
         {"size": lambda args, result: len(result)}),
        (canonical, "parse_xml", "xmlsec.parse", {"size": _size_of_arg(0)}),
        (xmlenc, "encrypt_value", "xmlsec.encrypt", {}),
        (verify, "verify_document", "document.verify", {}),
        (xpdl, "definition_from_xml", "model.definition_parse", {}),
        (builder, "make_standard_cer", "document.cer_build", {}),
        (builder, "make_intermediate_cer", "document.cer_build", {}),
        (builder, "make_tfc_cer", "document.cer_build", {}),
        (amendments, "make_amendment_cer", "document.cer_build", {}),
        (delta, "chunk_document", "document.delta.chunk", {}),
        (delta, "encode_delta", "document.delta.encode",
         {"after": delta_sent}),
        (delta, "decode_delta", "document.delta.decode", {}),
        (delta, "assemble", "document.delta.assemble", {}),
        (delta, "seed_chunks", "document.delta.seed", {}),
    )
    for module, attr, name, options in functions:
        original = getattr(module, attr)
        _rebind(original, _timed(rec, original, name, **options))
    original = amendments.effective_definition
    _rebind(original, _counted(rec, original, "document.definition"))

    methods = (
        (aea.ActivityExecutionAgent, "execute_activity", "core.aea.execute",
         {}),
        (tfc.TfcServer, "process", "core.tfc.process", {}),
        (portal.PortalServer, "submit", "cloud.portal.submit", {}),
        (portal.PortalServer, "submit_delta", "cloud.portal.submit", {}),
        (portal.PortalServer, "retrieve", "cloud.portal.retrieve", {}),
        (portal.PortalServer, "retrieve_delta", "cloud.portal.retrieve",
         {"after": delta_sent}),
        (pool.DocumentPool, "store", "cloud.pool.store", {}),
        (hbase.SimHBase, "put", "cloud.hbase",
         {"count": "cloud.hbase.put", "size": _size_of_arg(5)}),
        (hbase.SimHBase, "get", "cloud.hbase", {"count": "cloud.hbase.get"}),
        (hbase.SimHBase, "get_rows", "cloud.hbase",
         {"count": "cloud.hbase.get"}),
        (hbase.SimHBase, "scan", "cloud.hbase",
         {"count": "cloud.hbase.scan"}),
        (hbase.Region, "encode_wal", "cloud.hbase.wal_encode", {}),
        (hbase.Region, "encode_rows", "cloud.hbase.flush_encode", {}),
        (hdfs.SimHdfs, "write", "cloud.hdfs.write",
         {"size": _size_of_arg(2)}),
        (document.Dra4wfmsDocument, "clone_for_append", "document.clone",
         {}),
        (document.Dra4wfmsDocument, "merge", "document.merge", {}),
        (document.Dra4wfmsDocument, "to_bytes", "document.serialize", {}),
        (system.CloudSystem, "__init__", "fleet.cloud_build", {}),
        (system.CloudSystem, "client", "fleet.cloud_build", {}),
    )
    for cls, attr, name, options in methods:
        setattr(cls, attr, _timed(rec, cls.__dict__[attr], name, **options))
    portal.PortalServer.search_todo = _counted(
        rec, portal.PortalServer.search_todo, "cloud.portal.search_todo")
    notify.NotificationService.notify = _counted(
        rec, notify.NotificationService.notify, "cloud.notify")

    execute = system.CloudClient.execute

    @functools.wraps(execute)
    def hop(*args, **kwargs):
        if not rec.on:
            return execute(*args, **kwargs)
        index = rec.open_hop()
        completed = False
        try:
            result = execute(*args, **kwargs)
            completed = True
            return result
        finally:
            rec.close_hop(index, completed)

    system.CloudClient.execute = hop


def spans_of(record: dict):
    """The spans of a phase record as ``FIELDS`` tuples."""
    spans = record["spans"]
    return zip(*(spans[k::_STRIDE] for k in range(_STRIDE)))


def self_times(record: dict, names: list[str]):
    """In-hop self ns per span name, and every hop's duration."""
    spans = list(spans_of(record))
    children = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    self_ns: Counter = Counter()
    hop_ns: list[int] = []
    hop_id = names.index(HOP) if HOP in names else -1
    for index, (name_id, start, end, _, hop) in enumerate(spans):
        if hop < 0:
            continue
        self_ns[names[name_id]] += end - start - children[index]
        if name_id == hop_id:
            hop_ns.append(end - start)
    return self_ns, hop_ns


def layer_metrics(rec: Recorder, write: dict, extra: dict[str, float],
                  ) -> tuple[dict[str, float], list[tuple[str, float]]]:
    """Per-layer metrics of the traced write phase.

    *extra* supplies the metrics that do not come from spans (cache,
    storage and fleet statistics, the trace overhead).  Returns the
    metrics and the layer-share table (share of traced hop time).
    """
    hops = write["hops"]
    if hops < 1:
        raise RuntimeError("traced write phase completed no hop")
    self_ns, hop_ns = self_times(write, rec.names)
    unknown = set(self_ns) - set(TIMED) - {HOP}
    if unknown:
        raise RuntimeError(f"in-hop spans without a layer: {sorted(unknown)}")
    total_hop_ns = sum(hop_ns)
    # Self times of every in-hop span tile the hop durations exactly.
    if sum(self_ns.values()) != total_hop_ns:
        raise RuntimeError("layer self times do not add up to hop time")
    calls, nbytes = write["calls"], write["bytes"]
    metrics: dict[str, float] = {}
    for name in CALLS:
        in_hop = calls[name, True]
        if name == "cloud.portal.search_todo":
            in_hop += calls[name, False]
        metrics[f"{name}.calls_per_hop"] = in_hop / hops
    for name in TIMED:
        metrics[f"{name}.ms_per_hop"] = self_ns[name] / 1e6 / hops
    for name in KIB:
        metrics[f"{name}.kb_per_hop"] = nbytes[name, True] / 1024 / hops
    named = (nbytes["document.delta.chunks_named", True]
             + nbytes["document.delta.chunks_named", False])
    sent = (nbytes["document.delta.chunks_sent", True]
            + nbytes["document.delta.chunks_sent", False])
    metrics["document.delta.chunks_sent_ratio"] = sent / named if named else 0.0
    put_bytes = nbytes["cloud.hbase.put", True]
    metrics["cloud.hdfs.write_amplification"] = (
        nbytes["cloud.hdfs.write", True] / put_bytes if put_bytes else 0.0)
    metrics["trace.unattributed_share"] = self_ns[HOP] / total_hop_ns
    metrics.update(extra)
    missing = {name for name, _ in PER_LAYER} - set(metrics)
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {sorted(missing)}")
    shares = sorted(((name, self_ns[name] / total_hop_ns)
                     for name in (*TIMED, HOP)), key=lambda item: -item[1])
    return {name: metrics[name] for name, _ in PER_LAYER}, shares

