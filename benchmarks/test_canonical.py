"""Canonicalization micro-benchmarks: escaping, the memo, the kernel.

Three hot-path optimisations get their numbers here:

* **single-pass escaping** — ``str.translate`` with a precomputed table
  versus the naive chain of ``str.replace`` calls (one pass per
  entity);
* **canonical-bytes memoization** — re-serializing a grown document
  when every untouched CER subtree is served from the memo versus
  serializing from scratch; and
* **the kernel** — the production serializer (one scan per string,
  accepted names remembered) versus the reference kernel of
  ``tests/xmlsec/c14n_reference.py``, over every element a
  verification pass canonicalizes.

All are correctness-equivalent by test (tests/xmlsec/test_canonical.py,
tests/xmlsec/test_canonical_kernel.py) — this file only measures, and
bounds no timing: CI hosts are shared.  Run it with ``python -m
pytest`` from the repository root, which puts ``tests`` on the path.
"""

from __future__ import annotations

import time

from conftest import emit_table, run_fig9a, run_fig9b
from repro.xmlsec.canonical import CanonicalMemo, canonicalize
from repro.xmlsec.xmldsig import XmlSignature, index_by_id

ROUNDS = 200


def _chained_replace(text: str) -> str:
    """The replaced implementation, kept as the benchmark baseline
    (same validity scan as the real path, then one pass per entity)."""
    from repro.xmlsec.canonical import _check_chars

    _check_chars(text, "text content")
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace("\r", "&#13;"))


def _time(fn, rounds=ROUNDS) -> float:
    started = time.perf_counter()
    for _ in range(rounds):
        fn()
    return (time.perf_counter() - started) / rounds


def test_escaping_single_pass(world, fig9a, backend):
    from repro.xmlsec.canonical import _escape_text

    _, trace = run_fig9a(world, fig9a, backend)
    # Escape every text payload of a real final document — dominated by
    # base64 signature/ciphertext blobs that contain nothing to escape,
    # exactly the common case the table-driven path is fast on.
    texts = [node.text for node in trace.final_document.root.iter()
             if node.text]
    assert [_escape_text(t) for t in texts] == \
        [_chained_replace(t) for t in texts]

    chained = _time(lambda: [_chained_replace(t) for t in texts])
    single = _time(lambda: [_escape_text(t) for t in texts])
    emit_table(
        "canonical_escaping",
        "Text escaping over one final Fig. 9A document",
        ["variant", "µs/document", "speedup"],
        [
            ["chained str.replace", f"{chained * 1e6:.1f}", "1.00x"],
            ["guarded single pass", f"{single * 1e6:.1f}",
             f"{chained / single:.2f}x"],
        ],
    )


def test_memoized_canonicalization(world, fig9a, backend):
    _, trace = run_fig9a(world, fig9a, backend)
    root = trace.final_document.root

    cold = _time(lambda: canonicalize(root))

    memo = CanonicalMemo()
    canonicalize(root, memo)  # warm the memo once
    warm = _time(lambda: canonicalize(root, memo))

    assert canonicalize(root, memo) == canonicalize(root)
    emit_table(
        "canonical_memo",
        "Canonical serialization of the final Fig. 9A document",
        ["variant", "µs/serialization", "speedup"],
        [
            ["cold (no memo)", f"{cold * 1e6:.1f}", "1.00x"],
            ["warm memo", f"{warm * 1e6:.1f}", f"{cold / warm:.2f}x"],
        ],
    )


def _pass_elements(root) -> list:
    """Every element one cache-backed verification pass canonicalizes:
    each Signature (cache key) and its SignedInfo (RSA message), and
    each referenced element once (the pass memoises digests)."""
    index = index_by_id(root)
    elements, digested = [], set()
    for node in root.iter("Signature"):
        signature = XmlSignature(node)
        targets = [node] + [index[ref.target_id]
                            for ref in signature.references]
        elements.append(node.find("SignedInfo"))
        for target in targets:
            if id(target) not in digested:
                digested.add(id(target))
                elements.append(target)
    return elements


def test_kernel_against_reference(world, fig9b, backend):
    from tests.xmlsec.c14n_reference import reference_canonicalize

    _, trace, _ = run_fig9b(world, fig9b, backend)
    elements = _pass_elements(trace.final_document.root)
    assert [canonicalize(e) for e in elements] == \
        [reference_canonicalize(e) for e in elements]

    reference = min(_time(lambda: [reference_canonicalize(e)
                                   for e in elements], 50)
                    for _ in range(5))
    kernel = min(_time(lambda: [canonicalize(e) for e in elements], 50)
                 for _ in range(5))
    emit_table(
        "canonical_kernel",
        f"Canonicalizing the {len(elements)} elements one verification "
        f"pass canonicalizes in the final Fig. 9B document",
        ["kernel", "µs/pass", "time vs reference"],
        [
            ["reference", f"{reference * 1e6:.1f}", "1.00x"],
            ["production", f"{kernel * 1e6:.1f}",
             f"{kernel / reference:.2f}x"],
        ],
    )
