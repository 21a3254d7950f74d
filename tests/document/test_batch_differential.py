"""Differential harness: batched RSA verification ≡ sequential.

``verify_document(..., workers=N)`` with N > 1 collects every cascade
signature's RSA check into one ``verify_batch()`` dispatch instead of
verifying inline.  That is only an optimisation if it is *observationally
identical* — same accept/reject verdict, same exception type, same
failing-signature attribution in the message — on every input the
sequential path handles.  This suite proves that differentially:

* every case of the adversarial tamper-matrix registry
  (:mod:`tamper_cases`: 96 mutations across two document models) is
  replayed under the sequential path and under batches of two and of
  eight workers, and the three outcomes are compared verbatim;
* pristine documents produce byte-equal verification reports across
  all paths (and across both crypto backends);
* a Hypothesis property sweeps randomly generated topologies
  (chain/diamond × width × participant-pool size), random worker
  counts (``None`` and 1 stay sequential), and a random optional
  signature flip, asserting the same equivalence on documents no one
  hand-picked.
"""

from __future__ import annotations

import pytest

from repro.core import InMemoryRuntime
from repro.document import build_initial_document
from repro.document.verify import verify_document
from repro.errors import TamperDetected, VerificationError
from repro.workloads import build_world
from repro.workloads.generator import (
    auto_responders,
    chain_definition,
    diamond_definition,
    participant_pool,
)

from .tamper_cases import TAMPER_CASES, flip_base64

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis ships with the image
    HAVE_HYPOTHESIS = False

#: (label, verify_document kwargs) for every batched path under test.
BATCH_MODES = [
    ("two-workers", {"workers": 2}),
    ("many-workers", {"workers": 8}),
]


def outcome(document, directory, backend, **kwargs):
    """Comparable verdict of one verification: report or exact failure."""
    try:
        report = verify_document(document, directory, backend, **kwargs)
    except (TamperDetected, VerificationError) as exc:
        return ("rejected", type(exc).__name__, str(exc))
    return ("accepted", report)


# -- the full tamper matrix, batched vs sequential ---------------------------


class TestTamperMatrixDifferential:
    """Batched verification reaches the sequential verdict verbatim."""

    @pytest.mark.parametrize("case", TAMPER_CASES, ids=lambda c: c.name)
    def test_same_verdict_and_attribution(self, case, basic_doc,
                                          advanced_doc, tamper_donors,
                                          world, backend):
        document = basic_doc if case.model == "basic" else advanced_doc
        donor = tamper_donors[case.donor] if case.donor else None
        case.apply(document, donor)

        sequential = outcome(document, world.directory, backend)
        assert sequential[0] == "rejected"
        for label, kwargs in BATCH_MODES:
            batched = outcome(document, world.directory, backend, **kwargs)
            assert batched == sequential, (
                f"{case.name}: {label} diverged from sequential"
            )


# -- pristine documents ------------------------------------------------------


class TestPristineDifferential:
    def test_reports_identical(self, fig9a_trace, fig9b_run, world, backend):
        trace, _ = fig9b_run
        for document in (fig9a_trace.final_document, trace.final_document):
            sequential = outcome(document, world.directory, backend)
            assert sequential[0] == "accepted"
            for label, kwargs in BATCH_MODES:
                batched = outcome(document, world.directory, backend,
                                  **kwargs)
                assert batched == sequential, f"{label} diverged"

    def test_pure_backend_batches_too(self, fig9a_trace, world,
                                      pure_backend):
        """The pure backend's sequential fallback is still equivalent."""
        document = fig9a_trace.final_document
        sequential = outcome(document, world.directory, pure_backend)
        assert sequential[0] == "accepted"
        for label, kwargs in BATCH_MODES:
            batched = outcome(document, world.directory, pure_backend,
                              **kwargs)
            assert batched == sequential, f"{label} diverged (pure)"


# -- random topologies (property-based) --------------------------------------

DESIGNER = "designer@enterprise.example"
POOL = 4

#: (kind, size, pool) → executed document; executions are the expensive
#: part, so repeated Hypothesis examples share one run per topology.
_trace_cache: dict[tuple[str, int, int], object] = {}


@pytest.fixture(scope="module")
def topo_world(backend):
    """One PKI world big enough for every generated topology."""
    return build_world([DESIGNER, *participant_pool(POOL)], bits=1024,
                       backend=backend)


def _executed_document(world, backend, kind: str, size: int, pool: int):
    key = (kind, size, pool)
    document = _trace_cache.get(key)
    if document is None:
        maker = chain_definition if kind == "chain" else diamond_definition
        definition = maker(size, participant_pool(pool), designer=DESIGNER)
        initial = build_initial_document(
            definition, world.keypair(DESIGNER), backend=backend
        )
        runtime = InMemoryRuntime(world.directory, world.keypairs,
                                  backend=backend)
        trace = runtime.run(initial, definition,
                            auto_responders(definition), mode="basic")
        document = _trace_cache[key] = trace.final_document
    return document


if HAVE_HYPOTHESIS:

    @settings(max_examples=20, deadline=None)
    @given(
        kind=st.sampled_from(["chain", "diamond"]),
        size=st.integers(min_value=2, max_value=5),
        pool=st.integers(min_value=1, max_value=POOL),
        workers=st.sampled_from([None, 1, 2, 3, 8]),
        tamper_at=st.one_of(st.none(), st.integers(min_value=0,
                                                   max_value=31)),
    )
    def test_random_topologies_equivalent(topo_world, backend, kind, size,
                                          pool, workers, tamper_at):
        """Sequential ≡ batched on random workloads and batch shapes."""
        pristine = _executed_document(topo_world, backend, kind, size, pool)
        document = pristine.clone()
        if tamper_at is not None:
            values = document.root.findall(".//CER/Signature/SignatureValue")
            flip_base64(values[tamper_at % len(values)])

        sequential = outcome(document, topo_world.directory, backend)
        batched = outcome(document, topo_world.directory, backend,
                          workers=workers)
        assert batched == sequential
        assert sequential[0] == ("accepted" if tamper_at is None
                                 else "rejected")
