"""Shared document-suite fixtures: pristine runs and replay siblings.

The tamper matrix (``test_tamper_matrix.py``), the verification-memo
suite (``test_verify_memo.py``) and the resumed-verification suite
(``test_resumed_verify.py``) replay the mutation registry in
:mod:`tamper_cases`; the executed documents and replay-donor siblings
they mutate live here so the suites attack byte-identical inputs.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core import InMemoryRuntime, TfcServer
from repro.document import build_initial_document
from repro.workloads import figure9_responders
from repro.workloads.figure9 import DESIGNER

TFC_IDENTITY = "tfc@cloud.example"


@pytest.fixture(scope="session")
def sibling_basic(world, fig9a, backend):
    """An independent execution of Fig. 9A: same workflow, same
    participants, different process instance — every element validly
    signed *in its own document*."""
    initial = build_initial_document(fig9a, world.keypair(DESIGNER),
                                     backend=backend)
    runtime = InMemoryRuntime(world.directory, world.keypairs,
                              backend=backend)
    trace = runtime.run(initial, fig9a, figure9_responders(1), mode="basic")
    return trace.final_document


@pytest.fixture(scope="session")
def sibling_advanced(world, fig9b, backend):
    """An independent advanced-model run whose TFC clock starts at 100,
    so its (validly signed) timestamps differ from the pristine run's."""
    counter = itertools.count(100)
    tfc = TfcServer(world.keypair(TFC_IDENTITY), world.directory,
                    backend=backend, clock=lambda: float(next(counter)))
    initial = build_initial_document(fig9b, world.keypair(DESIGNER),
                                     backend=backend)
    runtime = InMemoryRuntime(world.directory, world.keypairs, tfc=tfc,
                              backend=backend)
    trace = runtime.run(initial, fig9b, figure9_responders(1),
                        mode="advanced")
    return trace.final_document


@pytest.fixture()
def basic_doc(fig9a_trace):
    """A mutable clone of the pristine Fig. 9A document."""
    return fig9a_trace.final_document.clone()


@pytest.fixture()
def advanced_doc(fig9b_run):
    """A mutable clone of the pristine Fig. 9B document."""
    trace, _ = fig9b_run
    return trace.final_document.clone()


@pytest.fixture()
def tamper_donors(sibling_basic, sibling_advanced, fig9b_run):
    """Donor documents by :attr:`tamper_cases.TamperCase.donor` key."""
    trace, _ = fig9b_run
    return {
        "sibling_basic": sibling_basic,
        "sibling_advanced": sibling_advanced,
        "fig9b_doc": trace.final_document,
    }
