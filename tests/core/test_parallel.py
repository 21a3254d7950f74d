"""ThreadedRuntime: parallel branches, identical semantics."""

from __future__ import annotations

import pytest

from repro.core import InMemoryRuntime, TfcServer
from repro.core.parallel import ThreadedRuntime
from repro.document import build_initial_document, verify_document
from repro.errors import RuntimeFault
from repro.workloads.figure9 import (
    DESIGNER,
    figure9_responders,
    figure_9a_definition,
    figure_9b_definition,
)
from repro.workloads.generator import (
    auto_responders,
    diamond_definition,
    participant_pool,
)

GENERIC_DESIGNER = "designer@enterprise.example"


@pytest.fixture(scope="module", autouse=True)
def enroll_pool(world):
    for identity in [GENERIC_DESIGNER, *participant_pool(6)]:
        if identity not in world.directory:
            world.add_participant(identity)


class TestEquivalence:
    def test_fig9a_same_shape_as_sequential(self, world, fig9a, backend,
                                            fig9a_trace):
        initial = build_initial_document(fig9a, world.keypair(DESIGNER),
                                         backend=backend)
        runtime = ThreadedRuntime(world.directory, world.keypairs,
                                  backend=backend, max_workers=4)
        trace = runtime.run(initial, fig9a, figure9_responders(1),
                            mode="basic")
        assert len(trace.steps) == len(fig9a_trace.steps)
        assert sorted((s.activity_id, s.iteration)
                      for s in trace.steps) == \
            sorted((s.activity_id, s.iteration)
                   for s in fig9a_trace.steps)
        verify_document(trace.final_document, world.directory, backend)

    def test_signature_counts_preserved(self, world, fig9a, backend):
        initial = build_initial_document(fig9a, world.keypair(DESIGNER),
                                         backend=backend)
        runtime = ThreadedRuntime(world.directory, world.keypairs,
                                  backend=backend)
        trace = runtime.run(initial, fig9a, figure9_responders(1),
                            mode="basic")
        by_step = {(s.activity_id, s.iteration): s.signatures_verified
                   for s in trace.steps}
        # Branch steps see 2 signatures, the joins 4/9 etc. — same
        # values as the sequential Table 1 run.
        assert by_step[("A", 0)] == 1
        assert by_step[("B1", 0)] == 2
        assert by_step[("C", 0)] == 4
        assert by_step[("D", 1)] == 10

    def test_advanced_mode(self, world, fig9b, backend):
        initial = build_initial_document(fig9b, world.keypair(DESIGNER),
                                         backend=backend)
        tfc = TfcServer(world.keypair("tfc@cloud.example"),
                        world.directory, backend=backend)
        runtime = ThreadedRuntime(world.directory, world.keypairs,
                                  tfc=tfc, backend=backend)
        trace = runtime.run(initial, fig9b, figure9_responders(1),
                            mode="advanced")
        assert trace.steps[-1].num_cers == 20
        verify_document(trace.final_document, world.directory, backend,
                        tfc_identities={tfc.identity})
        assert len(tfc.records) == 10


class TestWideDiamonds:
    @pytest.mark.parametrize("width", [2, 6])
    def test_wide_fanout(self, world, backend, width):
        definition = diamond_definition(width, participant_pool(6),
                                        designer=GENERIC_DESIGNER)
        initial = build_initial_document(
            definition, world.keypair(GENERIC_DESIGNER), backend=backend
        )
        runtime = ThreadedRuntime(world.directory, world.keypairs,
                                  backend=backend, max_workers=width)
        trace = runtime.run(initial, definition,
                            auto_responders(definition), mode="basic")
        assert len(trace.steps) == width + 2
        final = trace.final_document
        for i in range(width):
            assert final.execution_count(f"P{i}") == 1
        verify_document(final, world.directory, backend)

    def test_matches_sequential_result(self, world, backend):
        definition = diamond_definition(4, participant_pool(6),
                                        designer=GENERIC_DESIGNER)
        responders = auto_responders(definition)

        def run(runtime_cls):
            initial = build_initial_document(
                definition, world.keypair(GENERIC_DESIGNER),
                backend=backend,
            )
            runtime = runtime_cls(world.directory, world.keypairs,
                                  backend=backend)
            return runtime.run(initial, definition, responders,
                               mode="basic")

        sequential = run(InMemoryRuntime)
        threaded = run(ThreadedRuntime)
        # Same CER population (ids), even if branch order may differ.
        assert {c.cer_id
                for c in sequential.final_document.cers()} == \
            {c.cer_id for c in threaded.final_document.cers()}


#: Per-step trace fields that must not depend on the scheduler.
ROW_FIELDS = ("activity_id", "iteration", "participant",
              "signatures_verified", "num_cers", "size_bytes",
              "intermediate_size_bytes", "wire_bytes")

#: case → (definition factory, designer, responders factory, mode)
TRACE_CASES = {
    "fig9a-basic": (figure_9a_definition, DESIGNER,
                    lambda _: figure9_responders(1), "basic"),
    "fig9b-advanced": (figure_9b_definition, DESIGNER,
                       lambda _: figure9_responders(1), "advanced"),
    "diamond4-basic": (
        lambda: diamond_definition(4, participant_pool(6),
                                   designer=GENERIC_DESIGNER),
        GENERIC_DESIGNER, auto_responders, "basic"),
}


class TestTraceEquivalence:
    """Wave order reproduces the sequential trace row by row."""

    @pytest.mark.parametrize("delta", [False, True], ids=["full", "delta"])
    @pytest.mark.parametrize("case", sorted(TRACE_CASES))
    def test_rows_match_sequential(self, world, backend, case, delta):
        make_definition, designer, make_responders, mode = TRACE_CASES[case]
        definition = make_definition()
        responders = make_responders(definition)

        def rows(runtime_cls):
            initial = build_initial_document(
                definition, world.keypair(designer), backend=backend,
                created_at=0.0,
            )
            tfc = (TfcServer(world.keypair("tfc@cloud.example"),
                             world.directory, backend=backend)
                   if mode == "advanced" else None)
            runtime = runtime_cls(world.directory, world.keypairs, tfc=tfc,
                                  backend=backend, delta_routing=delta)
            trace = runtime.run(initial, definition, responders, mode=mode)
            assert trace.routing == ("delta" if delta else "full")
            return [tuple(getattr(step, name) for name in ROW_FIELDS)
                    for step in trace.steps]

        assert rows(ThreadedRuntime) == rows(InMemoryRuntime)


class TestErrors:
    def test_missing_responder(self, world, fig9a, backend):
        initial = build_initial_document(fig9a, world.keypair(DESIGNER),
                                         backend=backend)
        runtime = ThreadedRuntime(world.directory, world.keypairs,
                                  backend=backend)
        with pytest.raises(RuntimeFault, match="no responder"):
            runtime.run(initial, fig9a, {}, mode="basic")

    def test_step_budget(self, world, fig9a, backend):
        initial = build_initial_document(fig9a, world.keypair(DESIGNER),
                                         backend=backend)
        runtime = ThreadedRuntime(world.directory, world.keypairs,
                                  backend=backend)
        with pytest.raises(RuntimeFault, match="exceeded"):
            runtime.run(initial, fig9a, figure9_responders(10**9),
                        mode="basic", max_steps=8)

    def test_advanced_needs_tfc(self, world, fig9b, backend):
        initial = build_initial_document(fig9b, world.keypair(DESIGNER),
                                         backend=backend)
        runtime = ThreadedRuntime(world.directory, world.keypairs,
                                  backend=backend)
        with pytest.raises(RuntimeFault, match="TFC"):
            runtime.run(initial, fig9b, figure9_responders(0),
                        mode="advanced")
