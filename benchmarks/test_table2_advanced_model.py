"""Table 2 — advanced operational model (TFC server) on Fig. 9B.

Regenerates the paper's Table 2: the same ten activity executions
routed through the TFC server, reporting per step

* α — decrypt + verify time in AEA *and* TFC,
* β — encrypt + sign time in the AEA,
* γ — encrypt + sign time in the TFC,
* #CERs (each step adds an intermediate CER and a TFC CER),
* Σ — document size.
"""

from __future__ import annotations

from conftest import emit_table, run_fig9b, step_medians

#: Paper Table 2 final row: 20 CERs, 47,406 bytes.
PAPER_FINAL_CERS = 20
PAPER_FINAL_BYTES = 47_406
#: Per completed step (AEA+TFC), the CER count after the TFC finalises.
PAPER_CER_PROGRESSION = [2, 4, 4, 8, 10, 12, 14, 14, 18, 20]

#: Measured rounds; α, β and γ are per-step medians over them.
ROUNDS = 3


def test_table2(benchmark, world, fig9b, backend):
    runs = []
    benchmark.pedantic(
        lambda: runs.append(run_fig9b(world, fig9b, backend)),
        rounds=ROUNDS, warmup_rounds=1,
    )
    initial, trace, tfc = runs[-1]
    measured = [run_trace for _, run_trace, _ in runs[-ROUNDS:]]
    alphas = step_medians(measured, "alpha")
    betas = step_medians(measured, "beta")
    gammas = step_medians(measured, "gamma")

    # The paper's Table 2 interleaves the intermediate document the AEA
    # sends to the TFC (X_Ai, size only) with the finalised document
    # the TFC forwards (X''_Ai) — reproduce both rows per step.
    rows = [["Initial", 0, "-", "-", "-", initial.size_bytes]]
    for step, alpha, beta, gamma in zip(trace.steps, alphas, betas,
                                        gammas):
        rows.append([
            step.label.replace("X''", "X_it"), step.num_cers - 1,
            f"{alpha:.4f}", f"{beta:.4f}", "-",
            step.intermediate_size_bytes,
        ])
        rows.append([
            step.label, step.num_cers,
            "-", "-", f"{gamma:.4f}", step.size_bytes,
        ])
    emit_table(
        "table2",
        "Table 2: advanced model via TFC, Fig. 9B (times in seconds, "
        f"median of {len(measured)} rounds)",
        ["Document", "#CERs", "alpha(AEA+TFC)", "beta(AEA)", "gamma(TFC)",
         "Sigma(B)"],
        rows,
    )

    # --- structural agreement with the paper ------------------------------
    assert [s.num_cers for s in trace.steps] == PAPER_CER_PROGRESSION
    assert trace.steps[-1].num_cers == PAPER_FINAL_CERS
    assert 0.5 < trace.final_size / PAPER_FINAL_BYTES < 2.0

    # --- timestamps embedded and monotone ----------------------------------
    stamps = [record.timestamp for record in tfc.records]
    assert len(stamps) == 10 and stamps == sorted(stamps)

    # --- β and γ stay roughly constant while α grows -----------------------
    band = sorted(gammas)
    assert band[-2] / band[0] < 8.0
    assert alphas[-1] > alphas[0]

    # --- "the TFC was not the bottleneck" -----------------------------------
    # The TFC never holds a participant session; its per-step work (γ +
    # its share of verification) is below the AEA-side handling.
    assert sum(gammas) < sum(alphas)

    # --- advanced ≈ 2× basic document size (47,406 / 22,910 in the paper).
    # The direct Table-1-vs-Table-2 ratio assertion lives in
    # test_scaling_claims to avoid re-measuring the basic run here.
    assert trace.final_size > 1.5 * initial.size_bytes
