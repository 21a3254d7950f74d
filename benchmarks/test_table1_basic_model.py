"""Table 1 — basic operational model on the Fig. 9A workflow.

Regenerates the paper's Table 1: for each of the ten activity
executions (two passes of A, B1, B2, C, D around the loop),

* #signatures verified on receipt,
* #CERs in the produced document,
* α — time to decrypt cipher data and verify signatures,
* β — time to encrypt the result and embed signatures,
* Σ — size of the produced DRA4WfMS document.

Shape assertions encode what the paper's prose claims about this table;
absolute times differ from the 2012 testbed.
"""

from __future__ import annotations

from conftest import emit_table, run_fig9a, step_medians

#: Paper Table 1 ground truth: (#signatures, #CERs, bytes) per step.
PAPER_TABLE1 = [
    ("X''_A^0", 1, 1, 8_667),
    ("X''_B1^0", 2, 2, 10_184),
    ("X''_B2^0", 2, 2, 10_184),
    ("X''_C^0", 4, 4, 13_503),
    ("X''_D^0", 5, 5, 15_015),
    ("X''_A^1", 6, 6, 16_562),
    ("X''_B1^1", 7, 7, 18_079),
    ("X''_B2^1", 7, 7, 18_079),
    ("X''_C^1", 9, 9, 21_398),
    ("X''_D^1", 10, 10, 22_910),
]
PAPER_INITIAL_SIZE = 7_119

#: Measured rounds; α and β are per-step medians over them.
ROUNDS = 3


def test_table1(benchmark, world, fig9a, backend):
    runs = []
    benchmark.pedantic(
        lambda: runs.append(run_fig9a(world, fig9a, backend)),
        rounds=ROUNDS, warmup_rounds=1,
    )
    initial, trace = runs[-1]
    measured = [run_trace for _, run_trace in runs[-ROUNDS:]]
    alphas = step_medians(measured, "alpha")
    betas = step_medians(measured, "beta")

    rows = [["Initial", "-", 0, 0, "-", "-", initial.size_bytes]]
    for step, alpha, beta in zip(trace.steps, alphas, betas):
        rows.append([
            step.label, step.participant.split("@")[0],
            step.signatures_verified, step.num_cers,
            f"{alpha:.4f}", f"{beta:.4f}", step.size_bytes,
        ])
    emit_table(
        "table1",
        "Table 1: basic model, Fig. 9A (times in seconds, median of "
        f"{len(measured)} rounds)",
        ["Document", "Participant", "#sigs", "#CERs", "alpha", "beta",
         "Sigma(B)"],
        rows,
    )

    # --- exact structural agreement with the paper -----------------------
    assert [s.signatures_verified for s in trace.steps] == \
        [row[1] for row in PAPER_TABLE1]
    assert [s.num_cers for s in trace.steps] == \
        [row[2] for row in PAPER_TABLE1]

    # --- size shape: linear in #CERs, within 2x of the paper's bytes -----
    for step, paper_row in zip(trace.steps, PAPER_TABLE1):
        paper_bytes = paper_row[3]
        assert 0.5 < step.size_bytes / paper_bytes < 2.0, (
            f"{step.label}: {step.size_bytes} B vs paper {paper_bytes} B"
        )
    assert 0.3 < initial.size_bytes / PAPER_INITIAL_SIZE < 2.0

    # --- "β requires only a constant time" -------------------------------
    band = sorted(betas)
    # Discard the single largest (JIT/cache warts) and demand the rest
    # stay within a small band.
    assert band[-2] / band[0] < 6.0

    # --- "α proportional to the number of signatures" --------------------
    assert alphas[-1] > alphas[0]  # 10 signatures vs 1

    # --- "verify costs more than sign" once history accumulates ----------
    assert all(alpha > beta
               for alpha, beta in zip(alphas[-4:], betas[-4:]))
