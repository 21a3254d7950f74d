"""Claim C3 — "the TFC was not the bottleneck" (§4.1).

Two experiments:

1. Per-step comparison on the Fig. 9B trace: the TFC's processing time
   (verify + re-encrypt + sign) against the AEA-side handling of the
   same step.  The paper notes the two are similar in total but "the
   TFC server did not need to make a connection-oriented session with
   the participant", so participant think-time never occupies it.
2. TFC service-rate benchmark: how many intermediate documents per
   second one TFC server finalises, versus the rate at which a single
   participant's AEA can even produce them — the TFC serves many
   participants before saturating.
"""

from __future__ import annotations

import time

from conftest import TFC_IDENTITY, emit_table, run_fig9b
from repro.core import ActivityExecutionAgent, TfcServer
from repro.document import build_initial_document
from repro.workloads.figure9 import DESIGNER, PARTICIPANTS


def test_tfc_vs_aea_per_step(benchmark, world, fig9b, backend):
    _, trace, tfc = benchmark.pedantic(
        lambda: run_fig9b(world, fig9b, backend), rounds=2,
        warmup_rounds=1,
    )
    rows = []
    for step in trace.steps:
        aea_seconds = step.alpha + step.beta  # includes TFC verify share
        rows.append([
            step.label, f"{aea_seconds:.4f}", f"{step.gamma:.4f}",
            f"{step.gamma / aea_seconds:.2f}",
        ])
    emit_table(
        "tfc_per_step",
        "Claim C3: TFC processing vs AEA-side handling per step",
        ["Step", "AEA total (s)", "TFC gamma (s)", "ratio"],
        rows,
    )
    total_gamma = sum(s.gamma for s in trace.steps)
    total_aea = sum(s.alpha + s.beta for s in trace.steps)
    assert total_gamma < 0.75 * total_aea


def test_tfc_service_rate(benchmark, world, fig9b, backend):
    """Finalisations per second on a fresh single-step document."""
    tfc = TfcServer(world.keypair(TFC_IDENTITY), world.directory,
                    backend=backend)
    agent = ActivityExecutionAgent(world.keypair(PARTICIPANTS["A"]),
                                   world.directory, backend)

    def make_pending():
        initial = build_initial_document(fig9b, world.keypair(DESIGNER),
                                         backend=backend)
        return agent.execute_activity(
            initial, "A", {"attachment": "form"}, mode="advanced",
            tfc_identity=tfc.identity, tfc_public_key=tfc.public_key,
        ).document

    # Producer rate: how fast one AEA emits intermediate documents.
    produce_start = time.perf_counter()
    pending = [make_pending() for _ in range(8)]
    produce_rate = 8 / (time.perf_counter() - produce_start)

    index = iter(range(10**9))

    def finalise():
        return tfc.process(pending[next(index) % len(pending)])

    benchmark.pedantic(finalise, rounds=16, warmup_rounds=2)
    tfc_rate = 1.0 / benchmark.stats["mean"]

    emit_table(
        "tfc_throughput",
        "Claim C3: TFC service rate vs one participant's production rate",
        ["quantity", "value"],
        [["TFC finalisations/s", f"{tfc_rate:.1f}"],
         ["one AEA's submissions/s", f"{produce_rate:.1f}"],
         ["participants one TFC sustains",
          f"{tfc_rate / produce_rate:.1f}"]],
    )
    # A single TFC keeps up with at least one full-speed participant —
    # and real participants think for minutes, not milliseconds.
    assert tfc_rate > 0.5 * produce_rate
