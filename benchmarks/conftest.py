"""Shared fixtures and table reporting for the benchmark harness.

Each benchmark regenerates one table/figure/claim from the paper's
evaluation (§4).  Reproduced tables are printed to stdout *and* written
to ``benchmarks/results/*.txt`` so EXPERIMENTS.md can quote them.

Key size note: the paper's 2012 testbed (JDK 6) used RSA-1024 XML
signatures by default, and our document sizes match the paper's closely
at 1024 bits (final Fig. 9A document ≈ 21 kB vs the paper's 22.9 kB).
Table benches therefore use RSA-1024; the crypto microbenches sweep
1024/2048.
"""

from __future__ import annotations

import json
import os
import pathlib
import statistics
import subprocess

import pytest

from repro.core import InMemoryRuntime, TfcServer
from repro.crypto.fast import FastBackend
from repro.document import build_initial_document
from repro.workloads import build_world, figure9_responders
from repro.workloads.figure9 import (
    DESIGNER,
    PARTICIPANTS,
    figure_9a_definition,
    figure_9b_definition,
)
from repro.workloads.generator import participant_pool

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
TFC_IDENTITY = "tfc@cloud.example"
GENERIC_DESIGNER = "designer@enterprise.example"


@pytest.fixture(scope="session")
def backend():
    return FastBackend()


@pytest.fixture(scope="session")
def world(backend):
    """PKI world: Fig. 9 participants + TFC + a generic pool of six."""
    identities = [
        DESIGNER, *PARTICIPANTS.values(), TFC_IDENTITY,
        GENERIC_DESIGNER, *participant_pool(6),
    ]
    return build_world(identities, bits=1024, backend=backend)


@pytest.fixture(scope="session")
def fig9a():
    return figure_9a_definition()


@pytest.fixture(scope="session")
def fig9b():
    return figure_9b_definition()


def run_fig9a(world, fig9a, backend):
    """One measured basic-model execution (10 steps)."""
    initial = build_initial_document(fig9a, world.keypair(DESIGNER),
                                     backend=backend)
    runtime = InMemoryRuntime(world.directory, world.keypairs,
                              backend=backend)
    return initial, runtime.run(initial, fig9a, figure9_responders(1),
                                mode="basic")


def run_fig9b(world, fig9b, backend):
    """One measured advanced-model execution; returns (initial, trace, tfc)."""
    initial = build_initial_document(fig9b, world.keypair(DESIGNER),
                                     backend=backend)
    tfc = TfcServer(world.keypair(TFC_IDENTITY), world.directory,
                    backend=backend)
    runtime = InMemoryRuntime(world.directory, world.keypairs, tfc=tfc,
                              backend=backend)
    return initial, runtime.run(initial, fig9b, figure9_responders(1),
                                mode="advanced"), tfc


def step_medians(traces, field: str) -> list[float]:
    """Per-step median of *field* over *traces*, one per measured round.

    A single wall-clock sample per step flakes on a busy host; the
    median of the rounds ``benchmark.pedantic`` times does not.
    """
    return [statistics.median(getattr(step, field) for step in steps)
            for steps in zip(*(trace.steps for trace in traces))]


def emit_table(name: str, title: str, header: list[str],
               rows: list[list[object]]) -> str:
    """Format, print, and persist one reproduced table."""
    widths = [
        max(len(str(header[i])), *(len(str(r[i])) for r in rows))
        for i in range(len(header))
    ]
    lines = [title, "-" * len(title)]
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    text = "\n".join(lines) + "\n"
    print("\n" + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text)
    return text


#: Version of the ``bench_meta`` stamp carried by every BENCH file.
BENCH_SCHEMA = 1


def _git_sha() -> str:
    """Short commit id of the tree the bench ran on; never raises."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=pathlib.Path(__file__).parent, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else "unknown"


def bench_meta(name: str) -> dict:
    """The provenance stamp merged into every emitted BENCH payload."""
    return {
        "name": name,
        "schema_version": BENCH_SCHEMA,
        "git_sha": _git_sha(),
        "cpu_count": os.cpu_count() or 1,
    }


def emit_bench(name: str, payload: dict) -> str:
    """Persist a machine-readable benchmark result — the ONE emitter.

    Written twice: ``BENCH_<name>.json`` at the repo root (what CI
    uploads as an artifact and diff-checks across runs) and a copy under
    ``benchmarks/results/`` next to the human-readable tables.  Every
    bench and sweep script goes through here so the naming scheme,
    serialisation (sorted keys, trailing newline) and destinations can
    never drift apart.

    A ``bench_meta`` provenance key (name, stamp schema version, git
    SHA, cpu count) is merged into every payload so
    ``scripts/bench_trajectory.py`` can build a cross-run trajectory
    table.  It is one *added* key — existing top-level result keys are
    untouched, so consumers pinned to them keep working.
    """
    stamped = dict(payload)
    stamped["bench_meta"] = bench_meta(name)
    text = json.dumps(stamped, indent=2, sort_keys=True) + "\n"
    root = pathlib.Path(__file__).parent.parent
    (root / f"BENCH_{name}.json").write_text(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.json").write_text(text)
    return text


# Back-compat alias for external scripts pinned to the old name.
emit_bench_json = emit_bench
