"""Archival bundles: sealed, self-contained, cold-verifiable evidence.

The bundle must carry *everything* verification needs — document
bytes, manifest, chunk payloads, and a public trust snapshot — so a
fresh process with no pool, HBase, or network can still run the full
signature cascade.  And it must be tamper-evident: any bit flipped in
any layer has to surface as an :class:`ArchiveError`, never as a
silently "valid" bundle.
"""

from __future__ import annotations

import base64
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cloud.hbase import SimHBase
from repro.cloud.pool import DocumentPool
from repro.document import (
    ARCHIVE_FORMAT,
    ArchiveBundle,
    build_archive,
    export_archive,
    verify_archive,
)
from repro.errors import ArchiveError, VerificationError
from tests.conftest import TFC_IDENTITY


@pytest.fixture(scope="module")
def bundle_bytes(fig9a_trace, world):
    return build_archive(fig9a_trace.final_document, world).to_bytes()


def _payload(data: bytes) -> dict:
    return json.loads(data.decode("utf-8"))


def _rebytes(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


class TestRoundTrip:
    def test_verify_archive_round_trip(self, bundle_bytes, fig9a_trace,
                                       backend):
        report = verify_archive(bundle_bytes, backend=backend)
        final = fig9a_trace.final_document
        assert report.process_id == final.process_id
        assert report.doc_bytes == len(final.to_bytes())
        assert report.signatures_verified > 0
        assert report.cers_checked == len(final.cers())
        assert report.warnings == []

    def test_serialization_is_deterministic(self, fig9a_trace, world):
        once = build_archive(fig9a_trace.final_document, world).to_bytes()
        twice = build_archive(fig9a_trace.final_document, world).to_bytes()
        assert once == twice

    def test_from_bytes_restores_structure(self, bundle_bytes, fig9a_trace):
        bundle = ArchiveBundle.from_bytes(bundle_bytes)
        final = fig9a_trace.final_document
        assert bundle.process_id == final.process_id
        assert bundle.document == final.to_bytes()
        assert set(bundle.manifest.chunk_digests) == set(bundle.chunks)
        # Public snapshot only: no private key material anywhere.
        assert b"private" not in bundle_bytes.lower() or \
            "private" not in json.dumps(bundle.trust)

    def test_tfc_identities_travel_with_the_bundle(self, fig9b_run,
                                                   world, backend):
        trace, _ = fig9b_run
        data = build_archive(trace.final_document, world,
                             tfc_identities=[TFC_IDENTITY]).to_bytes()
        report = verify_archive(data, backend=backend)
        assert report.signatures_verified > 0
        assert report.warnings == []

    def test_trust_accepts_public_dict(self, fig9a_trace, world, backend):
        data = build_archive(fig9a_trace.final_document,
                             world.to_public_dict()).to_bytes()
        assert verify_archive(data, backend=backend).signatures_verified > 0

    def test_trust_rejects_other_types(self, fig9a_trace):
        with pytest.raises(ArchiveError, match="trust must be"):
            build_archive(fig9a_trace.final_document, trust=["not", "a"])


class TestColdVerification:
    def test_fresh_process_verifies_with_no_infrastructure(
            self, bundle_bytes, tmp_path):
        """The acceptance criterion: a brand-new interpreter, nothing
        but the bundle file and the library on disk."""
        bundle_path = tmp_path / "bundle.json"
        bundle_path.write_bytes(bundle_bytes)
        src_dir = Path(__file__).resolve().parents[2] / "src"
        script = (
            "import sys\n"
            "from repro.document import verify_archive\n"
            "report = verify_archive(open(sys.argv[1], 'rb').read())\n"
            "print(f'COLD-OK {report.process_id} "
            "{report.signatures_verified}')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(bundle_path)],
            capture_output=True, text=True, timeout=120,
            env={"PYTHONPATH": str(src_dir), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("COLD-OK ")
        assert proc.stdout.split()[2] != "0"


class TestTamperDetection:
    def test_corrupted_chunk_payload(self, bundle_bytes):
        payload = _payload(bundle_bytes)
        digest = sorted(payload["chunks"])[0]
        raw = bytearray(base64.b64decode(payload["chunks"][digest]))
        raw[0] ^= 0xFF
        payload["chunks"][digest] = base64.b64encode(
            bytes(raw)).decode("ascii")
        with pytest.raises(ArchiveError, match="content address"):
            verify_archive(_rebytes(payload))

    def test_missing_chunk(self, bundle_bytes):
        payload = _payload(bundle_bytes)
        del payload["chunks"][sorted(payload["chunks"])[0]]
        with pytest.raises(ArchiveError, match="missing 1 chunk"):
            verify_archive(_rebytes(payload))

    def test_document_bytes_swapped(self, bundle_bytes):
        payload = _payload(bundle_bytes)
        payload["document"] = base64.b64encode(
            b"<not-the-document/>").decode("ascii")
        with pytest.raises(ArchiveError, match="differ from the manifest"):
            verify_archive(_rebytes(payload))

    def test_process_id_mismatch(self, bundle_bytes):
        payload = _payload(bundle_bytes)
        payload["process_id"] = "0" * 32
        with pytest.raises(ArchiveError, match="names process"):
            verify_archive(_rebytes(payload))

    def test_gutted_trust_snapshot(self, bundle_bytes):
        """An emptied trust snapshot parses but can resolve no key, so
        the signature cascade fails loudly."""
        payload = _payload(bundle_bytes)
        payload["trust"] = {"authorities": [], "certificates": []}
        with pytest.raises(VerificationError,
                           match="cannot resolve public key"):
            verify_archive(_rebytes(payload))

    def test_unknown_format_tag(self, bundle_bytes):
        payload = _payload(bundle_bytes)
        payload["format"] = "dra4wfms-archive/99"
        with pytest.raises(ArchiveError, match="unsupported archive format"):
            verify_archive(_rebytes(payload))

    def test_garbage_bytes(self):
        with pytest.raises(ArchiveError, match="malformed"):
            verify_archive(b"\x00\x01 not json at all")
        with pytest.raises(ArchiveError, match="malformed"):
            verify_archive(b'["an", "array"]')


class TestExportFromPool:
    def test_export_then_retire_keeps_evidence(self, fig9a_trace, world,
                                               backend):
        """The intended lifecycle: archive the evidence, then drop the
        instance from hot storage — the bundle still verifies."""
        pool = DocumentPool(SimHBase(region_servers=2), delta=True)
        final = fig9a_trace.final_document
        pool.register_process(final.process_id)
        pool.store(final)
        data = export_archive(pool, final.process_id, world).to_bytes()
        pool.archive(final.process_id)
        pool.retire(final.process_id)
        assert pool.chunks.stats["unique_chunks"] == 0
        report = verify_archive(data, backend=backend)
        assert report.process_id == final.process_id
        assert report.signatures_verified > 0

    def test_format_constant_is_versioned(self):
        assert ARCHIVE_FORMAT.endswith("/1")
