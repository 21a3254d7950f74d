"""``clone_for_append`` is a path copy.

The copy gets its own root and results section and shares every other
element with its source; its canonical memo is the source's, minus the
two replaced elements.  Appending to the copy, or merging two copies,
must leave every source exactly as it was, and the copy must serialize
byte-identically to a deep copy that had the same CERs appended.
"""

from __future__ import annotations

import copy

import pytest

from repro.document.amendments import GrantReader, make_amendment_cer
from repro.document.cer import CER
from repro.document.document import Dra4wfmsDocument
from repro.document.nonrepudiation import frontier_cers
from repro.document.verify import verify_document
from repro.errors import ReproError
from repro.workloads.figure9 import PARTICIPANTS

from ..workload_documents import WORKLOAD_SPECS, final_document

SOURCES = ["fig9a", "fig9b", *WORKLOAD_SPECS]


@pytest.fixture(params=SOURCES)
def source(request, fig9a_trace, fig9b_run, world):
    """(an executed document, the world that signed it)."""
    name = request.param
    if name == "fig9a":
        return fig9a_trace.final_document, world
    if name == "fig9b":
        return fig9b_run[0].final_document, world
    workload_world, data = final_document(name)
    received = Dra4wfmsDocument.from_bytes(data)
    # As a receiver holds it: verification left canonical text behind.
    verify_document(received, workload_world.directory,
                    workload_world.backend)
    return received, workload_world


def new_cer(document, world, sequence):
    """A fresh CER countersigning *document*'s frontier."""
    frontier = [cer.signature.element for cer in frontier_cers(document)]
    activity = document.cers()[-1].activity_id
    return make_amendment_cer(
        GrantReader(activity, f"note{sequence}", PARTICIPANTS["A"]),
        sequence, world.keypair(document.designer), frontier, world.backend)


def verdict(document, world):
    try:
        return verify_document(document, world.directory, world.backend)
    except ReproError as exc:
        return type(exc).__name__, str(exc)


class TestPathCopy:
    def test_append_leaves_source_unchanged(self, source):
        document, world = source
        before, report = document.to_bytes(), verdict(document, world)
        appended = document.clone_for_append()
        appended.append_cer(new_cer(document, world, 0))
        assert document.to_bytes() == before
        assert Dra4wfmsDocument.from_bytes(before).to_bytes() == before
        assert document.clone().to_bytes() == before
        assert verdict(document, world) == report
        assert len(appended.cers()) == len(document.cers()) + 1

    def test_copy_serializes_like_a_deep_copy(self, source):
        document, world = source
        cer = new_cer(document, world, 0)
        deep = document.clone()
        deep.append_cer(CER(copy.deepcopy(cer.element)))
        appended = document.clone_for_append()
        appended.append_cer(cer)
        assert appended.to_bytes() == deep.to_bytes()
        assert appended.clone().to_bytes() == deep.to_bytes()
        assert verdict(appended, world) == verdict(deep, world)

    def test_merge_of_two_copies_leaves_both_unchanged(self, source):
        document, world = source
        before = document.to_bytes()
        left = document.clone_for_append()
        left.append_cer(new_cer(document, world, 0))
        right = document.clone_for_append()
        right.append_cer(new_cer(document, world, 1))
        left_bytes, right_bytes = left.to_bytes(), right.to_bytes()
        merged = left.merge(right)
        assert left.to_bytes() == left_bytes
        assert right.to_bytes() == right_bytes
        assert left.clone().to_bytes() == left_bytes
        assert right.clone().to_bytes() == right_bytes
        assert document.to_bytes() == before
        assert merged.to_bytes() == merged.clone().to_bytes()
        assert len(merged.cers()) == len(document.cers()) + 2

    def test_creates_at_most_two_elements(self, source):
        document, _ = source
        copied = document.clone_for_append()
        originals = {id(element) for element in document.root.iter()}
        created = [element for element in copied.root.iter()
                   if id(element) not in originals]
        assert len(created) <= 2
        assert copied.root is not document.root
        assert copied.results_section is not document.results_section

    def test_replaced_elements_have_their_own_attributes(self, source):
        document, _ = source
        copied = document.clone_for_append()
        # Against the contract, only to show the dicts are not shared.
        copied.root.set("Probe", "1")
        copied.results_section.set("Probe", "1")
        assert document.root.get("Probe") is None
        assert document.results_section.get("Probe") is None

    def test_memo_drops_only_the_replaced_elements(self, source):
        document, _ = source
        document.to_bytes()
        copied = document.clone_for_append()
        assert copied._memo.lookup(document.root) is None
        assert copied._memo.lookup(document.results_section) is None
        shared = [cer.element for cer in document.cers()]
        assert all(copied._memo.lookup(element) is not None
                   for element in shared)

