"""The canonicalization kernel against the reference kernel.

:mod:`c14n_reference` serializes the straightforward way.  The
production kernel in :mod:`repro.xmlsec.canonical` scans each string
once and remembers accepted names; it must give byte-identical output,
or raise the same exception with the same message, on every input —
random trees full of invalid characters and names, boundary segments,
and every element of the benchmark workloads' final documents.
"""

from __future__ import annotations

import tracemalloc
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CanonicalizationError
from repro.xmlsec import canonical
from repro.xmlsec.canonical import (
    CanonicalMemo,
    canonicalize,
    canonicalize_boundaries,
    parse_xml,
)

from ..workload_documents import WORKLOAD_SPECS, final_document
from .c14n_reference import reference_canonicalize

_VALID_NAMES = ["a", "b", "cer", "Data", "x1", "ns_tag", "Id"]
_INVALID_NAMES = ["1leading", "with space", "é", "Résumé", 'q"uote']
# Invalid input is rare enough that most trees serialize.
_names = st.sampled_from(_VALID_NAMES * 25 + _INVALID_NAMES)
_valid_texts = st.text(
    alphabet=st.one_of(
        st.characters(codec="utf-8", exclude_categories=("Cs", "Cc"),
                      exclude_characters="\ufffe\uffff"),
        st.sampled_from("\t\n\r&<>\"'"),
    ),
    max_size=12,
)
# C0 controls other than TAB/LF/CR, and the two noncharacters.
_invalid_texts = st.tuples(
    _valid_texts, st.sampled_from("\x00\x01\x0b\x1f\ufffe\uffff"),
    _valid_texts,
).map("".join)


_rarely = st.sampled_from([False] * 23 + [True])


@st.composite
def _texts(draw):
    if draw(_rarely):
        return draw(_invalid_texts)
    return draw(_valid_texts)


_values = st.one_of(st.none(), st.just(""), _texts())


@st.composite
def trees(draw, depth=0):
    """Random trees with comments, PIs, tails and up to 6 attributes."""
    element = ET.Element(draw(_names))
    for name in draw(st.lists(_names, max_size=6, unique=True)):
        element.set(name, draw(_values))
    element.text = draw(_texts()) or None
    if depth < 3:
        for kind in draw(st.lists(st.sampled_from(
                ["element", "element", "comment", "pi"]), max_size=3)):
            if kind == "element":
                child = draw(trees(depth=depth + 1))
            elif kind == "comment":
                child = ET.Comment(draw(_texts()))
            else:
                child = ET.ProcessingInstruction("pi", draw(_texts()))
            child.tail = draw(_texts()) or None
            element.append(child)
    return element


def outcome(fn, *args):
    """The bytes *fn* returns, or the type and message it raises."""
    try:
        return fn(*args)
    except CanonicalizationError as exc:
        return type(exc), str(exc)


def memo_state(memo: CanonicalMemo):
    return (memo.hits, memo.misses,
            {key: chunk for key, (_, chunk) in memo._entries.items()},
            {key: data for key, (_, data, _) in memo._chunks.items()})


def maximal(root: ET.Element, tag: str) -> list[ET.Element]:
    """Subtrees tagged *tag* with no ancestor tagged *tag*."""
    if root.tag == tag:
        return [root]
    return [node for child in root if isinstance(child.tag, str)
            for node in maximal(child, tag)]


def reference_boundaries(root: ET.Element, tag: str):
    """What :func:`canonicalize_boundaries` must return, from the
    reference kernel: the bytes of the whole tree and of each boundary."""
    whole = outcome(reference_canonicalize, root)
    if isinstance(whole, tuple):
        return whole
    return whole, [(node, reference_canonicalize(node))
                   for node in maximal(root, tag)]


def boundaries(root: ET.Element, tag: str, memo=None):
    segments = outcome(canonicalize_boundaries, root, tag, memo)
    if isinstance(segments, tuple):
        return segments
    flags = [flagged for flagged, _, _ in segments]
    # Glue is merged: two glue segments are never adjacent.
    assert all(a or b for a, b in zip(flags, flags[1:]))
    return (b"".join(data for _, data, _ in segments),
            [(node, data) for flagged, data, node in segments if flagged])


class TestRandomTrees:
    @settings(max_examples=300, deadline=None)
    @given(trees(), st.booleans())
    def test_matches_reference(self, tree, use_memo):
        memo = CanonicalMemo() if use_memo else None
        reference_memo = CanonicalMemo() if use_memo else None
        for _ in range(2 if use_memo else 1):
            assert (outcome(canonicalize, tree, memo)
                    == outcome(reference_canonicalize, tree,
                               reference_memo))
        if use_memo:
            assert memo_state(memo) == memo_state(reference_memo)
        for node in tree.iter():
            assert (outcome(canonicalize, node)
                    == outcome(reference_canonicalize, node))

    @settings(max_examples=200, deadline=None)
    @given(trees(), st.booleans())
    def test_boundaries_match_reference(self, tree, use_memo):
        memo = CanonicalMemo() if use_memo else None
        expected = reference_boundaries(tree, "cer")
        assert boundaries(tree, "cer", memo) == expected
        if use_memo:
            # Served from the memo's cached boundary bytes.
            assert boundaries(tree, "cer", memo) == expected


class TestWorkloadDocuments:
    @pytest.mark.parametrize("spec", WORKLOAD_SPECS)
    def test_every_element_matches_reference(self, spec):
        _, data = final_document(spec)
        root = parse_xml(data)
        for node in root.iter():
            assert canonicalize(node) == reference_canonicalize(node)
        memo, reference_memo = CanonicalMemo(), CanonicalMemo()
        assert (canonicalize(root, memo)
                == reference_canonicalize(root, reference_memo) == data)
        assert memo_state(memo) == memo_state(reference_memo)

    @pytest.mark.parametrize("spec", WORKLOAD_SPECS)
    def test_boundaries_match_reference(self, spec):
        _, data = final_document(spec)
        root = parse_xml(data)
        assert boundaries(root, "CER") == reference_boundaries(root, "CER")
        memo = CanonicalMemo()
        canonicalize(root, memo)
        assert (boundaries(root, "CER", memo)
                == reference_boundaries(root, "CER"))


class TestNameSet:
    """Remembering accepted names never changes what is accepted."""

    @pytest.mark.parametrize("name", _INVALID_NAMES)
    def test_rejected_again_and_never_remembered(self, name):
        for _ in range(2):
            with pytest.raises(CanonicalizationError,
                               match="invalid element name"):
                canonicalize(ET.Element(name))
            with pytest.raises(CanonicalizationError,
                               match="invalid attribute name"):
                canonicalize(ET.Element("ok", {name: "v"}))
        assert name not in canonical._NAMES

    def test_full_set_still_checks(self, monkeypatch):
        monkeypatch.setattr(canonical, "_NAMES", {"a", "b"})
        monkeypatch.setattr(canonical, "_NAMES_MAX", 2)
        with pytest.raises(CanonicalizationError, match="invalid element"):
            canonicalize(ET.Element("1leading"))
        with pytest.raises(CanonicalizationError, match="invalid attribute"):
            canonicalize(ET.Element("a", {"with space": "v"}))
        assert canonicalize(ET.Element("fresh", {"new": "1"})) == \
            b'<fresh new="1"></fresh>'
        assert canonical._NAMES == {"a", "b"}


def test_canonicalizing_retains_no_memory():
    """The kernel leaves nothing behind on the tree it serializes (a
    kernel that read ``element.attrib`` would leave a dict on every
    attribute-less element of the C ElementTree)."""
    _, data = final_document("fig9")
    canonicalize(parse_xml(data))  # warm-up: name set, regex caches
    root = parse_xml(data)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        canonicalize(root)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after <= before
