"""Canonicalization: determinism, escaping, round-trip stability."""

from __future__ import annotations

import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, strategies as st

from repro.errors import CanonicalizationError
from repro.xmlsec.canonical import canonicalize, parse_xml


def test_simple_element():
    assert canonicalize(ET.fromstring("<a>text</a>")) == b"<a>text</a>"


def test_attributes_sorted():
    a = ET.Element("e")
    a.set("zeta", "1")
    a.set("alpha", "2")
    assert canonicalize(a) == b'<e alpha="2" zeta="1"></e>'


def test_attribute_order_irrelevant():
    one = parse_xml(b'<e b="2" a="1"/>')
    two = parse_xml(b'<e a="1" b="2"/>')
    assert canonicalize(one) == canonicalize(two)


def test_self_closing_normalized():
    assert canonicalize(parse_xml(b"<a/>")) == b"<a></a>"


def test_text_escaping():
    e = ET.Element("a")
    e.text = 'x < y & z > "q"'
    out = canonicalize(e)
    assert out == b'<a>x &lt; y &amp; z &gt; "q"</a>'
    assert canonicalize(parse_xml(out)) == out


def test_attribute_escaping():
    e = ET.Element("a", {"v": 'he said "hi" & left\n'})
    out = canonicalize(e)
    assert b"&quot;" in out and b"&amp;" in out and b"&#10;" in out
    assert canonicalize(parse_xml(out)) == out


def test_children_and_tails():
    root = parse_xml(b"<r>head<c>inner</c>tail<c2/>end</r>")
    assert canonicalize(root) == b"<r>head<c>inner</c>tail<c2></c2>end</r>"


def test_own_tail_excluded():
    root = parse_xml(b"<r><c>inner</c>tail</r>")
    child = root.find("c")
    assert canonicalize(child) == b"<c>inner</c>"


def test_comments_dropped():
    root = ET.fromstring("<r><!-- secret -->visible</r>")
    assert b"secret" not in canonicalize(root)


def test_none_rejected():
    with pytest.raises(CanonicalizationError):
        canonicalize(None)  # type: ignore[arg-type]


def test_parse_rejects_malformed():
    with pytest.raises(CanonicalizationError):
        parse_xml(b"<unclosed>")


def test_parse_accepts_str():
    assert parse_xml("<a>1</a>").text == "1"


# -- property: round-trip stability -------------------------------------------

_names = st.sampled_from(["a", "b", "cer", "Data", "x1", "ns_tag"])
# The XML 1.0 Char production: TAB/LF/CR, the BMP minus surrogates and
# the U+FFFE/U+FFFF noncharacters, and the supplementary planes.
_texts = st.text(
    alphabet=st.one_of(
        st.characters(
            codec="utf-8",
            exclude_categories=("Cs", "Cc"),
            exclude_characters="￾￿",
        ),
        # Whitespace control characters are legal XML and exercise the
        # CR/TAB/LF escaping rules (CR normalization broke round-trip
        # stability once — keep generating it).
        st.sampled_from("\t\n\r"),
    ),
    max_size=30,
)


@st.composite
def xml_trees(draw, depth=0):
    element = ET.Element(draw(_names))
    for key in draw(st.lists(_names, max_size=3, unique=True)):
        element.set(key, draw(_texts))
    element.text = draw(_texts) or None
    if depth < 3:
        for child in draw(st.lists(xml_trees(depth=depth + 1), max_size=3)):
            child.tail = draw(_texts) or None
            element.append(child)
    return element


@given(xml_trees())
def test_roundtrip_stability(tree):
    once = canonicalize(tree)
    again = canonicalize(parse_xml(once))
    assert once == again


@given(xml_trees())
def test_canonical_form_is_parseable(tree):
    parse_xml(canonicalize(tree))


class TestXmlValidityGuards:
    """Characters/names that XML cannot represent are rejected, not
    silently serialized into unparseable output."""

    @pytest.mark.parametrize("bad", ["\x00", "\x0b", "￾", "￿",
                                     "ok\x01ok"])
    def test_invalid_text_rejected(self, bad):
        element = ET.Element("a")
        element.text = bad
        with pytest.raises(CanonicalizationError, match="cannot be"):
            canonicalize(element)

    def test_invalid_attribute_value_rejected(self):
        element = ET.Element("a", {"v": "x\x02y"})
        with pytest.raises(CanonicalizationError):
            canonicalize(element)

    def test_invalid_tail_rejected(self):
        root = ET.Element("r")
        child = ET.SubElement(root, "c")
        child.tail = "￾"
        with pytest.raises(CanonicalizationError):
            canonicalize(root)

    @pytest.mark.parametrize("name", ["1leading", "with space", "a<b",
                                      'q"uote'])
    def test_invalid_names_rejected(self, name):
        with pytest.raises(CanonicalizationError, match="invalid"):
            canonicalize(ET.Element(name))
        element = ET.Element("ok")
        element.set(name, "v")
        with pytest.raises(CanonicalizationError, match="invalid"):
            canonicalize(element)

    def test_whitespace_controls_allowed(self):
        element = ET.Element("a", {"v": "tab\there"})
        element.text = "line\nbreak\tand\rcr"
        out = canonicalize(element)
        assert canonicalize(parse_xml(out)) == out


# -- single-pass escaping ------------------------------------------------------


class TestEscapingEquivalence:
    """The table-driven (str.translate) escapers must match the
    reference chained-replace semantics exactly — & first, then the
    other entities, so no double escaping."""

    @staticmethod
    def _reference_text(text):
        return (text.replace("&", "&amp;").replace("<", "&lt;")
                .replace(">", "&gt;").replace("\r", "&#13;"))

    @staticmethod
    def _reference_attr(value):
        return (value.replace("&", "&amp;").replace("<", "&lt;")
                .replace(">", "&gt;").replace('"', "&quot;")
                .replace("\t", "&#9;").replace("\n", "&#10;")
                .replace("\r", "&#13;"))

    @given(_texts)
    def test_text_matches_reference(self, text):
        from repro.xmlsec.canonical import _escape_text
        assert _escape_text(text) == self._reference_text(text)

    @given(_texts)
    def test_attr_matches_reference(self, value):
        from repro.xmlsec.canonical import _escape_attr
        assert _escape_attr(value) == self._reference_attr(value)

    def test_no_double_escaping(self):
        from repro.xmlsec.canonical import _escape_text
        assert _escape_text("&amp;") == "&amp;amp;"
        assert _escape_text("&<>&") == "&amp;&lt;&gt;&amp;"


# -- canonical memo ------------------------------------------------------------


class TestCanonicalMemo:
    def _memo(self):
        from repro.xmlsec.canonical import CanonicalMemo
        return CanonicalMemo()

    def test_store_lookup_discard(self):
        memo = self._memo()
        element = ET.Element("a")
        assert memo.lookup(element) is None
        assert memo.misses == 1
        memo.store(element, "<a></a>")
        assert memo.lookup(element) == "<a></a>"
        assert memo.hits == 1
        assert len(memo) == 1
        memo.discard(element)
        assert memo.lookup(element) is None
        assert len(memo) == 0

    def test_clear_drops_everything(self):
        memo = self._memo()
        elements = [ET.Element(n) for n in ("a", "b", "c")]
        for element in elements:
            memo.store(element, element.tag)
        memo.clear()
        assert len(memo) == 0
        assert all(memo.lookup(e) is None for e in elements)

    def test_keyed_by_identity_not_equality(self):
        memo = self._memo()
        one, two = ET.Element("a"), ET.Element("a")
        memo.store(one, "first")
        assert memo.lookup(two) is None

    @given(xml_trees())
    def test_memoized_canonicalize_is_identical(self, tree):
        memo = self._memo()
        cold = canonicalize(tree)
        first = canonicalize(tree, memo)
        second = canonicalize(tree, memo)
        assert first == cold
        assert second == cold


# -- segmented canonicalization ------------------------------------------------


class TestCanonicalizeSegments:
    @given(xml_trees())
    def test_concatenation_equals_canonicalize(self, tree):
        from repro.xmlsec.canonical import canonicalize_segments
        segments = canonicalize_segments(tree, "cer")
        assert b"".join(data for _, data in segments) == canonicalize(tree)

    @given(xml_trees())
    def test_boundary_segments_are_subtree_canonicalizations(self, tree):
        from repro.xmlsec.canonical import canonicalize_segments
        segments = canonicalize_segments(tree, "cer")
        boundary = [data for flagged, data in segments if flagged]
        if tree.tag == "cer":
            expected = [canonicalize(tree)]
        else:
            expected = [canonicalize(node) for node in tree.iter("cer")
                        if self._is_maximal(tree, node)]
        assert boundary == expected

    @staticmethod
    def _is_maximal(root, node):
        """True when no ancestor of *node* is itself a boundary."""
        parents = {child: parent for parent in root.iter()
                   for child in parent}
        current = parents.get(node)
        while current is not None:
            if current.tag == "cer":
                return False
            current = parents.get(current)
        return True

    def test_memo_reuse_does_not_change_segments(self):
        from repro.xmlsec.canonical import CanonicalMemo, canonicalize_segments
        root = parse_xml(b"<r><cer>one</cer><mid>x</mid><cer>two</cer></r>")
        memo = CanonicalMemo()
        cold = canonicalize_segments(root, "cer", memo)
        warm = canonicalize_segments(root, "cer", memo)
        assert warm == cold

    def test_none_rejected(self):
        from repro.xmlsec.canonical import canonicalize_segments
        with pytest.raises(CanonicalizationError):
            canonicalize_segments(None, "cer")
