"""Deterministic XML canonicalization.

Digital signatures must be computed over a byte stream, but two XML
serializations of the *same* infoset can differ (attribute order,
quoting, whitespace between attributes).  This module implements a
small, strict canonical form — a subset of Exclusive XML
Canonicalization adequate for documents this library itself produces:

* UTF-8 output;
* attributes sorted lexicographically by name;
* double-quoted attribute values with ``&amp; &lt; &gt; &quot; &#9;
  &#10; &#13;`` escaping;
* text content escaped (``& < >``) and preserved byte-for-byte
  otherwise;
* no XML declaration, comments, or processing instructions;
* empty elements serialized as ``<tag></tag>`` (never ``<tag/>``).

The guarantee the rest of the stack relies on is *round-trip
stability*: ``canonicalize(parse(canonicalize(e))) == canonicalize(e)``,
which the property tests check on random trees.

Because the canonical form of an element never depends on its ancestors
(no namespace or entity context), a subtree's serialization can be
cached and spliced verbatim into any later serialization of an
enclosing tree.  :class:`CanonicalMemo` exploits exactly that:
DRA4WfMS documents are append-only, so the CERs of every previous hop
re-serialize to the same bytes on every hop — memoising them turns
``to_bytes``/digesting from O(document) re-escaping work into an
O(new CER) serialization plus a buffer join.  See ``docs/ROUTING.md``
for the invalidation rules.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET

from ..errors import CanonicalizationError

__all__ = [
    "CanonicalMemo",
    "canonicalize",
    "canonicalize_boundaries",
    "canonicalize_segments",
    "parse_xml",
    "to_bytes",
]

# Characters outside the XML 1.0 Char production (control characters
# other than TAB/LF/CR, surrogates, and the U+FFFE/U+FFFF
# noncharacters).  Such characters cannot be represented in well-formed
# XML at all — not even as character references — so canonical output
# containing them would fail to re-parse and break every signature
# downstream.  Fail closed instead (found by the round-trip property
# test).
_INVALID_XML_CHAR = re.compile(
    "[^\t\n\r\x20-퟿-�\U00010000-\U0010FFFF]"
)

# Conservative XML Name subset for tags and attribute names.
_XML_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9._\-]*$")

# Names that matched _XML_NAME (documents use a few dozen): a bounded
# cache of the name check that never holds a rejected name.
_NAMES: set[str] = set()
_NAMES_MAX = 4096

# One C-level scan per string finds any character that is invalid in
# XML or must be escaped.  Document text is dominated by base64 blobs
# that contain neither, so the common case returns the string as is;
# only a match pays for the validity check and the translate.
_TEXT_SPECIAL = re.compile("[^\t\n\x20-\x25\x27-\x3b\x3d\x3f-\ud7ff"
                           "\ue000-\ufffd\U00010000-\U0010FFFF]").search
_ATTR_SPECIAL = re.compile("[^\x20\x21\x23-\x25\x27-\x3b\x3d\x3f-\ud7ff"
                           "\ue000-\ufffd\U00010000-\U0010FFFF]").search
_TEXT_ESCAPES = {
    ord("&"): "&amp;",
    ord("<"): "&lt;",
    ord(">"): "&gt;",
    # CR must be a character reference: parsers apply line-end
    # normalization (CR → LF) to literal carriage returns, which would
    # break round-trip stability (exactly why W3C C14N escapes it too).
    ord("\r"): "&#13;",
}
_ATTR_ESCAPES = {
    ord("&"): "&amp;",
    ord("<"): "&lt;",
    ord(">"): "&gt;",
    ord('"'): "&quot;",
    ord("\t"): "&#9;",
    ord("\n"): "&#10;",
    ord("\r"): "&#13;",
}

#: Attribute that makes an element memo-worthy: the signable elements of
#: a DRA4WfMS document all carry an ``Id``, and those are exactly the
#: subtrees that get re-canonicalized hop after hop.
_ID_ATTR = "Id"


def _check_chars(text: str, where: str) -> None:
    match = _INVALID_XML_CHAR.search(text)
    if match is not None:
        raise CanonicalizationError(
            f"{where} contains a character (U+{ord(match.group()):04X}) "
            f"that cannot be represented in XML; encode binary data as "
            f"base64 instead"
        )


def _check_name(name: str, kind: str) -> None:
    if not _XML_NAME.match(name):
        raise CanonicalizationError(f"invalid {kind} name {name!r}")
    if len(_NAMES) < _NAMES_MAX:
        _NAMES.add(name)


def _escape_text(text: str) -> str:
    if _TEXT_SPECIAL(text) is None:
        return text
    _check_chars(text, "text content")
    return text.translate(_TEXT_ESCAPES)


def _escape_attr(value: str) -> str:
    if _ATTR_SPECIAL(value) is None:
        return value
    _check_chars(value, "attribute value")
    return value.translate(_ATTR_ESCAPES)


def _start_tag(element: ET.Element) -> str:
    """``<tag a="v" …>`` of *element*: names checked, values escaped."""
    tag = element.tag
    if tag not in _NAMES:
        _check_name(tag, "element")
    # items(), never .attrib: on the C ElementTree, reading .attrib
    # creates (and keeps) a dict on every attribute-less element.
    items = element.items()
    if not items:
        return f"<{tag}>"
    if len(items) > 1:
        items = sorted(items)
    start = f"<{tag}"
    for name, value in items:
        if name not in _NAMES:
            _check_name(name, "attribute")
        if not value:
            value = ""
        elif _ATTR_SPECIAL(value) is not None:
            value = _escape_attr(value)
        start += f' {name}="{value}"'
    return start + ">"


class CanonicalMemo:
    """Canonical serializations cached per element subtree.

    Entries are keyed by element *identity* and hold a strong reference
    to the element, so an ``id()`` can never be recycled while its entry
    lives.  A memo belongs to exactly one element tree; the owner must

    * call :meth:`discard` for every ancestor of a mutation point
      (appending a CER stales the serialization of the results section
      and the document root, but no sibling CER), and
    * never share a memo between trees — :meth:`without` derives a
      fresh memo for a path copy of the tree instead.

    The memo is a pure producer-side optimisation: verification never
    consults it, so no cache state can influence what a verifier
    accepts (the acceptance bar of ``docs/ROUTING.md``).  It only
    *writes* the text of every element it digests
    (:class:`~repro.xmlsec.digest.PassDigests`), for the receiver's next
    serialization.  Every entry must be canonical and current.
    """

    __slots__ = ("_entries", "_chunks", "hits", "misses")

    def __init__(self) -> None:
        #: id(element) → (element, serialized chunk)
        self._entries: dict[int, tuple[ET.Element, str]] = {}
        #: id(element) → (element, encoded bytes, content digest or None)
        #: for boundary subtrees (see :func:`canonicalize_boundaries`).
        #: Invalidated exactly like ``_entries`` — same owner contract.
        self._chunks: dict[int, tuple[ET.Element, bytes, str | None]] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, element: ET.Element) -> str | None:
        """Cached chunk of *element*, or ``None``."""
        entry = self._entries.get(id(element))
        if entry is not None and entry[0] is element:
            self.hits += 1
            return entry[1]
        self.misses += 1
        return None

    def store(self, element: ET.Element, chunk: str) -> None:
        """Remember the canonical chunk of *element*."""
        self._entries[id(element)] = (element, chunk)
        # A (re)serialization supersedes any cached encoded bytes.
        self._chunks.pop(id(element), None)

    def chunk_entry(self, element: ET.Element) -> bytes | None:
        """Cached encoded bytes of a boundary subtree, or ``None``."""
        entry = self._chunks.get(id(element))
        if entry is not None and entry[0] is element:
            return entry[1]
        return None

    def store_chunk(self, element: ET.Element, data: bytes,
                    digest: str | None = None) -> None:
        """Remember the encoded boundary bytes (and digest) of *element*."""
        self._chunks[id(element)] = (element, data, digest)

    def chunk_digest_of(self, element: ET.Element) -> str | None:
        """Cached content digest of a boundary subtree, or ``None``."""
        entry = self._chunks.get(id(element))
        if entry is not None and entry[0] is element:
            return entry[2]
        return None

    def store_chunk_digest(self, element: ET.Element, digest: str) -> None:
        """Attach *digest* to the cached boundary bytes of *element*."""
        entry = self._chunks.get(id(element))
        if entry is not None and entry[0] is element:
            self._chunks[id(element)] = (element, entry[1], digest)

    def discard(self, element: ET.Element) -> None:
        """Invalidate the entry of *element* (mutation about to happen)."""
        self._entries.pop(id(element), None)
        self._chunks.pop(id(element), None)

    def clear(self) -> None:
        """Drop every entry."""
        self._entries.clear()
        self._chunks.clear()

    def without(self, *replaced: ET.Element) -> "CanonicalMemo":
        """A fresh memo with every entry except those of *replaced*.

        For a path copy of this memo's tree: the copy shares every
        element with the tree except its own replacements of
        *replaced*, so every other entry holds for the copy as it is.
        """
        fresh = CanonicalMemo()
        fresh._entries = dict(self._entries)
        fresh._chunks = dict(self._chunks)
        for element in replaced:
            fresh.discard(element)
        return fresh


def _write(element: ET.Element, out: list[str],
           memo: CanonicalMemo | None) -> None:
    """Append the canonical text of *element* (a string-tagged element)."""
    append = out.append
    append(_start_tag(element))
    # The scan is inlined (escaping is rare); _escape_text has the rules.
    text = element.text
    if text:
        append(text if _TEXT_SPECIAL(text) is None else _escape_text(text))
    for child in element:
        # Comment/PI nodes have callable tags in ElementTree; canonical
        # form excludes them (but not their tails).
        if isinstance(child.tag, str):
            if memo is None:
                _write(child, out, None)
            else:
                _write_memo(child, out, memo)
        tail = child.tail
        if tail:
            append(tail if _TEXT_SPECIAL(tail) is None
                   else _escape_text(tail))
    append(f"</{element.tag}>")


def _write_memo(element: ET.Element, out: list[str],
                memo: CanonicalMemo) -> None:
    """:func:`_write` through *memo* (see :func:`canonicalize`)."""
    cached = memo.lookup(element)
    if cached is not None:
        out.append(cached)
    elif element.get(_ID_ATTR) is not None:
        # Memo-worthy subtree: serialize into its own buffer so the
        # joined chunk can be reused by every later serialization.
        local: list[str] = []
        _write(element, local, memo)
        chunk = "".join(local)
        memo.store(element, chunk)
        out.append(chunk)
    else:
        _write(element, out, memo)


def canonicalize(element: ET.Element,
                 memo: CanonicalMemo | None = None) -> bytes:
    """Return the canonical UTF-8 byte serialization of *element*.

    The element's own tail text is excluded (it belongs to the parent),
    matching XML-DSig reference processing.

    When *memo* is given, previously serialized unchanged subtrees are
    spliced from the cache, and the serialization of *element* itself
    (plus every ``Id``-carrying subtree) is recorded for reuse.  The
    memo must belong to the tree containing *element*.
    """
    if element is None:
        raise CanonicalizationError("cannot canonicalize None")
    out: list[str] = []
    if memo is None:
        if isinstance(element.tag, str):
            _write(element, out, None)
        return "".join(out).encode("utf-8")
    cached = memo.lookup(element)
    if cached is not None:
        return cached.encode("utf-8")
    _write(element, out, memo)
    chunk = "".join(out)
    if isinstance(element.tag, str):
        memo.store(element, chunk)
    return chunk.encode("utf-8")


def canonicalize_boundaries(
    element: ET.Element,
    boundary_tag: str,
    memo: CanonicalMemo | None = None,
) -> list[tuple[bool, bytes, ET.Element | None]]:
    """Canonical serialization of *element*, split at boundary subtrees.

    Returns an ordered list of ``(is_boundary, bytes, node)`` segments
    whose byte concatenation equals ``canonicalize(element)``.  Every
    maximal subtree whose tag equals *boundary_tag* becomes its own
    segment (flagged ``True``, *node* set to the subtree root); the glue
    around them is merged into unflagged segments with ``node=None``.
    Because canonical serialization is position-independent, each
    boundary segment is exactly ``canonicalize(boundary_element)`` —
    this is what content-addresses a document's CERs for the delta
    routing protocol (:mod:`repro.document.delta`).

    With a *memo*, boundary segments reuse not just the cached chunk
    string but the cached **encoded bytes** (the UTF-8 encode of a long
    base64-heavy CER is itself measurable on the per-hop path); exposing
    *node* lets :func:`repro.document.delta.chunk_bytes` cache the
    content digest under the same invalidation contract.
    """
    if element is None:
        raise CanonicalizationError("cannot canonicalize None")
    segments: list[tuple[bool, bytes, ET.Element | None]] = []
    glue: list[str] = []
    if isinstance(element.tag, str):
        _split(element, boundary_tag, memo, segments, glue)
    if glue:
        segments.append((False, "".join(glue).encode("utf-8"), None))
    return segments


def _split(node: ET.Element, boundary_tag: str, memo: CanonicalMemo | None,
           segments: list[tuple[bool, bytes, ET.Element | None]],
           glue: list[str]) -> None:
    """:func:`canonicalize_boundaries` of the string-tagged *node*."""
    if node.tag == boundary_tag:
        if glue:
            segments.append((False, "".join(glue).encode("utf-8"), None))
            glue.clear()
        data = memo.chunk_entry(node) if memo is not None else None
        if data is None:
            local: list[str] = []
            if memo is None:
                _write(node, local, None)
            else:
                _write_memo(node, local, memo)
            data = "".join(local).encode("utf-8")
            if memo is not None:
                memo.store_chunk(node, data)
        segments.append((True, data, node))
        return
    glue.append(_start_tag(node))
    text = node.text
    if text:
        glue.append(_escape_text(text))
    for child in node:
        if isinstance(child.tag, str):
            _split(child, boundary_tag, memo, segments, glue)
        tail = child.tail
        if tail:
            glue.append(_escape_text(tail))
    glue.append(f"</{node.tag}>")


def canonicalize_segments(
    element: ET.Element,
    boundary_tag: str,
    memo: CanonicalMemo | None = None,
) -> list[tuple[bool, bytes]]:
    """:func:`canonicalize_boundaries` without the node handles."""
    return [(is_boundary, data) for is_boundary, data, _ in
            canonicalize_boundaries(element, boundary_tag, memo)]


def to_bytes(element: ET.Element) -> bytes:
    """Alias of :func:`canonicalize` for readability at call sites."""
    return canonicalize(element)


def parse_xml(data: bytes | str) -> ET.Element:
    """Parse XML bytes/str into an Element, wrapping parse errors."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CanonicalizationError(
                f"document is not valid UTF-8: {exc}"
            ) from exc
    try:
        return ET.fromstring(data)
    except ET.ParseError as exc:
        raise CanonicalizationError(f"malformed XML: {exc}") from exc
