"""Reference canonicalization kernel, kept for differential tests.

A straightforward serializer with the canonical rules of
:mod:`repro.xmlsec.canonical`: every name is matched against the name
pattern and every string is scanned twice (once for characters XML
cannot represent, once for characters that need escaping).  The
production kernel must produce byte-identical output on every input,
or raise the same exception with the same message
(``test_canonical_kernel.py``, ``benchmarks/test_canonical.py``).
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET

from repro.errors import CanonicalizationError
from repro.xmlsec.canonical import CanonicalMemo

__all__ = ["reference_canonicalize"]

_INVALID_XML_CHAR = re.compile(
    "[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010FFFF]"
)
_XML_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9._\-]*$")
_TEXT_NEEDS_ESCAPE = re.compile("[&<>\r]")
_ATTR_NEEDS_ESCAPE = re.compile("[&<>\"\t\n\r]")
_TEXT_ESCAPES = {
    ord("&"): "&amp;",
    ord("<"): "&lt;",
    ord(">"): "&gt;",
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
_ID_ATTR = "Id"


def _check_chars(text: str, where: str) -> None:
    match = _INVALID_XML_CHAR.search(text)
    if match is not None:
        raise CanonicalizationError(
            f"{where} contains a character (U+{ord(match.group()):04X}) "
            f"that cannot be represented in XML; encode binary data as "
            f"base64 instead"
        )


def _escape_text(text: str) -> str:
    _check_chars(text, "text content")
    if _TEXT_NEEDS_ESCAPE.search(text) is None:
        return text
    return text.translate(_TEXT_ESCAPES)


def _escape_attr(value: str) -> str:
    _check_chars(value, "attribute value")
    if _ATTR_NEEDS_ESCAPE.search(value) is None:
        return value
    return value.translate(_ATTR_ESCAPES)


def _write(element: ET.Element, out: list[str],
           memo: CanonicalMemo | None = None) -> None:
    tag = element.tag
    if not isinstance(tag, str):
        return
    if memo is not None:
        cached = memo.lookup(element)
        if cached is not None:
            out.append(cached)
            return
    if memo is not None and element.get(_ID_ATTR) is not None:
        local: list[str] = []
        _write_direct(element, local, memo)
        chunk = "".join(local)
        memo.store(element, chunk)
        out.append(chunk)
    else:
        _write_direct(element, out, memo)


def _write_direct(element: ET.Element, out: list[str],
                  memo: CanonicalMemo | None) -> None:
    tag = element.tag
    if not _XML_NAME.match(tag):
        raise CanonicalizationError(f"invalid element name {tag!r}")
    out.append(f"<{tag}")
    for name in sorted(element.keys()):
        if not _XML_NAME.match(name):
            raise CanonicalizationError(f"invalid attribute name {name!r}")
        value = element.get(name)
        out.append(f' {name}="{_escape_attr(value or "")}"')
    out.append(">")
    if element.text:
        out.append(_escape_text(element.text))
    for child in element:
        _write(child, out, memo)
        if child.tail:
            out.append(_escape_text(child.tail))
    out.append(f"</{tag}>")


def reference_canonicalize(element: ET.Element,
                           memo: CanonicalMemo | None = None) -> bytes:
    """Canonical UTF-8 bytes of *element* (its own tail excluded)."""
    if element is None:
        raise CanonicalizationError("cannot canonicalize None")
    if memo is not None:
        cached = memo.lookup(element)
        if cached is not None:
            return cached.encode("utf-8")
        out: list[str] = []
        _write_direct(element, out, memo)
        chunk = "".join(out)
        if isinstance(element.tag, str):
            memo.store(element, chunk)
        return chunk.encode("utf-8")
    out = []
    _write(element, out)
    return "".join(out).encode("utf-8")
