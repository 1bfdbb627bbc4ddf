"""Wikitext-to-plain-text cleaning with a verbatim fallback.

The cleaner handles a fixed construct subset: internal and external links,
templates, bold/italic quotes, HTML tags and comments, heading markers,
signature tildes, and line-start indentation prefixes. It is total: any
internal parse failure (unbalanced nesting, depth blowout) is reported via
``fallback=True`` with the input passed through verbatim, never an
exception.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

_MAX_NESTING = 32

_QUOTES_RE = re.compile(r"''+")
_SIGNATURE_RE = re.compile(r"~{3,5}")
_HTML_COMMENT_RE = re.compile(r"<!--.*?-->", re.DOTALL)
_HTML_TAG_RE = re.compile(r"</?[A-Za-z][^<>\n]*>")
HEADING_RE = re.compile(r"^(=+)\s*(.*?)\s*(=+)\s*$")
_INDENT_RE = re.compile(r"^[:*#]+\s?")
_EXTERNAL_LINK_RE = re.compile(r"\[(?P<url>(?:https?|ftp)://[^\s\]]+)(?:\s+(?P<label>[^\]]*))?\]")

# Link targets in these namespaces are media/housekeeping, not content.
_DROPPED_LINK_PREFIXES = ("file:", "image:", "category:", "media:")


class _CleanFailure(Exception):
    pass


@dataclass
class CleanResult:
    text: str
    fallback: bool = False


def _block_end(text: str, i: int, opener: str, closer: str, max_depth: Optional[int]) -> int:
    """End of the balanced ``opener``...``closer`` block whose opener sits
    at ``i``, jumping between markers with ``str.find``. Markers are matched
    left to right without overlap. Raises when the block is unclosed or
    nests deeper than ``max_depth``."""
    depth = 1
    next_open = text.find(opener, i + 2)
    close = text.find(closer, i + 2)
    while True:
        if close == -1:
            raise _CleanFailure(f"unclosed {opener}")
        if next_open != -1 and next_open < close:
            depth += 1
            if max_depth is not None and depth > max_depth:
                raise _CleanFailure(f"{opener} nesting too deep")
            next_open = text.find(opener, next_open + 2)
        else:
            depth -= 1
            if not depth:
                return close + 2
            close = text.find(closer, close + 2)


def _strip_templates(text: str) -> str:
    """Remove {{...}} blocks, tracking nesting. Unclosed openers fail."""
    i = text.find("{{")
    if i == -1:
        return text
    out = []
    pos = 0
    while i != -1:
        out.append(text[pos:i])
        pos = _block_end(text, i, "{{", "}}", _MAX_NESTING)
        i = text.find("{{", pos)
    out.append(text[pos:])
    return "".join(out)


def _replace_internal_links(text: str, depth: int = 0) -> str:
    """[[target|label]] -> label, [[target]] -> target; media links dropped."""
    if depth > _MAX_NESTING:
        raise _CleanFailure("link nesting too deep")
    i = text.find("[[")
    if i == -1:
        return text
    out = []
    pos = 0
    while i != -1:
        out.append(text[pos:i])
        pos = _block_end(text, i, "[[", "]]", None)
        inner = text[i + 2 : pos - 2]
        target, _, label = inner.partition("|")
        if target.strip().lower().startswith(_DROPPED_LINK_PREFIXES):
            replacement = ""
        else:
            replacement = label if label else target
        out.append(_replace_internal_links(replacement, depth + 1))
        i = text.find("[[", pos)
    out.append(text[pos:])
    return "".join(out)


def _replace_external_links(text: str) -> str:
    def repl(m: re.Match) -> str:
        label = m.group("label")
        return label if label else m.group("url")

    return _EXTERNAL_LINK_RE.sub(repl, text)


def _clean_line(line: str) -> str:
    m = HEADING_RE.match(line)
    if m:
        return m.group(2)
    return _INDENT_RE.sub("", line)


def clean_markup(wikitext: str) -> CleanResult:
    try:
        text = _HTML_COMMENT_RE.sub("", wikitext)
        if "<!--" in text:
            raise _CleanFailure("unclosed html comment")
        text = _strip_templates(text)
        text = _replace_internal_links(text)
        text = _replace_external_links(text)
        text = _HTML_TAG_RE.sub("", text)
        text = _SIGNATURE_RE.sub("", text)
        text = _QUOTES_RE.sub("", text)
        lines = [_clean_line(line.rstrip()) for line in text.split("\n")]
        cleaned = "\n".join(line.rstrip() for line in lines).strip()
        return CleanResult(text=cleaned, fallback=False)
    except (_CleanFailure, RecursionError):
        return CleanResult(text=wikitext, fallback=True)
