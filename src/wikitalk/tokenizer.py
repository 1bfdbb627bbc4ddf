"""Lossless tokenization of wikitext for token-level diffing.

Tokens are maximal runs of non-whitespace characters, additionally split at
markup-significant punctuation (``=``, ``:``, ``*``, ``[``, ``]``, ``{``,
``}``), where a run of the same punctuation character forms one token
(``==``, ``[[``). Each newline is its own token so that diffs respect line
structure; all other whitespace lives in the gaps between tokens.

Given the previous revision's sequence, :func:`tokenize` rescans only the
window between the common character prefix and suffix of the two texts and
splices the old tokens back in around it, so a revision costs what its edit
costs rather than what the page costs.
"""

from __future__ import annotations

import bisect
import re
from dataclasses import dataclass
from typing import Optional

# One alternative per significant punctuation run, newline on its own,
# then maximal runs of everything else that is not whitespace/punctuation.
_TOKEN_RE = re.compile(r"\n|=+|:+|\*+|\[+|\]+|\{+|\}+|[^\s=:*\[\]{}]+")

# Windows shorter than this are compared element by element; longer ones
# by slice equality, which runs at C speed.
_SHORT_WINDOW = 16


def common_prefix(a, alo: int, ahi: int, b, blo: int, bhi: int) -> int:
    """Length of the common prefix of the windows a[alo:ahi] and b[blo:bhi].

    Works on any sliceable sequence (strings, lists of tokens). After a
    short element-wise scan, it gallops forward in doubling slices and
    bisects inside the first slice that differs, so the cost is O(prefix)
    element comparisons done in C.
    """
    n = min(ahi - alo, bhi - blo)
    k = 0
    short = min(n, _SHORT_WINDOW)
    while k < short and a[alo + k] == b[blo + k]:
        k += 1
    if k < short or k == n:
        return k
    step = _SHORT_WINDOW
    while k < n:
        hi = min(n, k + step)
        if a[alo + k : alo + hi] != b[blo + k : blo + hi]:
            # the first difference lies in [k, hi): bisect for it
            while hi - k > 1:
                mid = (k + hi) // 2
                if a[alo + k : alo + mid] == b[blo + k : blo + mid]:
                    k = mid
                else:
                    hi = mid
            return k
        k = hi
        step *= 2
    return k


def common_suffix(a, alo: int, ahi: int, b, blo: int, bhi: int) -> int:
    """Length of the common suffix of the windows a[alo:ahi] and b[blo:bhi];
    the mirror image of :func:`common_prefix`."""
    n = min(ahi - alo, bhi - blo)
    k = 0
    short = min(n, _SHORT_WINDOW)
    while k < short and a[ahi - 1 - k] == b[bhi - 1 - k]:
        k += 1
    if k < short or k == n:
        return k
    step = _SHORT_WINDOW
    while k < n:
        hi = min(n, k + step)
        if a[ahi - hi : ahi - k] != b[bhi - hi : bhi - k]:
            while hi - k > 1:
                mid = (k + hi) // 2
                if a[ahi - mid : ahi - k] == b[bhi - mid : bhi - k]:
                    k = mid
                else:
                    hi = mid
            return k
        k = hi
        step *= 2
    return k


@dataclass(frozen=True)
class TokenSequence:
    """A tokenized text with per-token character offsets.

    ``starts[i]`` and ``ends[i]`` delimit token ``i`` in ``text``. Invariant:
    joining ``tokens`` with the inter-token gaps of ``text`` reproduces
    ``text`` exactly; offsets are strictly increasing and non-overlapping.
    The lists are shared between revisions and must not be mutated.
    """

    text: str
    tokens: tuple[str, ...]
    starts: list[int]
    ends: list[int]

    def __len__(self) -> int:
        return len(self.tokens)

    def char_span(self, lo: int, hi: int) -> tuple[int, int]:
        """Character span covering tokens [lo, hi); zero-width at lo when empty."""
        if lo >= hi:
            pos = self.starts[lo] if lo < len(self.tokens) else len(self.text)
            return pos, pos
        return self.starts[lo], self.ends[hi - 1]

    def slice_text(self, lo: int, hi: int) -> str:
        start, end = self.char_span(lo, hi)
        return self.text[start:end]

    def token_at_or_after(self, char_pos: int) -> int:
        """Index of the first token starting at or after char_pos."""
        return bisect.bisect_left(self.starts, char_pos)


def tokenize(text: str, prev: Optional[TokenSequence] = None) -> TokenSequence:
    """Tokenize ``text``, reusing ``prev`` (the tokens of an earlier text)
    outside the changed window. The result equals ``tokenize(text)``."""
    if prev is None:
        head, starts, ends = (), [], []
        pos = 0
        tail_from = len(text) + 1  # no shared suffix: scan to the end
    else:
        old = prev.text
        if text == old:
            return prev
        p = common_prefix(old, 0, len(old), text, 0, len(text))
        s = common_suffix(old, p, len(old), text, p, len(text))
        # A kept token's next character lies in the shared prefix, so the
        # maximal-run rule ends it in the same place in the new text.
        keep = bisect.bisect_left(prev.ends, p)
        head, starts, ends = prev.tokens[:keep], prev.starts[:keep], prev.ends[:keep]
        pos = ends[-1] if keep else 0
        tail_from = len(text) - s
        delta = len(text) - len(old)
        old_starts = prev.starts
        j = bisect.bisect_left(old_starts, tail_from - delta)
    mid: list[str] = []
    for m in _TOKEN_RE.finditer(text, pos):
        start, end = m.span()
        if start >= tail_from:
            # Inside the shared suffix, a match at the shifted start of an
            # old token begins the same scan as the old text's from there.
            target = start - delta
            while j < len(old_starts) and old_starts[j] < target:
                j += 1
            if j < len(old_starts) and old_starts[j] == target:
                starts.extend(map(delta.__add__, old_starts[j:]))
                ends.extend(map(delta.__add__, prev.ends[j:]))
                return TokenSequence(text, head + tuple(mid) + prev.tokens[j:], starts, ends)
        mid.append(m.group())
        starts.append(start)
        ends.append(end)
    return TokenSequence(text, head + tuple(mid), starts, ends)


def join_fragments(fragments: list[str]) -> str:
    """Concatenate text fragments, padding joins so tokens never merge.

    A single space is interposed whenever the boundary characters are both
    non-whitespace; a space is a gap, so the padding never alters the token
    stream of either side.
    """
    out: list[str] = []
    for frag in fragments:
        if not frag:
            continue
        if out and not out[-1][-1].isspace() and not frag[0].isspace():
            out.append(" ")
        out.append(frag)
    return "".join(out)
