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


# Token offsets are stored in chunks of at least this many tokens (fewer
# only in a text's last chunk), each with one base offset, so an edit
# re-bases the chunks after it instead of shifting every later offset.
CHUNK_SIZE = 128


@dataclass(slots=True)
class TokenSequence:
    """A tokenized text with per-token character offsets.

    :meth:`start` and :meth:`end` delimit token ``i`` in ``text``. Invariant:
    joining ``tokens`` with the inter-token gaps of ``text`` reproduces
    ``text`` exactly; offsets are strictly increasing and non-overlapping.

    Only start offsets are stored, since a token ends where its text does.
    They are held in chunks: chunk ``c`` holds tokens from ``firsts[c]``
    on, and token ``firsts[c] + k`` starts at ``bases[c] +
    chunk_starts[c][k]``. No chunk is empty. A sequence and its offset
    lists are shared between revisions and must not be mutated. (The class
    is not frozen because a frozen dataclass takes four times as long to
    build, once per revision.)
    """

    text: str
    tokens: tuple[str, ...]
    firsts: list[int]
    bases: list[int]
    chunk_starts: list[list[int]]

    def __len__(self) -> int:
        return len(self.tokens)

    def start(self, i: int) -> int:
        c = bisect.bisect_right(self.firsts, i) - 1
        return self.bases[c] + self.chunk_starts[c][i - self.firsts[c]]

    def end(self, i: int) -> int:
        return self.start(i) + len(self.tokens[i])

    def char_span(self, lo: int, hi: int) -> tuple[int, int]:
        """Character span covering tokens [lo, hi); zero-width at lo when empty."""
        if lo >= hi:
            pos = self.start(lo) if lo < len(self.tokens) else len(self.text)
            return pos, pos
        return self.start(lo), self.end(hi - 1)

    def slice_text(self, lo: int, hi: int) -> str:
        start, end = self.char_span(lo, hi)
        return self.text[start:end]

    def token_at_or_after(self, char_pos: int) -> int:
        """Index of the first token starting at or after char_pos."""
        bases, chunks = self.bases, self.chunk_starts
        if not bases:
            return 0
        # the last chunk whose first offset is below char_pos, else the first
        c = bisect.bisect_left(range(1, len(bases)), char_pos, key=lambda k: bases[k] + chunks[k][0])
        return self.firsts[c] + bisect.bisect_left(chunks[c], char_pos - bases[c])


def tokenize(text: str, prev: Optional[TokenSequence] = None) -> TokenSequence:
    """Tokenize ``text``, reusing ``prev`` (the tokens of an earlier text)
    outside the changed window. The result equals ``tokenize(text)``.

    The chunks before the one the window starts in are reused as they are,
    and the chunks after the one it ends in get a new base. The offsets in
    between are chunked anew, relative to the base of the first of them,
    together with the next chunk when they are too few to fill one.
    """
    if prev is not None and text == prev.text:
        return prev
    if prev is None or not prev.firsts:
        prev = _EMPTY
        keep = h = base = 0
        starts: list[int] = []
        pos = 0
        tail_from = len(text) + 1  # no shared suffix: scan to the end
    else:
        old = prev.text
        p = common_prefix(old, 0, len(old), text, 0, len(text))
        s = common_suffix(old, p, len(old), text, p, len(text))
        # A kept token's next character lies in the shared prefix, so the
        # maximal-run rule ends it in the same place in the new text. Those
        # are the tokens that start below p, less the last of them if it
        # reaches p (offsets do not overlap, so no earlier one can).
        keep = prev.token_at_or_after(p)
        if keep and prev.end(keep - 1) >= p:
            keep -= 1
        h = bisect.bisect_right(prev.firsts, keep) - 1
        base = prev.bases[h]
        starts = prev.chunk_starts[h][: keep - prev.firsts[h]]
        pos = prev.end(keep - 1) if keep else 0
        tail_from = len(text) - s
        delta = len(text) - len(old)
        n_old = len(prev.tokens)
        j = prev.token_at_or_after(tail_from - delta)
    mid: list[str] = []
    for m in _TOKEN_RE.finditer(text, pos):
        start = m.start()
        if start >= tail_from:
            # Inside the shared suffix, a match at the shifted start of an
            # old token begins the same scan as the old text's from there.
            target = start - delta
            while j < n_old and (old_start := prev.start(j)) < target:
                j += 1
            if j < n_old and old_start == target:
                break
        mid.append(m.group())
        starts.append(start - base)
    else:  # no shared tail
        tokens = prev.tokens[:keep] + tuple(mid)
        return _join(text, tokens, prev, h, base, starts, len(prev.firsts), 0)
    # The old tokens from j on follow, moved by delta characters; the rest
    # of j's chunk, and more chunks up to a full one, join the window's.
    c = bisect.bisect_right(prev.firsts, j) - 1
    lo = j - prev.firsts[c]
    while True:
        shift = prev.bases[c] + delta - base
        starts += [x + shift for x in prev.chunk_starts[c][lo:]]
        c, lo = c + 1, 0
        if len(starts) >= CHUNK_SIZE or c == len(prev.firsts):
            break
    tokens = prev.tokens[:keep] + (tuple(mid) + prev.tokens[j:])
    return _join(text, tokens, prev, h, base, starts, c, delta)


def _join(
    text: str,
    tokens: tuple[str, ...],
    prev: TokenSequence,
    h: int,
    base: int,
    starts: list[int],
    c: int,
    delta: int,
) -> TokenSequence:
    """The sequence whose offsets are ``prev``'s chunks before ``h``, then
    ``starts`` (relative to ``base``) cut into chunks, then
    ``prev``'s chunks from ``c`` on moved by ``delta`` characters."""
    n = len(starts)
    if h == 0 and c == len(prev.firsts) and 0 < n < 2 * CHUNK_SIZE:  # one chunk in all
        return TokenSequence(text, tokens, [0], [base], [starts])
    first = prev.firsts[h] if h < len(prev.firsts) else 0
    firsts, bases = prev.firsts[:h], prev.bases[:h]
    chunk_starts = prev.chunk_starts[:h]
    # chunks of CHUNK_SIZE, the last one with the remainder; one chunk of
    # fewer when there are fewer in all, and the lists themselves when one
    for a in range(0, n - CHUNK_SIZE + 1, CHUNK_SIZE) or range(min(n, 1)):
        b = a + CHUNK_SIZE if a + 2 * CHUNK_SIZE <= n else n
        firsts.append(first + a)
        bases.append(base)
        chunk_starts.append(starts[a:b] if a or b < n else starts)
    if c < len(prev.firsts):
        shift = first + n - prev.firsts[c]
        firsts += [f + shift for f in prev.firsts[c:]]
        bases += [b + delta for b in prev.bases[c:]]
        chunk_starts += prev.chunk_starts[c:]
    return TokenSequence(text, tokens, firsts, bases, chunk_starts)


_EMPTY = TokenSequence("", (), [], [], [])

