"""Lossless tokenization of wikitext for token-level diffing.

Tokens are maximal runs of non-whitespace characters, additionally split at
markup-significant punctuation (``=``, ``:``, ``*``, ``[``, ``]``, ``{``,
``}``), where a run of the same punctuation character forms one token
(``==``, ``[[``). Each newline is its own token so that diffs respect line
structure; all other whitespace lives in the gaps between tokens.

Given the previous revision's sequence, :func:`tokenize` is the one place
that decides what an edit left unchanged. No token spans a space or a
newline, so it rescans only from the last of those in the common character
prefix of the two texts to the first in their common suffix, and splices
the old token chunks back in around that window. It reports the tokens it
reused before the window (the head) and the tokens of every whole line the
two texts share after the edit (the tail): the common suffix, searched
back to the start of the line the prefix ends in, from where it starts a
line in both texts on. ``diff.lcs_diff`` starts its search for the common
prefix after the head and takes the tail as equal lines without searching
for it, so tokenize plus diff cost what the edit costs rather than what
the page costs. What still grows with the page is the character
comparison of the two texts, done in C, and one new base per chunk after
the edit.
"""

from __future__ import annotations

import bisect
import itertools
import re
from dataclasses import dataclass
from typing import overload

# One alternative per significant punctuation run, newline on its own,
# then maximal runs of everything else that is not whitespace/punctuation.
_TOKEN_RE = re.compile(r"\n|=+|:+|\*+|\[+|\]+|\{+|\}+|[^\s=:*\[\]{}]+")
_GAP_RE = re.compile("[ \n]")

# Windows shorter than this are compared element by element; longer ones
# by slice equality, which runs at C speed, in slices that double in length
# up to _LONG_WINDOW: a longer slice costs more to copy than the steps it
# saves. Strings are compared in place on ``b``'s side (``str.startswith``),
# so only ``a``'s slices are copied.
_SHORT_WINDOW = 16
_LONG_WINDOW = 1 << 16


def common_prefix(a, alo: int, ahi: int, b, blo: int, bhi: int) -> int:
    """Length of the common prefix of the windows a[alo:ahi] and b[blo:bhi].

    Works on any sliceable sequence (strings, lists of tokens). After a
    short element-wise scan, it gallops forward in doubling slices and
    bisects inside the first slice that differs, so the cost is O(prefix)
    element comparisons done in C, with O(prefix) elements copied.
    """
    n = ahi - alo if ahi - alo < bhi - blo else bhi - blo
    short = n if n < _SHORT_WINDOW else _SHORT_WINDOW
    k = 0
    while k < short and a[alo + k] == b[blo + k]:
        k += 1
    if k < short or k == n:
        return k
    text = isinstance(b, str)
    step, hi = _SHORT_WINDOW, 0  # hi: the end of a slice that differs, 0 until one does
    while k < n and hi != k + 1:
        if hi:
            mid = (k + hi) // 2
        else:
            mid = k + step if k + step < n else n
            step = 2 * step if step < _LONG_WINDOW else step
        i, j = alo + k, blo + k
        if b.startswith(a[i : alo + mid], j) if text else a[i : alo + mid] == b[j : blo + mid]:
            k = mid
        else:
            hi = mid
    return k


def common_suffix(a, alo: int, ahi: int, b, blo: int, bhi: int) -> int:
    """Length of the common suffix of the windows a[alo:ahi] and b[blo:bhi];
    the mirror image of :func:`common_prefix`."""
    n = ahi - alo if ahi - alo < bhi - blo else bhi - blo
    short = n if n < _SHORT_WINDOW else _SHORT_WINDOW
    k = 0
    while k < short and a[ahi - 1 - k] == b[bhi - 1 - k]:
        k += 1
    if k < short or k == n:
        return k
    text = isinstance(b, str)
    step, hi = _SHORT_WINDOW, 0
    while k < n and hi != k + 1:
        if hi:
            mid = (k + hi) // 2
        else:
            mid = k + step if k + step < n else n
            step = 2 * step if step < _LONG_WINDOW else step
        i, j = ahi - mid, bhi - mid
        if b.startswith(a[i : ahi - k], j) if text else a[i : ahi - k] == b[j : bhi - k]:
            k = mid
        else:
            hi = mid
    return k


# Tokens and their offsets are stored in chunks of at least this many
# tokens (fewer only in a text's last chunk), each with one base offset, so
# an edit re-bases the chunks after it instead of shifting every later
# offset, and the chunks it does not touch are shared with the old text.
CHUNK_SIZE = 128


@dataclass(slots=True)
class TokenSequence:
    """A tokenized text with per-token character offsets.

    ``seq[i]`` is token ``i`` and ``seq[lo:hi]`` a list of tokens;
    :meth:`start` and :meth:`end` delimit token ``i`` in ``text``.
    Invariant: joining the tokens with the inter-token gaps of ``text``
    reproduces ``text`` exactly; offsets are strictly increasing and
    non-overlapping.

    Only start offsets are stored, since a token ends where its text does.
    Tokens and offsets are held in chunks: chunk ``c`` holds tokens from
    ``firsts[c]`` on, token ``firsts[c] + k`` is ``chunk_tokens[c][k]`` and
    starts at ``bases[c] + chunk_starts[c][k]``. No chunk is empty. A
    sequence and its lists are shared between revisions and must not be
    mutated. (The class is not frozen because a frozen dataclass takes four
    times as long to build, once per revision.)
    """

    text: str
    firsts: list[int]
    bases: list[int]
    chunk_starts: list[list[int]]
    chunk_tokens: list[list[str]]

    def __len__(self) -> int:
        return self.firsts[-1] + len(self.chunk_tokens[-1]) if self.firsts else 0

    def __getitem__(self, i):
        """Token ``i``, or the tokens of a slice as a list, at the cost of
        the slice's length. Slice bounds lie in [0, len(self)], indices
        below it, and a slice has no step."""
        firsts = self.firsts
        if isinstance(i, slice):
            lo = i.start or 0
            hi = len(self) if i.stop is None else i.stop
            out: list[str] = []
            c = bisect.bisect_right(firsts, lo) - 1
            while lo < hi:
                chunk = self.chunk_tokens[c]
                out += chunk[lo - firsts[c] : hi - firsts[c]]
                c += 1
                lo = firsts[c] if c < len(firsts) else hi
            return out
        c = bisect.bisect_right(firsts, i) - 1
        return self.chunk_tokens[c][i - firsts[c]]

    def start(self, i: int) -> int:
        c = bisect.bisect_right(self.firsts, i) - 1
        return self.bases[c] + self.chunk_starts[c][i - self.firsts[c]]

    def end(self, i: int) -> int:
        c = bisect.bisect_right(self.firsts, i) - 1
        k = i - self.firsts[c]
        return self.bases[c] + self.chunk_starts[c][k] + len(self.chunk_tokens[c][k])

    def char_span(self, lo: int, hi: int) -> tuple[int, int]:
        """Character span covering tokens [lo, hi); zero-width at lo when empty."""
        if lo >= hi:
            pos = self.start(lo) if lo < len(self) else len(self.text)
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


@overload
def tokenize(text: str) -> TokenSequence: ...


@overload
def tokenize(text: str, prev: TokenSequence) -> tuple[TokenSequence, int, int]: ...


def tokenize(text: str, prev: TokenSequence | None = None):
    """Tokenize ``text``. Given ``prev`` (the tokens of an earlier text),
    reuse it outside the changed window and return ``(seq, head, tail)``:
    ``seq`` equals ``tokenize(text)``, and its first ``head`` and last
    ``tail`` tokens are ``prev``'s. The tail is every whole line the two
    texts share after the edit, so it starts a line in both and may overlap
    the head (both are ``len(prev)``, and ``seq`` is ``prev``, when the text
    is the same).

    The chunks before the one the window starts in are reused as they are,
    and the chunks after the one it ends in get a new base. The tokens in
    between are chunked anew, with offsets relative to the base of the
    first of them, together with the next chunk when they are too few to
    fill one.
    """
    if prev is None:
        return _splice(text, _EMPTY)[0]
    if text == prev.text:
        return prev, len(prev), len(prev)
    return _splice(text, prev or _EMPTY)


def _splice(text: str, prev: TokenSequence) -> tuple[TokenSequence, int, int]:
    """:func:`tokenize`'s ``(seq, head, tail)`` for a text other than
    ``prev``'s."""
    old = prev.text
    delta = len(text) - len(old)
    p = common_prefix(old, 0, len(old), text, 0, len(text))
    # The common suffix is searched back to the start of the line the
    # prefix ends in, so that a line it starts is in the tail; the window
    # rescanned ends no earlier than the prefix does.
    line = old.rfind("\n", 0, p) + 1
    s = common_suffix(old, line, len(old), text, line, len(text))
    t = len(old) - min(s, len(old) - p, len(text) - p)
    # No token spans a space or a newline (a newline is a token of its own),
    # so a scan that starts at one, or just after one, finds the same tokens
    # whatever came before it. The old tokens up to the last one in the
    # shared prefix are kept, the new text is scanned from there to the
    # first one in the shared suffix, and the old tokens from there on
    # follow, moved by delta characters.
    pos = max(old.rfind(" ", 0, p), old.rfind("\n", 0, p)) + 1
    gap = _GAP_RE.search(old, t)
    stop = gap.start() if gap else len(old)
    keep, j = prev.token_at_or_after(pos), prev.token_at_or_after(stop)
    h = bisect.bisect_right(prev.firsts, keep) - 1
    base = prev.bases[h]
    starts = prev.chunk_starts[h][: keep - prev.firsts[h]]
    toks = prev.chunk_tokens[h][: keep - prev.firsts[h]]
    # The window's matches are read a chunk at a time, so a whole page's
    # are never all held at once.
    matches = _TOKEN_RE.finditer(text, pos, stop + delta)
    while window := [*itertools.islice(matches, CHUNK_SIZE)]:
        toks += [m[0] for m in window]
        starts += [m.start() - base for m in window]
    # The rest of j's chunk, and more chunks up to a full one, join the
    # window's.
    c = bisect.bisect_right(prev.firsts, j) - 1
    lo = j - prev.firsts[c]
    while True:
        shift = prev.bases[c] + delta - base
        starts += [x + shift for x in prev.chunk_starts[c][lo:]]
        toks += prev.chunk_tokens[c][lo:]
        c, lo = c + 1, 0
        if len(starts) >= CHUNK_SIZE or c == len(prev.firsts):
            break
    # The tail reported is the whole lines of the common suffix: all of it
    # when it starts a line in both texts, else what follows its first
    # newline.
    u = len(old) - s
    if (u and old[u - 1] != "\n") or (u + delta and text[u + delta - 1] != "\n"):
        newline = old.find("\n", u)
        u = newline + 1 if newline >= 0 else len(old)
    tail = len(prev) - prev.token_at_or_after(u)
    return _join(text, prev, h, base, starts, toks, c, delta), keep, tail


def _join(
    text: str,
    prev: TokenSequence,
    h: int,
    base: int,
    starts: list[int],
    toks: list[str],
    c: int,
    delta: int,
) -> TokenSequence:
    """The sequence whose chunks are ``prev``'s before ``h``, then ``toks``
    with their ``starts`` (relative to ``base``) cut into chunks, then
    ``prev``'s from ``c`` on moved by ``delta`` characters."""
    n = len(starts)
    if h == 0 and c == len(prev.firsts) and 0 < n < 2 * CHUNK_SIZE:  # one chunk in all
        return TokenSequence(text, [0], [base], [starts], [toks])
    first = prev.firsts[h]
    firsts, bases = prev.firsts[:h], prev.bases[:h]
    chunk_starts, chunk_tokens = prev.chunk_starts[:h], prev.chunk_tokens[:h]
    # chunks of CHUNK_SIZE, the last one with the remainder; one chunk of
    # fewer when there are fewer in all, and the lists themselves when one
    for a in range(0, n - CHUNK_SIZE + 1, CHUNK_SIZE) or range(min(n, 1)):
        b = a + CHUNK_SIZE if a + 2 * CHUNK_SIZE <= n else n
        firsts.append(first + a)
        bases.append(base)
        whole = not a and b == n
        chunk_starts.append(starts if whole else starts[a:b])
        chunk_tokens.append(toks if whole else toks[a:b])
    if c < len(prev.firsts):
        shift = first + n - prev.firsts[c]
        firsts += [f + shift for f in prev.firsts[c:]]
        bases += [b + delta for b in prev.bases[c:]]
        chunk_starts += prev.chunk_starts[c:]
        chunk_tokens += prev.chunk_tokens[c:]
    return TokenSequence(text, firsts, bases, chunk_starts, chunk_tokens)


# A sequence without tokens is spliced as the empty text in one empty chunk,
# so that _splice finds a chunk to start and to end in; the sequences that
# tokenize returns have no empty chunk.
_EMPTY = TokenSequence("", [0], [0], [[]], [[]])
