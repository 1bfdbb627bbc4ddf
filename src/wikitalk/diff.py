"""Token-level diffing between consecutive revisions, anchored on lines.

Lines (split at newline tokens) are matched whole first, and only the gaps
between matching lines are aligned token by token: a whole-page token
alignment lets one comment's tokens match another comment's. Both
alignments are longest common subsequences found with Myers' O(ND)
divide-and-conquer strategy, as matching blocks ``(old_start, new_start,
length)``. Output is deterministic: equal tokens are matched leftmost-first
in the old sequence, touching blocks become one EqualOp, and each gap
between blocks becomes one ChangeOp, which replaces an old token span with
a new one (either may be empty, never both). A change with an empty side
is slid to start a line where the equal tokens around it allow.

``tokenize(text, prev)`` decides what the edit left unchanged, and the diff
trusts it: the search for the common prefix starts after the head tokens
it reports, and the tail it reports, every whole line the two sides share
after the edit, is one matching block without a search. The prefix is
extended token by token (where lines differ only in spaces it runs on past
them and takes priority over the tail), and when one side has no tokens
left between prefix and tail, the other side's are one change without a
line diff. Otherwise only the lines between prefix and tail are copied out
of the token chunks and aligned, so tokenize plus diff cost what the edit
costs, not what the page costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from wikitalk.tokenizer import TokenSequence, common_prefix, common_suffix

# Changed regions bigger than this (old + new tokens) are emitted as a
# wholesale replace instead of being aligned token by token.
_REGION_TOKEN_CAP = 40_000

# Bail-out depth for the middle-snake search; beyond it the window is
# emitted as a wholesale replace. Keeps worst-case cost bounded without
# introducing wall-clock nondeterminism.
_MAX_SEARCH_DEPTH = 4_000


@dataclass(frozen=True)
class EqualOp:
    old_lo: int
    old_hi: int
    new_lo: int
    new_hi: int


@dataclass(frozen=True)
class ChangeOp:
    """Old tokens [old_lo, old_hi) replaced by new tokens [new_lo, new_hi).
    A pure delete has new_lo == new_hi and a pure insert old_lo == old_hi."""

    old_lo: int
    old_hi: int
    new_lo: int
    new_hi: int


DiffOp = EqualOp | ChangeOp


@dataclass(frozen=True)
class DiffScript:
    """Normalized edit script: EqualOps and ChangeOps alternate, and the
    ops tile both token ranges in order."""

    ops: tuple[DiffOp, ...]

    def inserted_token_count(self) -> int:
        return sum(op.new_hi - op.new_lo for op in self.ops if isinstance(op, ChangeOp))

    def deleted_token_count(self) -> int:
        return sum(op.old_hi - op.old_lo for op in self.ops if isinstance(op, ChangeOp))


def _middle_snake(a, alo, ahi, b, blo, bhi):
    """Myers bidirectional search.

    Returns (x0, y0, x1, y1), the window-relative start and end of the
    middle snake, or None when the search exceeds the depth bail-out.
    """
    n = ahi - alo
    m = bhi - blo
    delta = n - m
    odd = delta % 2 != 0
    vf = {1: 0}
    vb = {1: 0}
    max_d = (n + m + 1) // 2
    for d in range(min(max_d, _MAX_SEARCH_DEPTH) + 1):
        for k in range(-d, d + 1, 2):
            if k == -d or (k != d and vf.get(k - 1, -1) < vf.get(k + 1, -1)):
                x = vf[k + 1]
            else:
                x = vf[k - 1] + 1
            y = x - k
            x0, y0 = x, y
            while x < n and y < m and a[alo + x] == b[blo + y]:
                x += 1
                y += 1
            vf[k] = x
            if odd and -(d - 1) <= k - delta <= d - 1:
                if x + vb.get(delta - k, -(n + m)) >= n:
                    return x0, y0, x, y
        for k in range(-d, d + 1, 2):
            if k == -d or (k != d and vb.get(k - 1, -1) < vb.get(k + 1, -1)):
                x = vb[k + 1]
            else:
                x = vb[k - 1] + 1
            y = x - k
            x0, y0 = x, y
            while x < n and y < m and a[ahi - 1 - x] == b[bhi - 1 - y]:
                x += 1
                y += 1
            vb[k] = x
            if not odd and -d <= k - delta <= d:
                if x + vf.get(delta - k, -(n + m)) >= n:
                    return n - x, m - y, n - x0, m - y0
    return None


def _myers(a, alo, ahi, b, blo, bhi, out):
    """Append the matching blocks ``(old_start, new_start, length)`` of a
    longest common subsequence of a[alo:ahi] and b[blo:bhi], in order. A
    window over the region cap, or one whose search bails out, adds none."""
    if alo == ahi or blo == bhi:
        return
    pre = common_prefix(a, alo, ahi, b, blo, bhi)
    if pre:
        out.append((alo, blo, pre))
        alo += pre
        blo += pre
    suf = common_suffix(a, alo, ahi, b, blo, bhi)
    ahi -= suf
    bhi -= suf
    if alo < ahi and blo < bhi and (ahi - alo) + (bhi - blo) <= _REGION_TOKEN_CAP:
        # Both windows are non-empty and differ at either end, so at least
        # two tokens go unmatched and each half is a smaller problem.
        snake = _middle_snake(a, alo, ahi, b, blo, bhi)
        if snake is not None:
            x0, y0, x1, y1 = snake
            _myers(a, alo, alo + x0, b, blo, blo + y0, out)
            if x1 > x0:
                out.append((alo + x0, blo + y0, x1 - x0))
            _myers(a, alo + x1, ahi, b, blo + y1, bhi, out)
    if suf:
        out.append((ahi, bhi, suf))


def _diff_tokens(a: Sequence, b: Sequence) -> list[tuple[int, int, int]]:
    out: list[tuple[int, int, int]] = []
    _myers(a, 0, len(a), b, 0, len(b), out)
    return out


def _lines(tokens: list[str], interned: dict[tuple, int]) -> tuple[list[int], list[int]]:
    """The newline-terminated lines of ``tokens`` (the last may lack a
    newline) as bounds, line k being tokens[bounds[k]:bounds[k + 1]], and
    one id per line from ``interned``, equal for equal lines."""
    bounds, ids = [0], []
    lo, hi = 0, len(tokens)
    while lo < hi:
        try:
            end = tokens.index("\n", lo, hi) + 1
        except ValueError:
            end = hi
        ids.append(interned.setdefault(tuple(tokens[lo:end]), len(interned)))
        bounds.append(lo := end)
    return bounds, ids


def _tokens(seq: TokenSequence) -> TokenSequence | list[str]:
    """``seq``, or the list of its one chunk, which is read in C."""
    return seq.chunk_tokens[0] if len(seq.chunk_tokens) == 1 else seq


def _diff_with_prepass(
    old: TokenSequence, new: TokenSequence, head: int, tail: int
) -> list[tuple[int, int, int]]:
    a, b = _tokens(old), _tokens(new)
    n, m = len(a), len(b)
    # The first head and the last tail tokens of the two sides are equal,
    # so the search for the common prefix starts from there.
    pre = min(head, n, m)
    pre += common_prefix(a, pre, n, b, pre, m)
    # The line-level diff first strips the whole lines the two sides share
    # at either end, so those lines are cut off here and only the middle is
    # split into lines. The prefix ends after its last newline, found in the
    # text: the line after it holds the first difference (or runs past the
    # end of one side). The tail is whole lines on both sides, and so is
    # what the prefix leaves of it.
    if pre and a[pre - 1] != "\n":
        pre = old.token_at_or_after(old.text.rfind("\n", 0, old.char_span(pre, pre)[0]) + 1)
    suf = min(tail, n - pre, m - pre)
    a_end, b_end = n - suf, m - suf
    head_block = [(0, 0, pre)] if pre else []
    tail_block = [(a_end, b_end, suf)] if suf else []
    if pre == a_end or pre == b_end:
        # a whole-line edit: the other side's middle is one change
        return head_block + tail_block
    # Only the tokens between the line prefix and suffix are aligned, from
    # flat lists of them, in indices relative to pre.
    a_mid, b_mid = a[pre:a_end], b[pre:b_end]
    interned: dict[tuple, int] = {}
    a_lines, a_ids = _lines(a_mid, interned)
    b_lines, b_ids = _lines(b_mid, interned)
    mid: list[tuple[int, int, int]] = []
    i = j = 0  # token ends of the last line block
    # an empty block after the last lines closes the final gap
    for la, lb, size in [*_diff_tokens(a_ids, b_ids), (len(a_ids), len(b_ids), 0)]:
        alo, blo = a_lines[la], b_lines[lb]
        # The changed lines since the last block are one token-level
        # subproblem, unless together they exceed the region cap.
        if (alo - i) + (blo - j) <= _REGION_TOKEN_CAP:
            _myers(a_mid, i, alo, b_mid, j, blo, mid)
        i, j = a_lines[la + size], b_lines[lb + size]
        if size:
            mid.append((alo, blo, i - alo))
    return head_block + [(x + pre, y + pre, size) for x, y, size in mid] + tail_block


def _runs(blocks: list[tuple[int, int, int]]) -> list[list[int]]:
    """The matching blocks, in order, with touching ones merged: runs
    ``[old_start, new_start, size]`` with a change between each two."""
    runs: list[list[int]] = []
    for alo, blo, size in blocks:
        if runs and (last := runs[-1])[0] + last[2] == alo and last[1] + last[2] == blo:
            last[2] += size
        else:
            runs.append([alo, blo, size])
    return runs


def _script(
    blocks: list[tuple[int, int, int]], a: TokenSequence | list[str], b: TokenSequence | list[str]
) -> list[DiffOp]:
    """One EqualOp per run of touching blocks and one ChangeOp per gap, so
    the two kinds alternate and tile old tokens [0, len(a)) and new tokens
    [0, len(b)), each op built once.

    A pure insert or delete between two runs can sit at several positions
    of the same cost. It is slid to the leftmost line start among them, if
    any, by moving the bounds of the two runs beside it, which keeps
    comment boundaries whole: inserting ': b' between sibling lines is not
    expressed as 'b ... :' splitting the next line.
    """
    n, m = len(a), len(b)
    runs = _runs(blocks)
    for k in range(1, len(runs)):
        prev, nxt = runs[k - 1], runs[k]
        a_lo, b_lo = prev[0] + prev[2], prev[1] + prev[2]
        if nxt[0] == a_lo:
            tokens, lo, hi = b, b_lo, nxt[1]
        elif nxt[1] == b_lo:
            tokens, lo, hi = a, a_lo, nxt[0]
        else:
            continue  # mixed change: context-anchored, leave alone
        if tokens[lo - 1] == "\n":
            continue
        # The change moves left while the tokens before it equal its last
        # ones, and right while the tokens after it equal its first ones. A
        # run may be used up only at either end of the script.
        at_start = k == 1 and prev[0] == prev[1] == 0
        left = prev[2] - (not at_start)
        shift = step = 0
        while step < left and tokens[lo - step - 1] == tokens[hi - step - 1]:
            step += 1
            if step == lo or tokens[lo - step - 1] == "\n":
                shift = -step  # the leftmost line start wins
        if not shift:
            at_end = k + 1 == len(runs) and nxt[0] + nxt[2] == n and nxt[1] + nxt[2] == m
            right = nxt[2] - (not at_end)
            step = 0
            while step < right and tokens[hi + step] == tokens[lo + step]:
                step += 1
                if tokens[lo + step - 1] == "\n":
                    shift = step
                    break
        prev[2] += shift
        nxt[0] += shift
        nxt[1] += shift
        nxt[2] -= shift
    ops: list[DiffOp] = []
    i = j = 0  # the end of the last run
    for alo, blo, size in runs:
        if (alo, blo) != (i, j):
            ops.append(ChangeOp(i, alo, j, blo))
        if size:  # only a run at either end can be used up
            ops.append(EqualOp(alo, alo + size, blo, blo + size))
        i, j = alo + size, blo + size
    if (i, j) != (n, m):
        ops.append(ChangeOp(i, n, j, m))
    return ops


def lcs_diff(
    old: TokenSequence, new: TokenSequence, shared: tuple[int, int] = (0, 0)
) -> DiffScript:
    """The edit script from ``old`` to ``new``. ``shared`` is ``(head,
    tail)``: ``new`` is known to begin with ``old``'s first ``head`` tokens
    and end with its last ``tail``, which start a line in both (whole lines),
    as ``tokenize(text, old)`` reports them. The two may overlap. The
    result is the same for any such counts, but the diff searches for no
    common suffix beyond the tail, so without the counts it aligns every
    line after the common prefix."""
    blocks = _diff_with_prepass(old, new, *shared)
    return DiffScript(ops=tuple(_script(blocks, _tokens(old), _tokens(new))))

