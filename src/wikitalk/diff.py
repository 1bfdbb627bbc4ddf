"""Token-level diffing between consecutive revisions.

The differ computes a longest-common-subsequence alignment with Myers'
O(ND) divide-and-conquer strategy. Long inputs go through a line-level
prepass (lines are atoms, split at newline tokens) and only the changed
line regions are refined at token level. Output is deterministic: equal
tokens are matched leftmost-first in the old sequence, and every maximal
changed region is normalized to one Delete followed by one Insert.
"""

from __future__ import annotations

from dataclasses import dataclass

from wikitalk.tokenizer import (
    TokenSequence,
    common_prefix,
    common_suffix,
    join_fragments,
    tokenize,
)

# Inputs larger than this are refused outright rather than diffed slowly
# and nondeterministically under time pressure.
MAX_DIFF_TOKENS = 2_000_000

# Above this many tokens on either side the line-level prepass kicks in.
_LINE_PREPASS_MIN_TOKENS = 4_000

# Changed regions bigger than this (old + new tokens) are emitted as a
# wholesale replace instead of being aligned token by token.
_REGION_TOKEN_CAP = 40_000

# Bail-out depth for the middle-snake search; beyond it the window is
# emitted as a wholesale replace. Keeps worst-case cost bounded without
# introducing wall-clock nondeterminism.
_MAX_SEARCH_DEPTH = 4_000


class DiffError(Exception):
    pass


class DiffTokenLimitError(DiffError):
    """Raised when an input exceeds the hard token cap."""


class DiffApplyError(DiffError):
    def __init__(self, op_index: int, message: str):
        super().__init__(f"op {op_index}: {message}")
        self.op_index = op_index


@dataclass(frozen=True)
class EqualOp:
    old_lo: int
    old_hi: int
    new_lo: int
    new_hi: int

    kind = "equal"


@dataclass(frozen=True)
class DeleteOp:
    old_lo: int
    old_hi: int
    new_pos: int

    kind = "delete"


@dataclass(frozen=True)
class InsertOp:
    old_pos: int
    new_lo: int
    new_hi: int
    tokens: tuple[str, ...]
    raw: str

    kind = "insert"


DiffOp = EqualOp | DeleteOp | InsertOp


@dataclass(frozen=True)
class DiffScript:
    """Normalized edit script: no two adjacent ops of the same kind, and
    each changed region is at most one Delete followed by one Insert."""

    ops: tuple[DiffOp, ...]
    old_len: int
    new_len: int

    def inserted_token_count(self) -> int:
        return sum(op.new_hi - op.new_lo for op in self.ops if isinstance(op, InsertOp))

    def deleted_token_count(self) -> int:
        return sum(op.old_hi - op.old_lo for op in self.ops if isinstance(op, DeleteOp))


def _middle_snake(a, alo, ahi, b, blo, bhi):
    """Myers bidirectional search.

    Returns (d, x0, y0, x1, y1) with window-relative snake coordinates, or
    None when the search exceeds the depth bail-out.
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
                    return 2 * d - 1, x0, y0, x, y
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
                    return 2 * d, n - x, m - y, n - x0, m - y0
    return None


def _myers(a, alo, ahi, b, blo, bhi, out):
    """Append (tag, alo, ahi, blo, bhi) tuples covering the two windows."""
    pre = common_prefix(a, alo, ahi, b, blo, bhi)
    if pre:
        out.append(("=", alo, alo + pre, blo, blo + pre))
        alo += pre
        blo += pre
    suf = common_suffix(a, alo, ahi, b, blo, bhi)
    suffix = None
    if suf:
        suffix = ("=", ahi - suf, ahi, bhi - suf, bhi)
        ahi -= suf
        bhi -= suf
    n = ahi - alo
    m = bhi - blo
    if n == 0 and m == 0:
        pass
    elif n == 0:
        out.append(("+", alo, alo, blo, bhi))
    elif m == 0:
        out.append(("-", alo, ahi, blo, blo))
    elif n + m > _REGION_TOKEN_CAP:
        out.append(("-", alo, ahi, blo, blo))
        out.append(("+", ahi, ahi, blo, bhi))
    else:
        snake = _middle_snake(a, alo, ahi, b, blo, bhi)
        if snake is None:
            out.append(("-", alo, ahi, blo, blo))
            out.append(("+", ahi, ahi, blo, bhi))
        else:
            d, x0, y0, x1, y1 = snake
            if d > 1:
                _myers(a, alo, alo + x0, b, blo, blo + y0, out)
                if x1 > x0:
                    out.append(("=", alo + x0, alo + x1, blo + y0, blo + y1))
                _myers(a, alo + x1, ahi, b, blo + y1, bhi, out)
            elif n > m:
                # exactly one deletion; place it leftmost
                i = common_prefix(a, alo, ahi, b, blo, bhi)
                if i:
                    out.append(("=", alo, alo + i, blo, blo + i))
                out.append(("-", alo + i, alo + i + 1, blo + i, blo + i))
                if alo + i + 1 < ahi:
                    out.append(("=", alo + i + 1, ahi, blo + i, bhi))
            else:
                # exactly one insertion; place it leftmost
                i = common_prefix(a, alo, ahi, b, blo, bhi)
                if i:
                    out.append(("=", alo, alo + i, blo, blo + i))
                out.append(("+", alo + i, alo + i, blo + i, blo + i + 1))
                if blo + i + 1 < bhi:
                    out.append(("=", alo + i, ahi, blo + i + 1, bhi))
    if suffix:
        out.append(suffix)


def _diff_tokens(a: list, b: list) -> list[tuple]:
    out: list[tuple] = []
    _myers(a, 0, len(a), b, 0, len(b), out)
    return out


def _line_ranges(tokens, lo: int, hi: int) -> list[tuple[int, int]]:
    """Token index ranges of the newline-terminated lines of tokens[lo:hi]
    (newline included; the last line may lack one)."""
    ranges = []
    while lo < hi:
        try:
            end = tokens.index("\n", lo, hi) + 1
        except ValueError:
            end = hi
        ranges.append((lo, end))
        lo = end
    return ranges


def _diff_with_prepass(a: list, b: list) -> list[tuple]:
    n, m = len(a), len(b)
    pre = common_prefix(a, 0, n, b, 0, m)
    if pre == n == m:
        return [("=", 0, n, 0, m)] if n else []
    # The line-level diff first strips the whole lines the two sides share
    # at either end. Those are the lines inside the common token prefix
    # and suffix, so they are cut off here and only the middle is split
    # into lines. The prefix ends after its last newline: the line after
    # it holds the first difference (or runs past the end of one side).
    while pre and a[pre - 1] != "\n":
        pre -= 1
    suf = common_suffix(a, pre, n, b, pre, m)
    # The line suffix must start at a line start on both sides. Inside the
    # token suffix the sides agree, so only its first boundary can fail
    # that; then the line suffix starts after the suffix's first newline.
    a_line_start = suf == n - pre or a[n - suf - 1] == "\n"
    b_line_start = suf == m - pre or b[m - suf - 1] == "\n"
    if not (a_line_start and b_line_start):
        try:
            suf = n - a.index("\n", n - suf, n) - 1
        except ValueError:
            suf = 0
    a_end, b_end = n - suf, m - suf
    a_lines = _line_ranges(a, pre, a_end)
    b_lines = _line_ranges(b, pre, b_end)
    interned: dict[tuple, int] = {}
    a_ids = [interned.setdefault(tuple(a[lo:hi]), len(interned)) for lo, hi in a_lines]
    b_ids = [interned.setdefault(tuple(b[lo:hi]), len(interned)) for lo, hi in b_lines]
    line_ops = _diff_tokens(a_ids, b_ids)

    def a_span(llo, lhi):
        if llo >= lhi:
            pos = a_lines[llo][0] if llo < len(a_lines) else a_end
            return pos, pos
        return a_lines[llo][0], a_lines[lhi - 1][1]

    def b_span(llo, lhi):
        if llo >= lhi:
            pos = b_lines[llo][0] if llo < len(b_lines) else b_end
            return pos, pos
        return b_lines[llo][0], b_lines[lhi - 1][1]

    out: list[tuple] = [("=", 0, pre, 0, pre)] if pre else []
    # Collapse each run of changed lines to one token-level subproblem.
    pend_a: tuple[int, int] | None = None
    pend_b: tuple[int, int] | None = None

    def flush():
        nonlocal pend_a, pend_b
        if pend_a is None and pend_b is None:
            return
        alo, ahi = pend_a if pend_a else (None, None)
        blo, bhi = pend_b if pend_b else (None, None)
        if pend_a is None:
            alo = ahi = a_anchor
        if pend_b is None:
            blo = bhi = b_anchor
        if (ahi - alo) + (bhi - blo) > _REGION_TOKEN_CAP:
            if ahi > alo:
                out.append(("-", alo, ahi, blo, blo))
            if bhi > blo:
                out.append(("+", ahi, ahi, blo, bhi))
        else:
            _myers(a, alo, ahi, b, blo, bhi, out)
        pend_a = pend_b = None

    a_anchor = b_anchor = pre
    for tag, l_alo, l_ahi, l_blo, l_bhi in line_ops:
        if tag == "=":
            flush()
            t_alo, t_ahi = a_span(l_alo, l_ahi)
            t_blo, t_bhi = b_span(l_blo, l_bhi)
            out.append(("=", t_alo, t_ahi, t_blo, t_bhi))
            a_anchor, b_anchor = t_ahi, t_bhi
        elif tag == "-":
            span = a_span(l_alo, l_ahi)
            pend_a = (pend_a[0], span[1]) if pend_a else span
        else:
            span = b_span(l_blo, l_bhi)
            pend_b = (pend_b[0], span[1]) if pend_b else span
    flush()
    if suf:
        out.append(("=", a_end, n, b_end, m))
    return out


def _normalize(raw_ops: list[tuple], old: TokenSequence, new: TokenSequence) -> DiffScript:
    """Merge adjacent same-kind ops and order each changed region as
    Delete-then-Insert anchored at the same position."""
    ops: list[DiffOp] = []
    i = 0
    old_cursor = 0
    new_cursor = 0
    while i < len(raw_ops):
        tag = raw_ops[i][0]
        if tag == "=":
            alo, ahi, blo, bhi = raw_ops[i][1:]
            j = i + 1
            while j < len(raw_ops) and raw_ops[j][0] == "=":
                ahi = raw_ops[j][2]
                bhi = raw_ops[j][4]
                j += 1
            ops.append(EqualOp(alo, ahi, blo, bhi))
            old_cursor, new_cursor = ahi, bhi
            i = j
        else:
            del_lo = del_hi = old_cursor
            ins_lo = ins_hi = new_cursor
            j = i
            while j < len(raw_ops) and raw_ops[j][0] != "=":
                tag2, alo, ahi, blo, bhi = raw_ops[j]
                if tag2 == "-":
                    del_hi = ahi
                else:
                    ins_hi = bhi
                j += 1
            if del_hi > del_lo:
                ops.append(DeleteOp(del_lo, del_hi, ins_lo))
            if ins_hi > ins_lo:
                start, end = new.char_span(ins_lo, ins_hi)
                ops.append(
                    InsertOp(
                        old_pos=del_hi,
                        new_lo=ins_lo,
                        new_hi=ins_hi,
                        tokens=new.tokens[ins_lo:ins_hi],
                        raw=new.text[start:end],
                    )
                )
            old_cursor, new_cursor = del_hi, ins_hi
            i = j
    return DiffScript(ops=tuple(ops), old_len=len(old), new_len=len(new))


def _slide_pure_runs(ops: list[DiffOp], a: tuple, b: tuple, new: TokenSequence) -> list[DiffOp]:
    """Rotate pure insert/delete runs onto line boundaries where possible.

    An edit run flanked by equal tokens can sit at several equal-cost
    positions; aligning run starts to just-after-newline keeps comment
    boundaries whole (inserting ': b' between sibling lines should not be
    expressed as 'b ... :' splitting the next line). Rotation preserves
    the matched-token count and is applied deterministically, preferring
    the leftmost line-aligned position and falling back to no movement.
    """

    def line_aligned(tokens, start: int) -> bool:
        return start == 0 or tokens[start - 1] == "\n"

    for i, op in enumerate(ops):
        prev_op = ops[i - 1] if i > 0 else None
        next_op = ops[i + 1] if i + 1 < len(ops) else None
        prev_eq = prev_op if isinstance(prev_op, EqualOp) else None
        next_eq = next_op if isinstance(next_op, EqualOp) else None

        if isinstance(op, InsertOp):
            if isinstance(prev_op, DeleteOp):
                continue  # mixed region: context-anchored, leave alone
            tokens, lo, hi = b, op.new_lo, op.new_hi
        elif isinstance(op, DeleteOp):
            if isinstance(next_op, InsertOp):
                continue
            tokens, lo, hi = a, op.old_lo, op.old_hi
        else:
            continue
        if lo >= hi or line_aligned(tokens, lo):
            continue

        # A slide donates matched pairs from the equal run on one side and
        # hands them to the other, so both flanking equal runs must exist.
        max_left = 0
        if prev_eq is not None and next_eq is not None:
            prev_len = prev_eq.old_hi - prev_eq.old_lo
            keep = 0 if i - 1 == 0 else 1
            while (
                max_left < prev_len - keep
                and tokens[lo - max_left - 1] == tokens[hi - max_left - 1]
            ):
                max_left += 1
        max_right = 0
        if next_eq is not None and prev_eq is not None:
            next_len = next_eq.old_hi - next_eq.old_lo
            keep = 0 if i + 1 == len(ops) - 1 else 1
            while (
                max_right < next_len - keep
                and hi + max_right < len(tokens)
                and tokens[hi + max_right] == tokens[lo + max_right]
            ):
                max_right += 1

        shift = None
        for k in range(-max_left, max_right + 1):
            if line_aligned(tokens, lo + k):
                shift = k
                break
        if shift is None or shift == 0:
            continue

        if isinstance(op, InsertOp):
            n_lo, n_hi = op.new_lo + shift, op.new_hi + shift
            start, end = new.char_span(n_lo, n_hi)
            ops[i] = InsertOp(
                old_pos=op.old_pos + shift,
                new_lo=n_lo,
                new_hi=n_hi,
                tokens=new.tokens[n_lo:n_hi],
                raw=new.text[start:end],
            )
        else:
            ops[i] = DeleteOp(
                old_lo=op.old_lo + shift, old_hi=op.old_hi + shift, new_pos=op.new_pos + shift
            )
        if prev_eq is not None:
            ops[i - 1] = EqualOp(
                prev_eq.old_lo, prev_eq.old_hi + shift, prev_eq.new_lo, prev_eq.new_hi + shift
            )
            if ops[i - 1].old_hi == ops[i - 1].old_lo:
                ops[i - 1] = None
        if next_eq is not None:
            ops[i + 1] = EqualOp(
                next_eq.old_lo + shift, next_eq.old_hi, next_eq.new_lo + shift, next_eq.new_hi
            )
            if ops[i + 1].old_hi == ops[i + 1].old_lo:
                ops[i + 1] = None
    return [op for op in ops if op is not None]


def lcs_diff(old: TokenSequence, new: TokenSequence) -> DiffScript:
    if len(old) > MAX_DIFF_TOKENS or len(new) > MAX_DIFF_TOKENS:
        raise DiffTokenLimitError(
            f"input exceeds {MAX_DIFF_TOKENS} tokens ({len(old)} old, {len(new)} new)"
        )
    a = list(old.tokens)
    b = list(new.tokens)
    if max(len(a), len(b)) > _LINE_PREPASS_MIN_TOKENS:
        raw = _diff_with_prepass(a, b)
    else:
        raw = _diff_tokens(a, b)
    script = _normalize(raw, old, new)
    ops = _slide_pure_runs(list(script.ops), old.tokens, new.tokens, new)
    return DiffScript(ops=tuple(ops), old_len=len(old), new_len=len(new))


def apply_diff(old: TokenSequence, script: DiffScript) -> TokenSequence:
    """Replay a script against its base sequence, reproducing the new one.

    The rebuilt text keeps old-side gaps inside Equal spans, so equality
    with the original new sequence holds token-for-token.
    """
    if script.old_len != len(old):
        raise DiffApplyError(-1, f"script built for {script.old_len} tokens, got {len(old)}")
    fragments: list[str] = []
    cursor = 0
    for idx, op in enumerate(script.ops):
        if isinstance(op, (EqualOp, DeleteOp)):
            if op.old_lo != cursor:
                raise DiffApplyError(idx, f"old span starts at {op.old_lo}, expected {cursor}")
            if op.old_hi > len(old) or op.old_hi < op.old_lo:
                raise DiffApplyError(idx, f"old span [{op.old_lo},{op.old_hi}) out of bounds")
            if isinstance(op, EqualOp):
                fragments.append(old.slice_text(op.old_lo, op.old_hi))
            cursor = op.old_hi
        else:
            fragments.append(op.raw)
    if cursor != len(old):
        raise DiffApplyError(len(script.ops) - 1, f"script covers {cursor} of {len(old)} old tokens")
    return tokenize(join_fragments(fragments))
