"""Per-page reconstruction of conversational actions from revision diffs.

Each revision is diffed against its predecessor at token level; the edit
script is decomposed into typed actions attributed to the revision's
contributor. Sequential state tracks every live comment's token range
(distinguishing in-place modifications from additions) and a bounded store
of recently deleted comments (detecting restorations by exact match).
Character offsets are computed only for the actions emitted.

A script is decomposed in three steps: :func:`_attribute_changes` finds
the comments the changes delete or modify and the changes that stand
alone, :meth:`LiveComments.remap` moves the survivors into the new token
space, and ``_decompose`` emits in document order (``_emit_edit``,
``_emit_segment``).

Comment boundaries are interpretive: inserted text is split at heading
lines and at indentation changes at line starts, and consecutive
same-indentation lines join one comment unless a signature ends the
earlier line. That rule is isolated in :func:`segment_text`.
"""

from __future__ import annotations

import bisect
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from wikitalk.actions import Action, ActionType
from wikitalk.clean import HEADING_RE, clean_markup
from wikitalk.diff import ChangeOp, DiffOp, EqualOp, lcs_diff
from wikitalk.ingest import RevisionRecord
from wikitalk.store import DeletedCommentStore
from wikitalk.tokenizer import TokenSequence, tokenize

_INDENT_PREFIX_RE = re.compile(r"^[:*#]+")
_SIGNATURE_END_RE = re.compile(r"(~{3,5}|\(UTC\))\s*\r?$")

# Fraction of a comment's tokens that must be removed (with nothing
# inserted inside it) for the edit to count as a deletion of the comment
# rather than a modification.
DELETION_TOKEN_FRACTION = 0.5


def _is_heading_line(line: str) -> bool:
    m = HEADING_RE.match(line)
    return bool(m and m.group(2))


def _line_indentation(line: str) -> int:
    m = _INDENT_PREFIX_RE.match(line)
    return len(m.group()) if m else 0


@dataclass
class LiveComment:
    comment_id: str
    last_action_id: str
    # token range, relative to its block's delta while the comment is live
    tok_range: tuple[int, int]
    indentation: int
    conversation_id: str
    replyto_id: Optional[str]
    is_heading: bool
    cleaned_text: str


# Live comments are kept in blocks of about this many (at most twice as
# many), so an edit moves the comments of the blocks it touches and only
# one delta for each other block.
BLOCK_SIZE = 64


def _tok_start(c: LiveComment) -> int:
    return c.tok_range[0]


def _tok_end(c: LiveComment) -> int:
    return c.tok_range[1]


class _Block:
    """Consecutive live comments; each one's token range is its
    ``tok_range`` plus ``delta``, and ``has_heading`` says whether any of
    them is a heading."""

    __slots__ = ("comments", "delta", "has_heading")

    def __init__(self, comments: list[LiveComment], delta: int = 0):
        self.comments = comments
        self.delta = delta
        self.has_heading = any(c.is_heading for c in comments)

    def start(self) -> int:
        return self.comments[0].tok_range[0] + self.delta


class LiveComments:
    """The live comments of a page in document order, as a list of blocks
    (a sorted list of lists). The order holds without sorting because a
    diff keeps the order of the tokens it keeps. No block is empty."""

    def __init__(self):
        self.blocks: list[_Block] = []

    def locate(self, pos: int, side=bisect.bisect_right) -> tuple[int, int]:
        """The place ``(block index, index in block)`` that ``side`` would
        give for token ``pos`` in the list of comment starts. The index in
        the block is 0 only in the first block."""
        blocks = self.blocks
        if not blocks:
            return 0, 0
        bi = max(side(blocks, pos, key=_Block.start) - 1, 0) if len(blocks) > 1 else 0
        block = blocks[bi]
        return bi, side(block.comments, pos - block.delta, key=_tok_start)

    def scan(self, bi: int, j: int) -> Iterator[tuple[_Block, LiveComment, int, int]]:
        """``(block, comment, lo, hi)`` from place ``(bi, j)`` on."""
        for block in self.blocks[bi:]:
            d = block.delta
            for c in block.comments[j:]:
                lo, hi = c.tok_range
                yield block, c, lo + d, hi + d
            j = 0

    def insert(self, c: LiveComment) -> None:
        """Add ``c``, whose ``tok_range`` is absolute, at its place."""
        if not self.blocks:
            self.blocks.append(_Block([c]))
            return
        bi, j = self.locate(c.tok_range[0])
        block = self.blocks[bi]
        c.tok_range = (c.tok_range[0] - block.delta, c.tok_range[1] - block.delta)
        block.comments.insert(j, c)
        block.has_heading = block.has_heading or c.is_heading
        if len(block.comments) > 2 * BLOCK_SIZE:
            half = len(block.comments) // 2
            self.blocks[bi : bi + 1] = [
                _Block(block.comments[:half], block.delta),
                _Block(block.comments[half:], block.delta),
            ]

    def remove(self, block: _Block, c: LiveComment) -> None:
        """Take ``c`` out of ``block``, leaving its ``tok_range`` absolute;
        a block left empty is dropped."""
        lo, hi = c.tok_range
        del block.comments[bisect.bisect_left(block.comments, lo, key=_tok_start)]
        c.tok_range = (lo + block.delta, hi + block.delta)
        if not block.comments:
            self.blocks.remove(block)
        elif c.is_heading:
            block.has_heading = any(x.is_heading for x in block.comments)

    def remap(self, equal_ops: list[EqualOp], edits: dict[str, _CommentEdit]) -> None:
        """Move the comments into the new token space of a diff whose kept
        tokens are ``equal_ops``, setting each edited one's ``new_range``.

        The walk takes the equal ops alongside the blocks (both are in
        document order). A block's delta takes the shift of the first equal
        op it meets, so only its comments that other equal ops keep are
        rewritten, a run at a time. An edited comment is never inside one
        equal op; its range spans the tokens it kept and the tokens
        inserted into it.

        Only the blocks an edit touches are walked comment by comment. When
        the script starts with an equal op at token 0 of both sides, the
        blocks before the one that op ends in lie inside it and keep their
        place, so the walk starts there; once a block and all after it lie
        inside one equal op, they all take its shift."""
        blocks, k, bi = self.blocks, 0, 0
        if not blocks:
            return
        last_end = blocks[-1].comments[-1].tok_range[1] + blocks[-1].delta
        if equal_ops and equal_ops[0].old_lo == equal_ops[0].new_lo == 0:
            bi = max(bisect.bisect_right(blocks, equal_ops[0].old_hi, key=_Block.start) - 1, 0)
        for bi in range(bi, len(blocks)):
            block = blocks[bi]
            comments, d = block.comments, block.delta
            lo = comments[0].tok_range[0] + d
            while k < len(equal_ops) and equal_ops[k].old_hi <= lo:
                k += 1
            op = equal_ops[k] if k < len(equal_ops) else None
            ref = op.new_lo - op.old_lo if op is not None else 0
            if op is not None and op.old_lo <= lo and last_end <= op.old_hi:
                for later in blocks[bi:]:
                    later.delta += ref
                return
            block.delta = d + ref
            if op is not None and op.old_lo <= lo and comments[-1].tok_range[1] + d <= op.old_hi:
                continue
            i = 0
            while i < len(comments):
                c = comments[i]
                lo, hi = c.tok_range[0] + d, c.tok_range[1] + d
                while k < len(equal_ops) and equal_ops[k].old_hi <= lo:
                    k += 1
                op = equal_ops[k] if k < len(equal_ops) else None
                if op is not None and op.old_lo <= lo and hi <= op.old_hi:
                    end = bisect.bisect_right(comments, op.old_hi - d, i, key=_tok_end)
                    shift = op.new_lo - op.old_lo - ref
                    if shift:
                        for c in comments[i:end]:
                            c.tok_range = (c.tok_range[0] + shift, c.tok_range[1] + shift)
                    i = end
                    continue
                e = edits.get(c.comment_id)
                if e is None:
                    raise AssertionError(
                        f"comment {c.comment_id} lost its span without an edit record"
                    )
                positions = [p for ins_lo, ins_hi in e.insert_ranges for p in (ins_lo, ins_hi - 1)]
                j = k
                while j < len(equal_ops) and equal_ops[j].old_lo < hi:
                    j += 1
                if j > k:  # equal_ops[k:j] keep tokens of [lo, hi)
                    first, last = equal_ops[k], equal_ops[j - 1]
                    positions.append(first.new_lo + max(first.old_lo, lo) - first.old_lo)
                    positions.append(last.new_lo + min(last.old_hi, hi) - 1 - last.old_lo)
                if not positions:
                    raise AssertionError(f"modified comment {c.comment_id} has no surviving tokens")
                e.new_range = (min(positions), max(positions) + 1)
                c.tok_range = (e.new_range[0] - block.delta, e.new_range[1] - block.delta)
                i += 1


@dataclass
class PageState:
    page_id: str
    page_title: str
    tokens: TokenSequence = field(default_factory=lambda: tokenize(""))
    live: LiveComments = field(default_factory=LiveComments)
    store: DeletedCommentStore = field(default_factory=DeletedCommentStore)
    root_creation_id: Optional[str] = None
    _seen_action_ids: set[str] = field(default_factory=set)


@dataclass
class Segment:
    """One atomic piece of inserted text: a heading (indentation -1) or one
    comment."""

    tok_lo: int
    tok_hi: int
    char_lo: int
    char_hi: int
    indentation: int
    is_heading: bool
    raw: str


def _new_comment(
    action_id: str,
    seg: Segment,
    cleaned: str,
    conversation_id: str,
    replyto_id: Optional[str],
) -> LiveComment:
    return LiveComment(
        comment_id=action_id,
        last_action_id=action_id,
        tok_range=(seg.tok_lo, seg.tok_hi),
        indentation=seg.indentation,
        conversation_id=conversation_id,
        replyto_id=replyto_id,
        is_heading=seg.is_heading,
        cleaned_text=cleaned,
    )


def _new_action(
    state: PageState, rev: RevisionRecord, action_id: str, a_type: ActionType, **fields
) -> Action:
    """An action of ``a_type`` with the page and revision provenance filled in."""
    return Action(
        action_id=action_id,
        type=a_type,
        page_id=state.page_id,
        page_title=state.page_title,
        revision_id=rev.revision_id,
        timestamp=rev.timestamp,
        user_text=rev.user_text,
        user_id=rev.user_id,
        **fields,
    )


def segment_text(seq: TokenSequence, tok_lo: int, tok_hi: int) -> list[Segment]:
    """Split tokens [tok_lo, tok_hi) into heading/comment segments.

    Lines are judged in their full-text context, so an insertion that does
    not start at a line break inherits the indentation of the line it lands
    on. Blank lines separate segments and belong to none.
    """
    text, tokens = seq.text, seq[tok_lo:tok_hi]
    segments: list[Segment] = []
    open_seg: Optional[list[int]] = None  # [tok_lo, tok_hi, indent] of a comment
    prev_signed = False

    def add(lo: int, hi: int, indent: int) -> None:
        char_lo, char_hi = seq.char_span(lo, hi)
        segments.append(
            Segment(lo, hi, char_lo, char_hi, indent, indent < 0, text[char_lo:char_hi])
        )

    def close() -> None:
        nonlocal open_seg
        if open_seg is not None:
            add(*open_seg)
            open_seg = None

    lo = tok_lo
    while lo < tok_hi:
        try:  # the line's content tokens are [lo, hi)
            hi = tok_lo + tokens.index("\n", lo - tok_lo)
        except ValueError:
            hi = tok_hi
        if lo == hi:
            close()
            prev_signed = False
        else:
            first_char = seq.start(lo)
            line_start = text.rfind("\n", 0, first_char) + 1
            line_end = text.find("\n", first_char)
            if line_end == -1:
                line_end = len(text)
            line_text = text[line_start:line_end]
            if _is_heading_line(line_text):
                close()
                add(lo, hi, -1)
                prev_signed = False
            else:
                indent = _line_indentation(line_text)
                if open_seg is not None and (open_seg[2] != indent or prev_signed):
                    close()
                if open_seg is None:
                    open_seg = [lo, hi, indent]
                else:
                    open_seg[1] = hi
                prev_signed = bool(_SIGNATURE_END_RE.search(line_text))
        lo = hi + 1
    close()
    return segments


@dataclass
class _CommentEdit:
    comment: LiveComment
    block: _Block
    deleted_tokens: int = 0
    insert_ranges: list[tuple[int, int]] = field(default_factory=list)
    first_delete_new_pos: int = 0  # the new token where the first deletion sits
    deleted: bool = False  # the whole comment goes, rather than changing
    new_range: tuple[int, int] = (0, 0)  # of a surviving comment, set by remap


def _attribute_changes(
    live: LiveComments, changes: list[ChangeOp]
) -> tuple[dict[str, _CommentEdit], list[ChangeOp]]:
    """The edits of the live comments that ``changes`` touch, by comment id,
    each marked deleted or not, and the changes whose inserted text edits no
    comment."""
    edits: dict[str, _CommentEdit] = {}
    standalone: list[ChangeOp] = []

    def edit_for(c: LiveComment, block: _Block) -> _CommentEdit:
        if c.comment_id not in edits:
            edits[c.comment_id] = _CommentEdit(comment=c, block=block)
        return edits[c.comment_id]

    for ch in changes:
        # deleted tokens go to the comments they overlap; inserted text edits
        # the first of them that it does not wholly replace
        dlo, dhi = ch.old_lo, ch.old_hi
        target: Optional[_CommentEdit] = None
        if dlo < dhi:
            bi, j = live.locate(dlo)
            for block, c, clo, chi in live.scan(bi, max(j - 1, 0)):
                if clo >= dhi:
                    break
                overlap = min(chi, dhi) - max(clo, dlo)
                if overlap <= 0:
                    continue
                e = edit_for(c, block)
                if not e.deleted_tokens:
                    e.first_delete_new_pos = ch.new_lo
                e.deleted_tokens += overlap
                if target is None and not (dlo <= clo and dhi >= chi):
                    target = e
        if ch.new_lo == ch.new_hi:
            continue
        # else the comment it lands in, or it stands alone
        if target is None:
            bi, j = live.locate(dhi)
            if j > 0:
                block = live.blocks[bi]
                c = block.comments[j - 1]
                clo, chi = c.tok_range
                if clo < dhi - block.delta < chi:
                    target = edit_for(c, block)
        if target is not None:
            target.insert_ranges.append((ch.new_lo, ch.new_hi))
        else:
            standalone.append(ch)

    for e in edits.values():
        total = e.comment.tok_range[1] - e.comment.tok_range[0]
        e.deleted = bool(
            not e.insert_ranges and total and e.deleted_tokens / total >= DELETION_TOKEN_FRACTION
        )
    return edits, standalone


class Reconstructor:
    # -- id scheme: <revision_id>.<token offset>.<page_id>, bumped
    # deterministically in the rare case two actions of one revision share
    # an anchor offset.
    def _new_action_id(self, state: PageState, revision_id: str, offset: int, bump: int) -> str:
        while True:
            action_id = f"{revision_id}.{offset}.{state.page_id}"
            if action_id not in state._seen_action_ids:
                state._seen_action_ids.add(action_id)
                return action_id
            offset += bump

    def process_revision(self, state: PageState, rev: RevisionRecord) -> tuple[PageState, list[Action]]:
        """Advance the page state by one revision, returning emitted actions."""
        old_seq = state.tokens
        new_seq, head, tail = tokenize(rev.wikitext, old_seq)
        script = lcs_diff(old_seq, new_seq, shared=(head, tail))
        actions = self._decompose(state, rev, new_seq, script.ops)
        state.tokens = new_seq
        return state, actions

    # ------------------------------------------------------------------

    def _decompose(
        self, state: PageState, rev: RevisionRecord, new_seq: TokenSequence, ops: tuple[DiffOp, ...]
    ) -> list[Action]:
        old_seq = state.tokens
        changes = [op for op in ops if isinstance(op, ChangeOp)]
        edits, standalone = _attribute_changes(state.live, changes)
        for e in edits.values():
            if e.deleted:
                state.live.remove(e.block, e.comment)
        state.live.remap([op for op in ops if isinstance(op, EqualOp)], edits)

        # Emissions go in document order, in new tokens; a deletion sits at
        # its anchor, ties broken by its old token start. New segments join
        # the live list as they go, so later ones can reply to them.
        pending: list[tuple[tuple[int, int, int], _CommentEdit | Segment]] = []
        for e in edits.values():
            if e.deleted:
                pending.append(((e.first_delete_new_pos, 0, e.comment.tok_range[0]), e))
            else:
                pending.append(((e.new_range[0], 1, e.new_range[0]), e))
        for ch in standalone:
            for seg in segment_text(new_seq, ch.new_lo, ch.new_hi):
                pending.append(((seg.tok_lo, 1, seg.tok_lo), seg))
        pending.sort(key=lambda item: item[0])

        actions: list[Action] = []
        bump = len(new_seq) + len(old_seq) + 1
        for _, item in pending:
            if isinstance(item, Segment):
                actions.append(self._emit_segment(state, rev, item, bump, actions))
            else:
                actions.append(self._emit_edit(state, rev, item, old_seq, new_seq, bump))
        return actions

    def _emit_edit(
        self,
        state: PageState,
        rev: RevisionRecord,
        e: _CommentEdit,
        old_seq: TokenSequence,
        new_seq: TokenSequence,
        bump: int,
    ) -> Action:
        """The DELETION or MODIFICATION of an edited comment. A deleted
        comment goes to the store; a modified one takes the new text."""
        c = e.comment
        if e.deleted:
            a_type, offset = ActionType.DELETION, c.tok_range[0]
            pos = new_seq.char_span(e.first_delete_new_pos, e.first_delete_new_pos)[0]
            span = (pos, pos)
            raw, cleaned = old_seq.slice_text(*c.tok_range), c.cleaned_text
            replyto_id = None if c.is_heading else c.replyto_id
        else:
            a_type, offset = ActionType.MODIFICATION, e.new_range[0]
            span = new_seq.char_span(*e.new_range)
            raw = new_seq.text[span[0] : span[1]]
            cleaned = clean_markup(raw).text
            if not c.is_heading:
                c.indentation = _line_indentation(raw.partition("\n")[0])
            replyto_id = c.replyto_id
        action = _new_action(
            state,
            rev,
            self._new_action_id(state, rev.revision_id, offset, bump),
            a_type,
            content=cleaned,
            raw_markup=raw,
            replyto_id=replyto_id,
            parent_id=c.last_action_id,
            indentation=c.indentation,
            conversation_id=c.conversation_id,
            char_span=span,
        )
        if e.deleted:
            state.store.push(c)
        else:
            c.last_action_id, c.cleaned_text = action.action_id, cleaned
        return action

    # ------------------------------------------------------------------

    def _ensure_root(
        self, state: PageState, rev: RevisionRecord, actions: list[Action]
    ) -> str:
        if state.root_creation_id is None:
            root_id = self._new_action_id(state, rev.revision_id, -1, 1_000_000_000)
            state.root_creation_id = root_id
            actions.append(
                _new_action(
                    state,
                    rev,
                    root_id,
                    ActionType.CREATION,
                    content="",
                    raw_markup="",
                    replyto_id=None,
                    parent_id=None,
                    indentation=-1,
                    conversation_id=root_id,
                    char_span=(0, 0),
                )
            )
        return state.root_creation_id

    def _resolve_thread(self, live: LiveComments, tok_pos: int) -> Optional[LiveComment]:
        """The nearest heading starting before token ``tok_pos``; blocks
        without a heading are skipped."""
        bi, j = live.locate(tok_pos, bisect.bisect_left)
        for block in live.blocks[bi::-1]:
            if block.has_heading:
                for c in reversed(block.comments[:j]):
                    if c.is_heading:
                        return c
            j = None
        return None

    def _resolve_reply(
        self,
        live: LiveComments,
        tok_pos: int,
        indent: int,
        conversation_id: str,
    ) -> Optional[str]:
        """The nearest comment of the conversation before token ``tok_pos``
        one level shallower than ``indent``, else the nearest shallower one."""
        fallback = None
        bi, j = live.locate(tok_pos, bisect.bisect_left)
        for block in live.blocks[bi::-1]:
            for c in reversed(block.comments[:j]):
                if c.conversation_id != conversation_id:
                    continue
                if c.indentation == indent - 1:
                    return c.last_action_id
                if fallback is None and c.indentation < indent:
                    fallback = c.last_action_id
            j = None
        return fallback

    def _emit_segment(
        self,
        state: PageState,
        rev: RevisionRecord,
        seg: Segment,
        bump: int,
        actions: list[Action],
    ) -> Action:
        """Add ``seg`` as a live comment and return the action that made it:
        a RESTORATION of a stored deleted comment of the same kind, else a
        CREATION (opening a thread named by the new id) or an ADDITION."""
        cleaned = clean_markup(seg.raw).text
        entry = state.store.match(cleaned)
        parent_id = None
        if entry is not None and entry.is_heading == seg.is_heading:
            state.store.take(cleaned)
            a_type = ActionType.RESTORATION
            conversation_id, replyto_id = entry.conversation_id, entry.replyto_id
            parent_id = entry.last_action_id
        elif seg.is_heading:
            a_type = ActionType.CREATION
            conversation_id = replyto_id = None
        else:
            a_type = ActionType.ADDITION
            thread = self._resolve_thread(state.live, seg.tok_lo)
            if thread is None:
                conversation_id = self._ensure_root(state, rev, actions)
            else:
                conversation_id = thread.conversation_id
            replyto_id = self._resolve_reply(
                state.live, seg.tok_lo, seg.indentation, conversation_id
            ) or conversation_id

        action_id = self._new_action_id(state, rev.revision_id, seg.tok_lo, bump)
        conversation_id = conversation_id or action_id
        state.live.insert(_new_comment(action_id, seg, cleaned, conversation_id, replyto_id))
        return _new_action(
            state,
            rev,
            action_id,
            a_type,
            content=cleaned,
            raw_markup=seg.raw,
            replyto_id=replyto_id,
            parent_id=parent_id,
            indentation=seg.indentation,
            conversation_id=conversation_id,
            char_span=(seg.char_lo, seg.char_hi),
        )


def reconstruct_page(revisions: Iterable[RevisionRecord]) -> Iterator[Action]:
    """Fold a page's temporally ordered revisions into an action stream."""
    recon = Reconstructor()
    state: Optional[PageState] = None
    for rev in revisions:
        if state is None:
            state = PageState(page_id=rev.page_id, page_title=rev.page_title)
        _, actions = recon.process_revision(state, rev)
        yield from actions
