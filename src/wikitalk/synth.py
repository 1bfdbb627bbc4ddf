"""Scripted synthetic page histories with known ground truth.

A PageScript builds a talk page edit by edit (threads, replies, edits,
deletions, restorations) while independently tracking what each revision
means: the action type, character span, reply target, and parent of every
event, plus its own FIFO model of the deleted-comment store. The recorded
expectations serve as gold annotations for evaluating the reconstruction
pipeline, and the same machinery renders dump XML for end-to-end runs.

Scripts keep one convention the reconstructor also relies on: a comment is
created in an earlier or the same revision as anything replying to it, and
a revision never both deletes and inserts at the same spot.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Optional
from xml.sax.saxutils import escape

from wikitalk.actions import ActionType
from wikitalk.clean import clean_markup
from wikitalk.evalharness import GoldAnnotation
from wikitalk.store import CAPACITY, MAX_CHARS, MIN_CHARS
from wikitalk.tokenizer import tokenize

BASE_TIME = datetime(2018, 1, 1, 12, 0, 0, tzinfo=timezone.utc)


@dataclass
class Block:
    """One rendered unit of the page: a thread heading or one comment."""

    kind: str  # "heading" | "comment"
    lines: list[str]
    indent: int
    alive: bool = True
    first_id: Optional[str] = None
    last_id: Optional[str] = None
    replyto_gold: Optional[str] = None
    conversation_id: Optional[str] = None

    @property
    def text(self) -> str:
        return "\n".join(self.lines)


@dataclass
class _PendingOp:
    kind: str  # creation | addition | restoration | modification | deletion
    block: Block
    parent_gold: Optional[str] = None
    reply_target: Optional[Block] = None
    predict_replyto: bool = False
    following: list[Block] = field(default_factory=list)


@dataclass
class Revision:
    revision_id: str
    timestamp: datetime
    user_text: str
    user_id: Optional[int]
    text: str


class PageScript:
    """Synthetic page history builder with self-computed gold annotations."""

    def __init__(self, page_id: str, page_title: str, base_time: datetime = BASE_TIME):
        self.page_id = page_id
        self.page_title = page_title
        self.base_time = base_time
        self.blocks: list[Block] = []
        self.revisions: list[Revision] = []
        self.gold: list[GoldAnnotation] = []
        self.root_creation_id: Optional[str] = None
        self._pending: list[_PendingOp] = []
        self._store_model: list[tuple[str, Block]] = []
        self._last_offsets: dict[int, tuple[int, int]] = {}
        self._rev_counter = 0

    # -- scripting ops ---------------------------------------------------

    def new_thread(self, title: str) -> Block:
        block = Block(kind="heading", lines=[f"== {title} =="], indent=-1)
        self.blocks.append(block)
        self._pending.append(_PendingOp(kind="creation", block=block))
        return block

    def add_comment(self, target: Optional[Block], text: str, sign: bool = True) -> Block:
        """Add a comment replying to ``target`` (a heading or a comment); a
        None target makes a pre-heading comment at the top of the page."""
        if target is None:
            indent = 0
            insert_at = self._first_heading_index()
        else:
            indent = 0 if target.kind == "heading" else target.indent + 1
            insert_at = self._after_subtree(target)
        block = Block(kind="comment", lines=self._render_comment(text, indent, sign), indent=indent)
        self.blocks.insert(insert_at, block)
        self._pending.append(_PendingOp(kind="addition", block=block, reply_target=target))
        return block

    def modify_comment(self, block: Block, new_text: str, sign: bool = True) -> Block:
        if not block.alive:
            raise ValueError("cannot modify a deleted comment")
        op = _PendingOp(kind="modification", block=block, parent_gold=block.last_id)
        block.lines = self._render_comment(new_text, block.indent, sign)
        self._pending.append(op)
        return block

    def delete_comment(self, block: Block) -> None:
        if not block.alive:
            raise ValueError("already deleted")
        index = self.blocks.index(block)
        op = _PendingOp(
            kind="deletion",
            block=block,
            parent_gold=block.last_id,
            following=self.blocks[index + 1 :],
        )
        block.alive = False
        cleaned = clean_markup(block.text).text
        if MIN_CHARS <= len(cleaned) <= MAX_CHARS:
            # the store keeps the last pre-deletion action: restorations
            # return to that state
            self._store_model.append((cleaned, block, block.last_id))
            while len(self._store_model) > CAPACITY:
                self._store_model.pop(0)
        self._pending.append(op)

    def delete_thread(self, heading: Block) -> list[Block]:
        """Remove a heading and every live comment under it (cascade)."""
        index = self.blocks.index(heading)
        doomed = [heading]
        for block in self.blocks[index + 1 :]:
            if block.kind == "heading":
                break
            if block.alive:
                doomed.append(block)
        for block in doomed:
            self.delete_comment(block)
        return doomed

    def reinsert_comment(self, block: Block) -> tuple[Block, ActionType]:
        """Re-add a deleted comment's exact text at the end of its thread.

        Predicts Restoration when the builder's own FIFO store model still
        holds the text, Addition otherwise (evicted or out of bounds)."""
        if block.alive:
            raise ValueError("comment is not deleted")
        cleaned = clean_markup(block.text).text
        stored = next(
            (
                i
                for i in range(len(self._store_model) - 1, -1, -1)
                if self._store_model[i][0] == cleaned
            ),
            None,
        )
        self.blocks.remove(block)
        if stored is not None:
            pre_deletion_last = self._store_model[stored][2]
            self._store_model.pop(stored)
            block.alive = True
            insert_at = self._conversation_end_index(block.conversation_id)
            self.blocks.insert(insert_at, block)
            self._pending.append(
                _PendingOp(kind="restoration", block=block, parent_gold=pre_deletion_last)
            )
            return block, ActionType.RESTORATION
        fresh = Block(kind="comment", lines=list(block.lines), indent=block.indent)
        insert_at = self._conversation_end_index(block.conversation_id)
        self.blocks.insert(insert_at, fresh)
        self._pending.append(_PendingOp(kind="addition", block=fresh, predict_replyto=True))
        return fresh, ActionType.ADDITION

    # -- revision rendering ----------------------------------------------

    def commit(self, user: str = "alice", user_id: Optional[int] = 1) -> Revision:
        """Render the pending ops as one revision and record its gold."""
        old_text = self.revisions[-1].text if self.revisions else ""
        old_tokens = tokenize(old_text)
        old_offsets = self._last_offsets

        self._rev_counter += 1
        rev_id = str(1000 + self._rev_counter)
        timestamp = self.base_time + timedelta(minutes=5 * self._rev_counter)
        new_text = self.render()
        new_tokens = tokenize(new_text)
        new_offsets = self._current_offsets()

        for op in self._pending:
            block = op.block
            if op.kind == "deletion":
                char_start = old_offsets[id(block)][0]
                tok = old_tokens.token_at_or_after(char_start)
                action_id = f"{rev_id}.{tok}.{self.page_id}"
                collapse = self._collapse_position(op, new_offsets, new_text)
                self.gold.append(
                    GoldAnnotation(
                        action_id=action_id,
                        gold_type=ActionType.DELETION,
                        gold_span=(collapse, collapse),
                        gold_replyto=None if block.kind == "heading" else block.replyto_gold,
                        gold_parent=op.parent_gold,
                    )
                )
                block.last_id = action_id
                continue

            span = new_offsets[id(block)]
            tok = new_tokens.token_at_or_after(span[0])
            action_id = f"{rev_id}.{tok}.{self.page_id}"
            if op.kind == "creation":
                block.first_id = block.last_id = action_id
                block.conversation_id = action_id
                gold = GoldAnnotation(action_id, ActionType.CREATION, span, None, None)
            elif op.kind == "addition":
                if op.predict_replyto:
                    block.conversation_id = self._enclosing_conversation(block)
                    block.replyto_gold = self._predict_replyto(block)
                elif op.reply_target is not None:
                    block.conversation_id = op.reply_target.conversation_id
                    block.replyto_gold = op.reply_target.last_id
                else:
                    root_id = self._ensure_root_gold(rev_id)
                    block.conversation_id = root_id
                    block.replyto_gold = self._predict_replyto(block) or root_id
                block.first_id = block.last_id = action_id
                gold = GoldAnnotation(
                    action_id, ActionType.ADDITION, span, block.replyto_gold, None
                )
            elif op.kind == "modification":
                gold = GoldAnnotation(
                    action_id, ActionType.MODIFICATION, span, block.replyto_gold, op.parent_gold
                )
                block.last_id = action_id
            else:  # restoration
                gold = GoldAnnotation(
                    action_id, ActionType.RESTORATION, span, block.replyto_gold, op.parent_gold
                )
                block.last_id = action_id
            self.gold.append(gold)

        self._pending = []
        self._last_offsets = new_offsets
        revision = Revision(
            revision_id=rev_id,
            timestamp=timestamp,
            user_text=user,
            user_id=user_id,
            text=new_text,
        )
        self.revisions.append(revision)
        return revision

    def render(self) -> str:
        parts = []
        for block in self.blocks:
            if block.alive:
                parts.append(block.text + "\n")
        return "".join(parts)

    # -- internals ---------------------------------------------------------

    def _render_comment(self, text: str, indent: int, sign: bool) -> list[str]:
        prefix = ":" * indent
        lines = [prefix + line if line else prefix for line in text.split("\n")]
        if sign:
            lines[-1] = lines[-1] + " ~~~~"
        return lines

    def _first_heading_index(self) -> int:
        for i, block in enumerate(self.blocks):
            if block.kind == "heading":
                return i
        return len(self.blocks)

    def _after_subtree(self, target: Block) -> int:
        index = self.blocks.index(target)
        i = index + 1
        while i < len(self.blocks):
            block = self.blocks[i]
            if block.kind == "heading" or (block.alive and block.indent <= target.indent):
                break
            i += 1
        return i

    def _conversation_end_index(self, conversation_id: Optional[str]) -> int:
        last = None
        for i, other in enumerate(self.blocks):
            if other.alive and other.conversation_id == conversation_id:
                last = i
        if last is None:
            return len(self.blocks)
        return last + 1

    def _enclosing_conversation(self, block: Block) -> Optional[str]:
        index = self.blocks.index(block)
        for other in reversed(self.blocks[:index]):
            if other.alive and other.kind == "heading":
                return other.conversation_id
        return self.root_creation_id

    def _predict_replyto(self, block: Block) -> Optional[str]:
        """Apply the indentation resolution rule over the builder's layout:
        nearest preceding live block in the conversation at indent-1, else
        nearest shallower one, else the conversation opener."""
        index = self.blocks.index(block)
        fallback = None
        for other in reversed(self.blocks[:index]):
            if not other.alive or other.conversation_id != block.conversation_id:
                continue
            if other.indent == block.indent - 1:
                return other.last_id
            if fallback is None and other.indent < block.indent:
                fallback = other.last_id
        return fallback or block.conversation_id

    def _ensure_root_gold(self, rev_id: str) -> str:
        if self.root_creation_id is None:
            root_id = f"{rev_id}.-1.{self.page_id}"
            self.root_creation_id = root_id
            self.gold.append(GoldAnnotation(root_id, ActionType.CREATION, (0, 0), None, None))
        return self.root_creation_id

    def _current_offsets(self) -> dict[int, tuple[int, int]]:
        offsets: dict[int, tuple[int, int]] = {}
        pos = 0
        for block in self.blocks:
            if not block.alive:
                continue
            length = len(block.text)
            offsets[id(block)] = (pos, pos + length)
            pos += length + 1
        return offsets

    def _collapse_position(
        self, op: _PendingOp, new_offsets: dict[int, tuple[int, int]], new_text: str
    ) -> int:
        for block in op.following:
            if block.alive and id(block) in new_offsets:
                return new_offsets[id(block)][0]
        return len(new_text)


def render_dump(scripts: list[PageScript], shuffle_seed: Optional[int] = None) -> str:
    """MediaWiki export XML for the scripted pages; revision document order
    can be shuffled to exercise temporal sorting downstream."""
    parts = ['<mediawiki xmlns="http://www.mediawiki.org/xml/export-0.10/">\n']
    for i, script in enumerate(scripts, start=1):
        parts.append("  <page>\n")
        parts.append(f"    <title>{escape(script.page_title)}</title>\n")
        parts.append("    <ns>1</ns>\n")
        parts.append(f"    <id>{escape(script.page_id)}</id>\n")
        revisions = list(script.revisions)
        if shuffle_seed is not None:
            random.Random(shuffle_seed + i).shuffle(revisions)
        for rev in revisions:
            parts.append("    <revision>\n")
            parts.append(f"      <id>{escape(rev.revision_id)}</id>\n")
            parts.append(
                f"      <timestamp>{rev.timestamp.strftime('%Y-%m-%dT%H:%M:%SZ')}</timestamp>\n"
            )
            parts.append("      <contributor>\n")
            parts.append(f"        <username>{escape(rev.user_text)}</username>\n")
            if rev.user_id is not None:
                parts.append(f"        <id>{rev.user_id}</id>\n")
            parts.append("      </contributor>\n")
            parts.append(f'      <text xml:space="preserve">{escape(rev.text)}</text>\n')
            parts.append("    </revision>\n")
        parts.append("  </page>\n")
    parts.append("</mediawiki>\n")
    return "".join(parts)


def write_dump(scripts: list[PageScript], path: Path, shuffle_seed: Optional[int] = None) -> Path:
    path = Path(path)
    path.write_text(render_dump(scripts, shuffle_seed=shuffle_seed), encoding="utf-8")
    return path


def figure_walkthrough_script(page_id: str = "101", title: str = "Talk:Example") -> PageScript:
    """The canonical five-revision scenario: a thread opens, two comments
    arrive together, an abusive reply appears, gets removed, and an earlier
    comment is edited."""
    script = PageScript(page_id, title)
    thread = script.new_thread("Important Topic")
    script.commit(user="alice", user_id=1)
    c1 = script.add_comment(thread, "I think the article should mention the 2006 survey.")
    c2 = script.add_comment(c1, "Agreed, the survey is the strongest source we have.")
    script.commit(user="bob", user_id=2)
    abusive = script.add_comment(c2, "You are all idiots and this page is garbage.")
    script.commit(user="troll", user_id=666)
    script.delete_comment(abusive)
    script.commit(user="carol", user_id=3)
    script.modify_comment(c1, "I think the article should mention the 2006 and 2010 surveys.")
    script.commit(user="alice", user_id=1)
    return script


def gold_fixture_suite() -> list[PageScript]:
    """Twenty-plus scripted page histories covering all five action types,
    including restoration-after-many-deletions, heading deletion cascades,
    and pre-heading comments. Every script carries its own gold."""
    scripts: list[PageScript] = []

    scripts.append(figure_walkthrough_script(page_id="401"))

    s = PageScript("402", "Talk:Deep chain")
    t = s.new_thread("A deep chain of replies")
    s.commit()
    node = s.add_comment(t, "Top level argument about the subject matter.")
    s.commit(user="u0")
    for i in range(5):
        node = s.add_comment(node, f"Counterpoint number {i} going one level deeper.")
        s.commit(user=f"u{i + 1}")
    scripts.append(s)

    s = PageScript("403", "Talk:Wide")
    t = s.new_thread("Many siblings under one comment")
    s.commit()
    top = s.add_comment(t, "Please weigh in on this proposal below.")
    s.commit(user="prop")
    for i in range(6):
        s.add_comment(top, f"Opinion {i} on the proposal, briefly stated.")
        s.commit(user=f"voter{i}")
    scripts.append(s)

    s = PageScript("404", "Talk:Interleave")
    t1 = s.new_thread("First ongoing discussion")
    s.commit()
    t2 = s.new_thread("Second ongoing discussion")
    s.commit(user="b")
    a1 = s.add_comment(t1, "Starting off the first discussion thread.")
    s.commit(user="c")
    b1 = s.add_comment(t2, "Starting off the second discussion thread.")
    s.commit(user="d")
    s.add_comment(a1, "Replying within the first discussion.")
    s.commit(user="e")
    s.add_comment(b1, "Replying within the second discussion.")
    s.commit(user="f")
    scripts.append(s)

    s = PageScript("405", "Talk:DeepEdit")
    t = s.new_thread("Editing a deep reply")
    s.commit()
    a = s.add_comment(t, "Original remark to be discussed at length.")
    s.commit(user="a")
    b = s.add_comment(a, "A reply that will be reworded later on.")
    s.commit(user="b")
    s.modify_comment(b, "A reply that was reworded for extra clarity.")
    s.commit(user="b")
    scripts.append(s)

    s = PageScript("406", "Talk:LeafDelete")
    t = s.new_thread("Removing a leaf comment")
    s.commit()
    a = s.add_comment(t, "Parent comment that stays in place.")
    s.commit(user="a")
    b = s.add_comment(a, "Off-topic remark that gets removed.")
    s.commit(user="b")
    s.delete_comment(b)
    s.commit(user="mod")
    scripts.append(s)

    s = PageScript("407", "Talk:MidDelete")
    t = s.new_thread("Removing a comment with replies")
    s.commit()
    a = s.add_comment(t, "Opening comment of the exchange here.")
    s.commit(user="a")
    b = s.add_comment(a, "Problematic middle comment to be removed.")
    s.commit(user="b")
    s.add_comment(b, "Reply hanging off the middle comment.")
    s.commit(user="c")
    s.delete_comment(b)
    s.commit(user="mod")
    scripts.append(s)

    s = PageScript("408", "Talk:Restore")
    t = s.new_thread("Plain restoration case")
    s.commit()
    c = s.add_comment(t, "Comment removed in error and brought back.")
    s.commit(user="a")
    s.delete_comment(c)
    s.commit(user="vandal")
    s.reinsert_comment(c)
    s.commit(user="restorer")
    scripts.append(s)

    s = PageScript("409", "Talk:RestoreAfterMany")
    t = s.new_thread("Restoration after many deletions")
    s.commit()
    target = s.add_comment(t, "The comment restored after heavy churn.")
    s.commit(user="a")
    s.delete_comment(target)
    s.commit(user="vandal")
    churn = []
    for i in range(50):
        c = s.add_comment(t, f"Churn comment {i} soon to be deleted too.")
        s.commit(user=f"w{i % 5}")
        churn.append(c)
    for i, c in enumerate(churn):
        s.delete_comment(c)
        s.commit(user=f"m{i % 3}")
    s.reinsert_comment(target)
    s.commit(user="restorer")
    scripts.append(s)

    s = PageScript("410", "Talk:Cascade")
    t1 = s.new_thread("Doomed discussion section")
    s.commit()
    a = s.add_comment(t1, "First comment in the doomed section.")
    s.commit(user="a")
    s.add_comment(a, "Second comment, nested under the first.")
    s.commit(user="b")
    t2 = s.new_thread("Surviving discussion section")
    s.commit(user="c")
    s.add_comment(t2, "Comment under the surviving section.")
    s.commit(user="d")
    s.delete_thread(t1)
    s.commit(user="mod")
    scripts.append(s)

    s = PageScript("411", "Talk:ThreadRestore")
    t = s.new_thread("Archived question about citations")
    s.commit()
    s.add_comment(t, "The question text that goes away with it.")
    s.commit(user="a")
    s.delete_thread(t)
    s.commit(user="vandal")
    s.reinsert_comment(t)
    s.commit(user="admin")
    scripts.append(s)

    s = PageScript("412", "Talk:Orphans")
    o1 = s.add_comment(None, "Note left at the very top of the page.")
    s.commit(user="a")
    s.add_comment(o1, "Reply to the unheaded note above.")
    s.commit(user="b")
    t = s.new_thread("A proper topic at last")
    s.commit(user="c")
    s.add_comment(t, "Discussion under the proper topic heading.")
    s.commit(user="d")
    scripts.append(s)

    s = PageScript("413", "Talk:Multiline")
    t = s.new_thread("Multi line comments")
    s.commit()
    c = s.add_comment(t, "First paragraph of a longer view.\nSecond paragraph continuing it.")
    s.commit(user="a")
    s.add_comment(c, "Reply to the two-paragraph comment.")
    s.commit(user="b")
    scripts.append(s)

    s = PageScript("414", "Talk:Markup")
    t = s.new_thread("Formatting inside comments")
    s.commit()
    c = s.add_comment(t, "See [[WP:RS|the sourcing rules]] and ''be bold'' about it.")
    s.commit(user="a")
    s.modify_comment(c, "See [[WP:RS|the sourcing rules]] and '''never''' edit-war.")
    s.commit(user="a")
    scripts.append(s)

    s = PageScript("415", "Talk:ModChain")
    t = s.new_thread("Repeated edits then removal")
    s.commit()
    c = s.add_comment(t, "Version one of the statement being drafted.")
    s.commit(user="a")
    s.modify_comment(c, "Version two of the statement, now clearer.")
    s.commit(user="a")
    s.modify_comment(c, "Version three of the statement, final form.")
    s.commit(user="a")
    s.delete_comment(c)
    s.commit(user="mod")
    scripts.append(s)

    s = PageScript("416", "Talk:ReAddDifferent")
    t = s.new_thread("Replacement rather than restoration")
    s.commit()
    c = s.add_comment(t, "A remark that will be deleted outright.")
    s.commit(user="a")
    s.delete_comment(c)
    s.commit(user="mod")
    s.add_comment(t, "A different remark added after the deletion.")
    s.commit(user="a")
    scripts.append(s)

    s = PageScript("417", "Talk:ShortBound")
    t = s.new_thread("Short text never stored")
    s.commit()
    c = s.add_comment(t, "Thanks!")
    s.commit(user="a")
    s.delete_comment(c)
    s.commit(user="mod")
    s.reinsert_comment(c)
    s.commit(user="a")
    scripts.append(s)

    s = PageScript("418", "Talk:LongBound")
    t = s.new_thread("Very long text never stored")
    s.commit()
    c = s.add_comment(t, ("lengthy discourse " * 70).strip())
    s.commit(user="a")
    s.delete_comment(c)
    s.commit(user="mod")
    s.reinsert_comment(c)
    s.commit(user="a")
    scripts.append(s)

    s = PageScript("419", "Talk:TwoAtOnce")
    t1 = s.new_thread("Morning topic")
    s.commit()
    t2 = s.new_thread("Evening topic")
    s.commit(user="b")
    s.add_comment(t1, "Observation filed under the morning topic.")
    s.add_comment(t2, "Observation filed under the evening topic.")
    s.commit(user="c")
    scripts.append(s)

    s = PageScript("420", "Talk:Unsigned")
    t = s.new_thread("Unsigned multi line comment")
    s.commit()
    c = s.add_comment(t, "A view stated plainly.\nWith a second unsigned line.", sign=False)
    s.commit(user="a")
    s.add_comment(c, "Reply to the unsigned comment above.")
    s.commit(user="b")
    scripts.append(s)

    s = PageScript("421", "Talk:EmptyContent")
    t = s.new_thread("Template only comment")
    s.commit()
    s.add_comment(t, "{{resolved}}", sign=False)
    s.commit(user="a")
    scripts.append(s)

    s = PageScript("422", "Talk:RestoreModified")
    t = s.new_thread("Restoring an edited comment")
    s.commit()
    c = s.add_comment(t, "Initial wording of the contested remark.")
    s.commit(user="a")
    s.modify_comment(c, "Final wording of the contested remark.")
    s.commit(user="a")
    s.delete_comment(c)
    s.commit(user="vandal")
    s.reinsert_comment(c)
    s.commit(user="restorer")
    scripts.append(s)

    return scripts


def random_tree_script(
    seed: int,
    n_comments: int = 12,
    page_id: Optional[str] = None,
) -> tuple[PageScript, dict[str, str]]:
    """A random reply tree rendered via indentation, one comment per
    revision. Returns the script plus the true reply edges (addition
    action id -> replied-to action id)."""
    rng = random.Random(seed)
    script = PageScript(page_id or f"tree{seed}", f"Talk:Tree {seed}")
    thread = script.new_thread(f"Discussion {seed}")
    script.commit(user="opener", user_id=1)
    nodes = [thread]
    edges: dict[str, str] = {}
    for i in range(n_comments):
        target = rng.choice(nodes)
        text = f"reply {i} raising point {rng.randrange(1000)} about the topic"
        comment = script.add_comment(target, text)
        script.commit(user=f"user{rng.randrange(6)}", user_id=10 + rng.randrange(6))
        edges[comment.first_id] = comment.replyto_gold
        nodes.append(comment)
    return script, edges
