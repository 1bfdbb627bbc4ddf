import random
from datetime import datetime, timedelta, timezone

import pytest

from wikitalk.actions import Action, ActionType
from wikitalk.diff import EqualOp
from wikitalk.ingest import RevisionRecord
from wikitalk.tokenizer import tokenize

BASE = datetime(2016, 3, 1, 9, 0, 0, tzinfo=timezone.utc)


def make_revision(rev_id, text, page_id="1", minutes=0, user="alice", user_id=1):
    return RevisionRecord(
        page_id=page_id,
        page_title="Talk:Fixture",
        revision_id=str(rev_id),
        timestamp=BASE + timedelta(minutes=minutes),
        user_text=user,
        user_id=user_id,
        wikitext=text,
    )


def offsets(seq):
    """``(start, end)`` character offsets per token of a ``TokenSequence``."""
    return tuple(seq.char_span(i, i + 1) for i in range(len(seq)))


def equal_token_count(script):
    """Tokens a ``DiffScript`` keeps: the length of its common subsequence."""
    return sum(op.old_hi - op.old_lo for op in script.ops if isinstance(op, EqualOp))


def revision_records(script):
    """The revisions of a ``synth.PageScript`` as ingest would read them."""
    return [
        RevisionRecord(
            page_id=script.page_id,
            page_title=script.page_title,
            revision_id=r.revision_id,
            timestamp=r.timestamp,
            user_text=r.user_text,
            user_id=r.user_id,
            wikitext=r.text,
        )
        for r in script.revisions
    ]


def join_fragments(fragments):
    """Concatenate text fragments, padding joins so tokens never merge.

    A single space is interposed whenever the boundary characters are both
    non-whitespace; a space is a gap, so the padding never alters the token
    stream of either side.
    """
    out = []
    for frag in fragments:
        if not frag:
            continue
        if out and not out[-1][-1].isspace() and not frag[0].isspace():
            out.append(" ")
        out.append(frag)
    return "".join(out)


class DiffApplyError(Exception):
    def __init__(self, op_index, message):
        super().__init__(f"op {op_index}: {message}")
        self.op_index = op_index


def apply_diff(old, new, script):
    """Replay a ``DiffScript`` against its base sequence, reproducing the new
    one: the text of each equal span comes from ``old`` and that of each
    change from ``new``.

    The rebuilt text keeps old-side gaps inside Equal spans, so equality
    with the original new sequence holds token-for-token.
    """
    fragments = []
    cursor = 0
    for idx, op in enumerate(script.ops):
        if op.old_lo != cursor:
            raise DiffApplyError(idx, f"old span starts at {op.old_lo}, expected {cursor}")
        if op.old_hi > len(old) or op.old_hi < op.old_lo:
            raise DiffApplyError(idx, f"old span [{op.old_lo},{op.old_hi}) out of bounds")
        if isinstance(op, EqualOp):
            fragments.append(old.slice_text(op.old_lo, op.old_hi))
        else:
            fragments.append(new.slice_text(op.new_lo, op.new_hi))
        cursor = op.old_hi
    if cursor != len(old):
        raise DiffApplyError(len(script.ops) - 1, f"script covers {cursor} of {len(old)} old tokens")
    return tokenize(join_fragments(fragments))


def random_action(rng: random.Random, i: int) -> Action:
    a_type = rng.choice(list(ActionType))
    replyto = f"r{rng.randrange(50)}.0.1" if a_type not in (ActionType.CREATION,) and rng.random() < 0.7 else None
    parent = (
        f"p{rng.randrange(50)}.0.1"
        if a_type in (ActionType.MODIFICATION, ActionType.DELETION, ActionType.RESTORATION)
        else None
    )
    if a_type is ActionType.CREATION:
        replyto = None
    start = rng.randrange(0, 5000)
    return Action(
        action_id=f"{1000 + i}.{rng.randrange(500)}.{rng.randrange(9)}",
        type=a_type,
        page_id=str(rng.randrange(9)),
        page_title=f"Talk:Page {rng.randrange(9)}",
        revision_id=str(1000 + i),
        timestamp=BASE + timedelta(seconds=rng.randrange(10**7)),
        user_text=rng.choice(["alice", "bob", "carol", "日本語ユーザー", "10.0.0.1"]),
        user_id=rng.choice([None, 1, 2, 77]),
        content=rng.choice(["", "short note", "a longer remark with ünïcode"]),
        raw_markup=rng.choice(["", "raw ''markup''", ":indented {{tpl}}"]),
        replyto_id=replyto,
        parent_id=parent,
        indentation=rng.randrange(-1, 5) if a_type is not ActionType.CREATION else -1,
        conversation_id=f"c{rng.randrange(20)}.0.1",
        char_span=(start, start + rng.randrange(0, 400)),
    )


@pytest.fixture
def rng():
    return random.Random(20180701)
