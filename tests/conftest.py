import random
from datetime import datetime, timedelta, timezone

import pytest

from wikitalk.actions import Action, ActionType
from wikitalk.diff import EqualOp
from wikitalk.ingest import RevisionRecord

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
