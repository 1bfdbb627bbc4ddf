import random

from wikitalk import store as store_mod
from wikitalk.reconstruct import LiveComment
from wikitalk.store import DeletedCommentStore


def entry(text, last="a1", conv="c1"):
    return LiveComment(
        comment_id=last,
        last_action_id=last,
        tok_range=(0, 0),
        indentation=0,
        conversation_id=conv,
        replyto_id=None,
        is_heading=False,
        cleaned_text=text,
    )


def test_never_deleted_text_no_match():
    store = DeletedCommentStore()
    assert store.match("completely unseen text") is None


def test_push_then_match_then_take():
    store = DeletedCommentStore()
    assert store.push(entry("a comment worth storing"))
    found = store.match("a comment worth storing")
    assert found is not None and found.last_action_id == "a1"
    taken = store.take("a comment worth storing")
    assert taken is found
    assert store.match("a comment worth storing") is None
    assert len(store) == 0


def test_length_bounds():
    store = DeletedCommentStore()
    assert not store.push(entry("too short"))  # 9 chars
    assert store.push(entry("just right"))  # 10 chars
    assert not store.push(entry("x" * 1001))
    assert store.push(entry("x" * 1000))
    assert len(store) == 2


def test_fifo_eviction_beyond_capacity():
    store = DeletedCommentStore()
    for i in range(150):
        store.push(entry(f"stored comment number {i:04d}"))
    assert len(store) == 100
    assert store.match("stored comment number 0049") is None
    assert store.match("stored comment number 0050") is not None


def test_take_from_a_full_store_compares_no_entries(monkeypatch):
    """A restored comment leaves the store by its position: no stored entry
    is compared with another, as ``list.remove`` would compare it with every
    older entry."""
    calls = []

    def counting_eq(self, other):
        calls.append(1)
        return self is other

    store = DeletedCommentStore()
    for i in range(store_mod.CAPACITY + 1):
        store.push(entry(f"stored comment number {i:04d}"))
    monkeypatch.setattr(LiveComment, "__eq__", counting_eq)
    newest = f"stored comment number {store_mod.CAPACITY:04d}"
    assert store.take(newest).cleaned_text == newest
    assert store.take("stored comment number 0050").cleaned_text == "stored comment number 0050"
    for i in range(3):  # past capacity: the oldest is evicted
        store.push(entry(f"one more stored comment {i}"))
    assert calls == []
    assert len(store) == store_mod.CAPACITY
    assert store.match("stored comment number 0001") is None
    assert store.match("stored comment number 0002") is not None


def test_most_recent_duplicate_wins():
    store = DeletedCommentStore()
    first = entry("identical deleted text", last="old")
    second = entry("identical deleted text", last="new")
    store.push(first)
    store.push(second)
    assert store.match("identical deleted text").last_action_id == "new"
    store.take("identical deleted text")
    assert store.match("identical deleted text").last_action_id == "old"


def test_trie_membership_tracks_entries(monkeypatch):
    monkeypatch.setattr(store_mod, "CAPACITY", 30)
    rng = random.Random(1)
    store = DeletedCommentStore()
    alive: list[str] = []
    for step in range(400):
        if alive and rng.random() < 0.4:
            text = rng.choice(alive)
            store.take(text)
            del alive[len(alive) - 1 - alive[::-1].index(text)]  # the newest with the text
        else:
            text = f"entry {rng.randrange(60)} padded to length"
            if store.push(entry(text)):
                alive.append(text)
        while len(alive) > 30:
            alive.pop(0)
        for text in set(alive):
            assert store.match(text) is not None
        assert len(store) == len(alive)
    # prefixes of stored texts must not match
    store2 = DeletedCommentStore()
    store2.push(entry("a longer stored sentence"))
    assert store2.match("a longer stored") is None
    assert store2.match("a longer stored sentence plus") is None
