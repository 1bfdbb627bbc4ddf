import io
import itertools
import json
import random
import tracemalloc
from collections import Counter

import pytest

from tests.conftest import random_action
from wikitalk.actions import ActionType
from wikitalk.corpus import (
    CorpusWriteError,
    Summary,
    read_actions,
    write_actions,
)

# the key order of every corpus record
FIELD_ORDER = (
    "id",
    "type",
    "timestamp",
    "user_text",
    "user_id",
    "page_id",
    "page_title",
    "conversation_id",
    "replyTo_id",
    "parent_id",
    "indentation",
    "content",
    "raw_markup",
    "char_start",
    "char_end",
)


def test_creation_serializes_nulls_and_field_order(rng):
    action = random_action(rng, 0)
    action.type = ActionType.CREATION
    action.replyto_id = None
    action.parent_id = None
    sink = io.StringIO()
    write_actions(iter([action]), sink)
    line = sink.getvalue().splitlines()[0]
    record = json.loads(line)
    assert tuple(record.keys()) == FIELD_ORDER
    assert record["replyTo_id"] is None
    assert record["parent_id"] is None
    assert '"replyTo_id": null' in line


def test_round_trip_value_identity(rng):
    actions = [random_action(rng, i) for i in range(10_000)]
    for a in actions:
        a.revision_id = a.action_id.split(".")[0]
    sink = io.StringIO()
    assert write_actions(iter(actions), sink) == len(actions)
    back = list(read_actions(io.StringIO(sink.getvalue())))
    assert back == actions


def test_write_error_reports_count():
    class FailingSink(io.StringIO):
        def __init__(self):
            super().__init__()
            self.lines = 0

        def write(self, s):
            self.lines += 1
            if self.lines > 2:
                raise OSError("disk full")
            return super().write(s)

    actions = [random_action(random.Random(1), i) for i in range(10)]
    with pytest.raises(CorpusWriteError) as err:
        write_actions(iter(actions), FailingSink())
    assert err.value.written == 2


def test_error_while_producing_actions_is_not_a_write_error():
    """The pipeline hands ``write_actions`` a page's actions as they are
    made, so a failing spill file or dump read surfaces inside its loop;
    it keeps its own type instead of reading as a failed corpus write."""

    def actions():
        yield random_action(random.Random(1), 0)
        raise OSError("spill directory full")

    sink = io.StringIO()
    with pytest.raises(OSError, match="spill directory full"):
        write_actions(actions(), sink)
    assert len(sink.getvalue().splitlines()) == 1


def summarize(actions):
    """Corpus statistics of ``actions`` in one pass, fed a page at a time."""
    summary = Summary()
    for _, page in itertools.groupby(actions, key=lambda a: a.page_id):
        list(summary.fed(page))
    return summary.stats()


def test_summarize_empty():
    stats = summarize(iter([]))
    assert stats["actions"] == 0
    assert stats["distinct_users"] == 0
    assert all(v == 0.0 for v in stats["type_breakdown"].values())


def test_summarize_one_of_each_type(rng):
    actions = []
    for i, a_type in enumerate(ActionType):
        a = random_action(rng, i)
        a.type = a_type
        a.content = "kept"
        a.replyto_id = None if a_type is ActionType.CREATION else a.replyto_id
        if a_type in (ActionType.CREATION, ActionType.ADDITION):
            a.parent_id = None
        elif a.parent_id is None:
            a.parent_id = "p.0.1"
        actions.append(a)
    stats = summarize(iter(actions))
    assert stats["actions"] == 5
    assert all(abs(v - 0.2) < 1e-9 for v in stats["type_breakdown"].values())
    assert abs(sum(stats["type_breakdown"].values()) - 1.0) < 1e-9


def test_summarize_excludes_empty_content(rng):
    # a run's actions come page by page, and conversations are page-scoped
    actions = sorted((random_action(rng, i) for i in range(200)), key=lambda a: a.page_id)
    stats = summarize(iter(actions))
    kept = [a for a in actions if a.content]
    assert stats["actions"] == len(kept)
    assert stats["distinct_users"] == len({a.user_text for a in kept})
    assert stats["pages"] == len({a.page_id for a in kept})
    assert stats["revisions"] == len({(a.page_id, a.revision_id) for a in kept})
    assert stats["conversations"] == len({(a.page_id, a.conversation_id) for a in kept})
    counts = Counter(a.type.value for a in kept)
    for name, frac in stats["type_breakdown"].items():
        assert abs(frac - counts.get(name, 0) / len(kept)) < 1e-9


def test_summary_memory_flat_in_pages(rng):
    """Only the users set grows with the run: the revision and conversation
    ids of a page are counted and dropped when the page ends."""

    def retained(pages):
        def actions():
            for page in range(pages):
                for i in range(20):
                    a = random_action(rng, i)
                    a.page_id, a.content = str(page), "kept"
                    a.revision_id = a.conversation_id = f"{page * 100 + i}.0.1"
                    yield a

        tracemalloc.start()
        try:
            summary = Summary()
            for _, page in itertools.groupby(actions(), key=lambda a: a.page_id):
                list(summary.fed(page))
            size, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert summary.stats()["revisions"] == summary.stats()["conversations"] == 20 * pages
        return size

    # keeping every page's ids held about 2.1 MB more at 400 pages
    assert retained(400) - retained(50) < 20_000


def test_reader_skips_comment_lines(rng):
    action = random_action(rng, 1)
    action.revision_id = action.action_id.split(".")[0]
    sink = io.StringIO()
    write_actions(iter([action]), sink)
    payload = "# a stray comment\n" + sink.getvalue() + "\n\n"
    assert list(read_actions(io.StringIO(payload))) == [action]
