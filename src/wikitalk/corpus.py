"""Line-delimited corpus serialization and summary statistics.

One JSON record per action, UTF-8, with a fixed field order so corpora are
byte-reproducible. The first line is a schema marker comment; readers skip
any ``#``-prefixed line.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from typing import IO, Any, Callable, Iterable, Iterator, Optional

from wikitalk.actions import Action, ActionType

SCHEMA_HEADER = "#wikiconv-schema=1"
SCORED_SCHEMA_HEADER = "#wikiconv-schema=1-scored"


class CorpusWriteError(OSError):
    def __init__(self, written: int, cause: Exception):
        super().__init__(f"write failed after {written} actions: {cause}")
        self.written = written
        self.cause = cause

    def __reduce__(self):  # pickled by its arguments, to cross a process
        return type(self), (self.written, self.cause)


def _format_timestamp(ts: datetime) -> str:
    return ts.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def action_to_record(action: Action) -> dict:
    return {
        "id": action.action_id,
        "type": action.type.value,
        "timestamp": _format_timestamp(action.timestamp),
        "user_text": action.user_text,
        "user_id": action.user_id,
        "page_id": action.page_id,
        "page_title": action.page_title,
        "conversation_id": action.conversation_id,
        "replyTo_id": action.replyto_id,
        "parent_id": action.parent_id,
        "indentation": action.indentation,
        "content": action.content,
        "raw_markup": action.raw_markup,
        "char_start": action.char_span[0],
        "char_end": action.char_span[1],
    }


def record_to_action(record: dict) -> Action:
    ts = datetime.strptime(record["timestamp"], "%Y-%m-%dT%H:%M:%SZ").replace(
        tzinfo=timezone.utc
    )
    return Action(
        action_id=record["id"],
        type=ActionType(record["type"]),
        page_id=record["page_id"],
        page_title=record["page_title"],
        revision_id=record["id"].split(".")[0],
        timestamp=ts,
        user_text=record["user_text"],
        user_id=record["user_id"],
        content=record["content"],
        raw_markup=record["raw_markup"],
        replyto_id=record["replyTo_id"],
        parent_id=record["parent_id"],
        indentation=record["indentation"],
        conversation_id=record["conversation_id"],
        char_span=(record["char_start"], record["char_end"]),
    )


# json.dumps with a non-default option builds a new encoder on every call
_ENCODER = json.JSONEncoder(ensure_ascii=False)


def serialize_action(action: Action, extra: Optional[dict] = None) -> str:
    record = action_to_record(action)
    if extra:
        record.update(extra)
    return _ENCODER.encode(record)


def write_actions(actions: Iterable[Action], sink: IO[str]) -> int:
    """Write actions as line-delimited records; returns the count written.
    The caller writes the header. A failed write raises
    ``CorpusWriteError``; an error raised while producing ``actions`` passes
    through unchanged."""
    written = 0
    for action in actions:
        try:
            sink.write(serialize_action(action) + "\n")
        except OSError as exc:
            raise CorpusWriteError(written, exc) from exc
        written += 1
    return written


def read_records(source: IO[str], convert: Callable[[dict], Any]) -> Iterator:
    """``convert`` of the JSON record on each line of a corpus-shaped file,
    skipping blank and ``#`` lines. A line that is not a JSON object, or
    whose fields ``convert`` cannot read, raises ``ValueError`` naming it."""
    name = getattr(source, "name", "input")
    for number, line in enumerate(source, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{name}, line {number}: not a JSON record ({exc.msg})") from None
        if not isinstance(record, dict):
            raise ValueError(f"{name}, line {number}: not a JSON object")
        try:
            item = convert(record)
        except KeyError as exc:
            raise ValueError(f"{name}, line {number}: missing field {exc.args[0]!r}") from None
        except (AttributeError, TypeError, ValueError) as exc:  # a field of the wrong type
            raise ValueError(f"{name}, line {number}: bad field value ({exc})") from None
        yield item


def read_actions(source: IO[str]) -> Iterator[Action]:
    return read_records(source, record_to_action)


class Summary:
    """Corpus statistics accumulated one action at a time. Actions with
    empty cleaned content (pure formatting edits) are excluded from every
    count. Actions come page by page, as a run writes them, and revision
    and conversation ids are page-scoped: their sets are counted and
    cleared when the page changes, so only the set of users grows with the
    run."""

    def __init__(self):
        self.users: set[str] = set()
        self.page: Optional[str] = None
        self.pages = 0
        self.revisions = 0
        self.conversations = 0
        self.page_revisions: set[str] = set()
        self.page_conversations: set[str] = set()
        self.type_counts: dict[str, int] = {t.value: 0 for t in ActionType}
        self.total = 0

    def add(self, action: Action) -> None:
        if not action.has_content:
            return
        self.total += 1
        self.users.add(action.user_text)
        if action.page_id != self.page:
            self.revisions += len(self.page_revisions)
            self.conversations += len(self.page_conversations)
            self.page_revisions.clear()
            self.page_conversations.clear()
            self.page = action.page_id
            self.pages += 1
        self.page_revisions.add(action.revision_id)
        self.page_conversations.add(action.conversation_id)
        self.type_counts[action.type.value] += 1

    def fed(self, actions: Iterable[Action]) -> Iterator[Action]:
        """Pass ``actions`` through, adding each one on the way."""
        for action in actions:
            self.add(action)
            yield action

    def merge(self, other: Summary) -> None:
        """Add ``other``, a summary of other pages, to this one."""
        self.users |= other.users
        self.pages += other.pages
        self.revisions += other.revisions + len(other.page_revisions)
        self.conversations += other.conversations + len(other.page_conversations)
        for name, count in other.type_counts.items():
            self.type_counts[name] += count
        self.total += other.total

    def stats(self) -> dict:
        """The summary as ``--stats`` writes it."""
        total = self.total
        breakdown = {
            name: (count / total if total else 0.0) for name, count in self.type_counts.items()
        }
        return {
            "distinct_users": len(self.users),
            "pages": self.pages,
            "revisions": self.revisions + len(self.page_revisions),
            "conversations": self.conversations + len(self.page_conversations),
            "actions": total,
            "type_breakdown": breakdown,
        }

