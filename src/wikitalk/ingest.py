"""Streaming parser for MediaWiki page-revision history dumps.

Consumes decompressed export XML (the pages-meta-history shape) and yields
one record per ``<revision>`` element in document order. The dump is fed to
expat ``_READ_SIZE`` (64 KiB) at a time, and the records a chunk completes
are yielded before the next chunk is read, so the records in flight are
those of one chunk of dump text plus the revision it ends inside. Records
missing a page id, a revision id or a parseable timestamp are skipped and
counted (pages without ids could not be told apart), and so are revisions
whose text an administrator hid (``<text deleted="deleted">``): their text
is unknown, not empty. Suppressed contributors are kept with a sentinel
name so their deletions stay attributable.
"""

from __future__ import annotations

import xml.parsers.expat
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import BinaryIO, Iterator, NamedTuple, Optional

DELETED_USER_SENTINEL = "[deleted]"

_READ_SIZE = 64 << 10


class DumpFormatError(ValueError):
    """Malformed dump XML, whose message carries the failing byte offset,
    or a compressed dump cut short."""


class RevisionRecord(NamedTuple):
    """One revision as ingest reads it; immutable, compared field by field."""

    page_id: str
    page_title: str
    revision_id: str
    timestamp: datetime
    user_text: str
    user_id: Optional[int]
    wikitext: str

    @property
    def sort_key(self) -> tuple[datetime, str]:
        return (self.timestamp, self.revision_id)


@dataclass
class RunReport:
    """The counts of one run: ingest counts revisions and skips, the
    reconstructor resynced revisions, the pipeline pages and actions."""

    pages: int = 0
    revisions: int = 0
    actions_written: int = 0
    # revisions whose diff hit its token cap; the page state resyncs to them
    skipped_revisions: int = 0
    skip_reasons: dict[str, int] = field(default_factory=dict)

    @property
    def skipped(self) -> int:
        return sum(self.skip_reasons.values())

    def record_skip(self, reason: str) -> None:
        self.skip_reasons[reason] = self.skip_reasons.get(reason, 0) + 1


def parse_timestamp(value: str) -> datetime:
    ts = datetime.fromisoformat(value.strip().replace("Z", "+00:00"))
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


class _RevisionAccumulator:
    """Collects character data for one revision while expat walks it."""

    def __init__(self):
        self.rev_id: list[str] = []
        self.timestamp: list[str] = []
        self.username: list[str] = []
        self.ip: list[str] = []
        self.user_id: list[str] = []
        self.text: list[str] = []
        self.contributor_deleted = False
        self.text_deleted = False


class _DumpHandler:
    def __init__(self, report: RunReport):
        self.report = report
        self.stack: list[str] = []
        self.page_id: list[str] = []
        self.page_title: list[str] = []
        self.rev: Optional[_RevisionAccumulator] = None
        self.capture: Optional[list[str]] = None
        self.completed: list[RevisionRecord] = []

    def start(self, name: str, attrs: dict) -> None:
        self.stack.append(name)
        parent = self.stack[-2] if len(self.stack) >= 2 else ""
        if name == "page":
            self.page_id = []
            self.page_title = []
        elif name == "revision" and parent == "page":
            self.rev = _RevisionAccumulator()
        elif name == "contributor" and self.rev is not None:
            if attrs.get("deleted") == "deleted":
                self.rev.contributor_deleted = True
        elif self.rev is not None and parent == "revision":
            if name == "id":
                self.capture = self.rev.rev_id
            elif name == "timestamp":
                self.capture = self.rev.timestamp
            elif name == "text":
                self.capture = self.rev.text
                self.rev.text_deleted = attrs.get("deleted") == "deleted"
        elif self.rev is not None and parent == "contributor":
            if name == "username":
                self.capture = self.rev.username
            elif name == "id":
                self.capture = self.rev.user_id
            elif name == "ip":
                self.capture = self.rev.ip
        elif parent == "page":
            if name == "id":
                self.capture = self.page_id
            elif name == "title":
                self.capture = self.page_title

    def end(self, name: str) -> None:
        self.stack.pop()
        self.capture = None
        if name == "revision" and self.rev is not None:
            self._finish_revision()
            self.rev = None

    def chars(self, data: str) -> None:
        if self.capture is not None:
            self.capture.append(data)

    def _finish_revision(self) -> None:
        rev = self.rev
        page_id = "".join(self.page_id).strip()
        rev_id = "".join(rev.rev_id).strip()
        ts_raw = "".join(rev.timestamp).strip()
        if not page_id:
            self.report.record_skip("missing_page_id")
            return
        if not rev_id:
            self.report.record_skip("missing_revision_id")
            return
        if not ts_raw:
            self.report.record_skip("missing_timestamp")
            return
        try:
            timestamp = parse_timestamp(ts_raw)
        except ValueError:
            self.report.record_skip("bad_timestamp")
            return
        if rev.text_deleted:
            self.report.record_skip("text_deleted")
            return
        username = "".join(rev.username).strip()
        ip = "".join(rev.ip).strip()
        if rev.contributor_deleted or (not username and not ip):
            user_text = DELETED_USER_SENTINEL
            user_id = None
        elif username:
            user_text = username
            raw_uid = "".join(rev.user_id).strip()
            user_id = int(raw_uid) if raw_uid.isdigit() else None
        else:
            user_text = ip
            user_id = None
        self.report.revisions += 1
        self.completed.append(
            RevisionRecord(
                page_id=page_id,
                page_title="".join(self.page_title).strip(),
                revision_id=rev_id,
                timestamp=timestamp,
                user_text=user_text,
                user_id=user_id,
                wikitext="".join(rev.text),
            )
        )


def parse_dump_stream(
    stream: BinaryIO,
    report: Optional[RunReport] = None,
    read_size: int = _READ_SIZE,
) -> Iterator[RevisionRecord]:
    """Yield revision records from a decompressed dump, in document order.

    ``report`` (when provided) counts the revisions read and the records
    skipped as the stream is consumed.
    """
    handler = _DumpHandler(report if report is not None else RunReport())
    parser = xml.parsers.expat.ParserCreate()
    parser.buffer_text = True
    parser.StartElementHandler = handler.start
    parser.EndElementHandler = handler.end
    parser.CharacterDataHandler = handler.chars

    saw_content = False
    while True:
        try:
            chunk = stream.read(read_size)
        except EOFError as exc:  # a compressed dump cut short
            raise DumpFormatError(f"truncated dump: {exc}") from exc
        if not chunk:
            break
        if isinstance(chunk, str):
            chunk = chunk.encode("utf-8")
        if chunk.strip():
            saw_content = True
        try:
            parser.Parse(chunk, False)
        except xml.parsers.expat.ExpatError as exc:
            raise DumpFormatError(
                f"malformed dump XML at byte offset {parser.ErrorByteIndex}: {exc}"
            ) from exc
        if handler.completed:
            yield from handler.completed
            handler.completed = []
    if not saw_content:
        return
    try:
        parser.Parse(b"", True)
    except xml.parsers.expat.ExpatError as exc:
        raise DumpFormatError(
            f"malformed dump XML at byte offset {parser.ErrorByteIndex}: {exc}"
        ) from exc
    yield from handler.completed
