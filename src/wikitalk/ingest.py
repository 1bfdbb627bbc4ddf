"""Streaming reader for MediaWiki page-revision history dumps.

``open_dump`` opens a dump file as plain XML or compressed as Wikimedia
publishes it: a bz2 file (multistream too) or a gzip file, told apart by
their first bytes and decompressed as they are read. A 7z file is refused.

``parse_dump_stream`` consumes the export XML (the pages-meta-history
shape) and yields one record per ``<revision>`` element in document order.
It reads eight elements, one row each of ``_FIELDS``: the page's ``<id>``
and ``<title>``, the revision's ``<id>``, ``<timestamp>`` and ``<text>``,
and the contributor's ``<username>``, ``<id>`` and ``<ip>``, plus the
``deleted`` attribute of ``<contributor>`` and ``<text>``. Expat's
character data handler is set only while one of those elements is open,
so the text of every other element (``<siteinfo>``, ``<comment>``,
``<sha1>``, ...) and the whitespace between elements never reach Python.

The dump is fed to expat ``_READ_SIZE`` (64 KiB) at a time, and the
records a chunk completes are yielded before the next chunk is read, so
the records in flight are those of one chunk of dump text plus the
revision it ends inside. Records missing a page id, a revision id or a
parseable timestamp are skipped and counted (pages without ids could not
be told apart), and so are revisions whose text an administrator hid
(``<text deleted="deleted">``): their text is unknown, not empty.
Suppressed contributors are kept with a sentinel name so their deletions
stay attributable.
"""

from __future__ import annotations

import bz2
import re
import xml.parsers.expat
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import BinaryIO, Iterator, NamedTuple, Optional

DELETED_USER_SENTINEL = "[deleted]"

_READ_SIZE = 64 << 10

_BZIP2_MAGIC = b"BZh"
_GZIP_MAGIC = b"\x1f\x8b"
_7Z_MAGIC = b"7z\xbc\xaf\x27\x1c"


class DumpFormatError(ValueError):
    """Malformed dump XML, whose message carries the failing byte offset,
    or a compressed dump cut short."""


_DIGIT_RUNS_RE = re.compile(r"[0-9]+|[^0-9]+")


def id_order_key(id_: str) -> tuple:
    """Natural order of page and revision ids: digit runs compare as
    integers, so 9 precedes 10 and ``tree2`` precedes ``tree10``. The id
    itself breaks ties such as ``7`` and ``07``."""
    runs = tuple(
        (0, int(run), "") if "0" <= run[0] <= "9" else (1, 0, run)
        for run in _DIGIT_RUNS_RE.findall(id_)
    )
    return runs, id_


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
    def sort_key(self) -> tuple[datetime, tuple]:
        """Timestamp, then revision id in natural order: MediaWiki assigns
        revision ids in save order, so 999 precedes 1000 in one second."""
        return (self.timestamp, id_order_key(self.revision_id))


@dataclass
class RunReport:
    """The counts of one run: ingest counts revisions and skips, the
    pipeline pages and actions."""

    pages: int = 0
    revisions: int = 0
    actions_written: int = 0
    skip_reasons: dict[str, int] = field(default_factory=dict)

    @property
    def skipped(self) -> int:
        return sum(self.skip_reasons.values())

    def record_skip(self, reason: str) -> None:
        self.skip_reasons[reason] = self.skip_reasons.get(reason, 0) + 1


def open_dump(path: Path) -> BinaryIO:
    """The dump's XML bytes, decompressed as they are read when the file
    starts with the bz2 or gzip magic bytes."""
    with open(path, "rb") as fh:
        magic = fh.read(len(_7Z_MAGIC))
    if magic.startswith(_BZIP2_MAGIC):
        return bz2.open(path, "rb")  # reads every stream of a multistream file
    if magic.startswith(_GZIP_MAGIC):
        import gzip  # imported here, so a run on plain XML does not pay for it

        return gzip.open(path, "rb")
    if magic == _7Z_MAGIC:
        raise ValueError(f"{path} is a 7z archive: decompress it first and pass the XML file")
    return open(path, "rb")


def parse_timestamp(value: str) -> datetime:
    ts = datetime.fromisoformat(value.strip().replace("Z", "+00:00"))
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


_FIELDS = {
    ("page", "id"): "page_id",
    ("page", "title"): "page_title",
    ("revision", "id"): "revision_id",
    ("revision", "timestamp"): "timestamp",
    ("revision", "text"): "wikitext",
    ("contributor", "username"): "username",
    ("contributor", "id"): "user_id",
    ("contributor", "ip"): "ip",
}


def _joined(fields: dict, field: str) -> str:
    return "".join(fields.get(field, ())).strip()


class _DumpHandler:
    """Reads the elements in ``_FIELDS`` into a page's and a revision's
    dicts of text parts, and completes a record at each ``</revision>``.

    The character data handler is the current field's ``list.append``,
    set in ``start`` and cleared in ``end``. That is safe because, with
    ``buffer_text``, expat flushes its buffered text before it calls any
    start or end handler: each field gets exactly its own text, however
    many buffers it spans, and the whitespace between elements never
    reaches Python.
    """

    def __init__(self, report: RunReport):
        self.report = report
        self.stack: list[str] = []
        self.page: dict[str, list[str]] = {}
        self.rev: dict[str, object] = {}  # text parts, and "<name> deleted" marks
        self.completed: list[RevisionRecord] = []
        self.parser = xml.parsers.expat.ParserCreate()
        self.parser.buffer_text = True
        self.parser.StartElementHandler = self.start
        self.parser.EndElementHandler = self.end

    def start(self, name: str, attrs: dict) -> None:
        parent = self.stack[-1] if self.stack else ""
        self.stack.append(name)
        if name == "page":
            self.page = {}
        elif name == "revision":
            self.rev = {}
        elif attrs.get("deleted") == "deleted":  # <contributor> or <text>
            self.rev[f"{name} deleted"] = True
        field = _FIELDS.get((parent, name))
        if field is not None:
            fields = self.page if parent == "page" else self.rev
            self.parser.CharacterDataHandler = fields.setdefault(field, []).append

    def end(self, name: str) -> None:
        self.stack.pop()
        self.parser.CharacterDataHandler = None
        if name == "revision":
            self._finish_revision()

    def _finish_revision(self) -> None:
        rev = self.rev
        page_id = _joined(self.page, "page_id")
        rev_id = _joined(rev, "revision_id")
        ts_raw = _joined(rev, "timestamp")
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
        if "text deleted" in rev:
            self.report.record_skip("text_deleted")
            return
        username = _joined(rev, "username")
        ip = _joined(rev, "ip")
        if "contributor deleted" in rev or (not username and not ip):
            user_text = DELETED_USER_SENTINEL
            user_id = None
        elif username:
            user_text = username
            raw_uid = _joined(rev, "user_id")
            # isdecimal, not isdigit: "²" is a digit that int() refuses
            user_id = int(raw_uid) if raw_uid.isdecimal() else None
        else:
            user_text = ip
            user_id = None
        self.report.revisions += 1
        self.completed.append(
            RevisionRecord(
                page_id=page_id,
                page_title=_joined(self.page, "page_title"),
                revision_id=rev_id,
                timestamp=timestamp,
                user_text=user_text,
                user_id=user_id,
                wikitext="".join(rev.get("wikitext", ())),
            )
        )


def parse_dump_stream(stream: BinaryIO, report: Optional[RunReport] = None) -> Iterator[RevisionRecord]:
    """Yield revision records from a decompressed dump, in document order.

    ``report`` (when provided) counts the revisions read and the records
    skipped as the stream is consumed. Where one page ends and the next
    begins is left to the caller.
    """
    handler = _DumpHandler(report if report is not None else RunReport())
    parser = handler.parser

    def parse(chunk: bytes, final: bool) -> None:
        try:
            parser.Parse(chunk, final)
        except xml.parsers.expat.ExpatError as exc:
            raise DumpFormatError(
                f"malformed dump XML at byte offset {parser.ErrorByteIndex}: {exc}"
            ) from exc

    saw_content = False
    while True:
        try:
            chunk = stream.read(_READ_SIZE)
        except EOFError as exc:  # a compressed dump cut short
            raise DumpFormatError(f"truncated dump: {exc}") from exc
        if not chunk:
            break
        saw_content = saw_content or not chunk.isspace()
        parse(chunk, False)
        yield from handler.completed
        handler.completed.clear()
    if saw_content:  # expat refuses a document without an element
        parse(b"", True)
        yield from handler.completed
