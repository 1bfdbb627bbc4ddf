"""Streaming reader for MediaWiki page-revision history dumps.

``open_dump`` opens a dump file as plain XML or compressed as Wikimedia
publishes it: a bz2 file (multistream too) or a gzip file, told apart by
their first bytes and decompressed as they are read. A 7z file is refused.

``parse_dump_stream`` consumes the export XML (the pages-meta-history
shape) and yields one record per ``<revision>`` element in document order.
It reads the page's ``<id>``, ``<ns>`` and ``<title>``, the revision's
``<id>`` and ``<timestamp>``, and the contributor's ``<username>``,
``<id>`` and ``<ip>``, one row each of ``_FIELDS``, plus the revision's
``<text>`` and the ``deleted`` attribute of ``<contributor>`` and
``<text>``. Expat's character data handler is set only while one of the
``_FIELDS`` elements is open, so the text of every other element
(``<siteinfo>``, ``<comment>``, ``<sha1>``, ...) and the whitespace
between elements never reach Python.

Expat parses every tag, but not the ``<text>`` payloads, which are most
of a dump's bytes: before each read goes to expat, the payload of every
``<text>`` element is cut out of it with ``bytes.find``, and expat gets
the element's start tag and ``</text>`` with nothing between. MediaWiki
writes ``<`` in text as ``&lt;``, so a payload runs to the next ``<``,
which must begin ``</``. The payload is decoded as expat would decode it
(``_text``). What expat reads inside ``<text>`` but MediaWiki never
writes is refused: CDATA sections, comments, processing instructions and
elements, an encoding other than UTF-8, and entities declared in a
DOCTYPE.

The dump is fed to expat ``_READ_SIZE`` (64 KiB) at a time, and the
records a chunk completes are yielded before the next chunk is read, so
the records in flight are those of one chunk of dump text plus the
revision it ends inside. Records missing a page id, a revision id or a
parseable timestamp are skipped and counted (pages without ids could not
be told apart), and so are revisions whose text an administrator hid
(``<text deleted="deleted">``): their text is unknown, not empty.
Suppressed contributors are kept with a sentinel name so their deletions
stay attributable. A page in an even namespace (an article, a user page)
gives no record, and each of its revisions is counted as skipped; a page
without ``<ns>`` is read.

A caller that builds only some pages passes ``reads``, which is asked at
each ``<page>`` element's first ``<revision>`` whether to read that page.
Expat still parses the tags of a page it refuses, but no handler runs
until the next ``<page>`` except one that waits for it and drops the
page's payloads undecoded: the refused page's text never reaches Python,
and it gives no record and no count.
"""

from __future__ import annotations

import re
import xml.parsers.expat
from collections import deque
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, NamedTuple, Optional

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

    def record_skip(self, reason: str, count: int = 1) -> None:
        self.skip_reasons[reason] = self.skip_reasons.get(reason, 0) + count

    def merge(self, other: RunReport) -> None:
        """Add every count of ``other`` to this report's."""
        self.pages += other.pages
        self.revisions += other.revisions
        self.actions_written += other.actions_written
        for reason, count in other.skip_reasons.items():
            self.record_skip(reason, count)


def open_dump(path: Path) -> BinaryIO:
    """The dump's XML bytes, decompressed as they are read when the file
    starts with the bz2 or gzip magic bytes."""
    with open(path, "rb") as fh:
        magic = fh.read(len(_7Z_MAGIC))
    if magic.startswith(_BZIP2_MAGIC):
        import bz2  # imported here, as gzip is, so a run on plain XML does not pay for it

        return bz2.open(path, "rb")  # reads every stream of a multistream file
    if magic.startswith(_GZIP_MAGIC):
        import gzip

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
    ("page", "ns"): "ns",
    ("page", "title"): "page_title",
    ("revision", "id"): "revision_id",
    ("revision", "timestamp"): "timestamp",
    ("contributor", "username"): "username",
    ("contributor", "id"): "user_id",
    ("contributor", "ip"): "ip",
}

_AFTER_NAME = b" \t\r\n/>"  # what may follow "<text" in its start tag
# a translation table that changes every C0 control but tab, LF and CR (no XML character)
_MOVE_CONTROLS = bytes(i + 32 if i < 32 and i not in b"\t\n\r" else i for i in range(256))
_ENTITIES = {"lt": "<", "gt": ">", "amp": "&", "apos": "'", "quot": '"'}
_reference_re: Optional[re.Pattern] = None  # compiled on first use, not in every run


def _joined(fields: dict, field: str) -> str:
    return "".join(fields.get(field, ())).strip()


def _refused(at: int, what: str) -> DumpFormatError:
    return DumpFormatError(f"malformed dump XML at byte offset {at}: {what} in <text>")


def _text(payload: bytes, at: int) -> str:
    """The character data that expat gives for ``payload``, the body of a
    ``<text>`` element that starts at dump byte offset ``at``: strict UTF-8
    without C0 controls other than tab, LF and CR, without ``]]>`` and
    without U+FFFE or U+FFFF; CR LF and a lone CR read as LF, and then the
    five predefined entities and character references are replaced (so
    ``&#13;`` stays CR). Whatever expat refuses raises, with its offset.
    The checks on ``text`` are ``str`` operations: ``bytes.__contains__``
    costs more than a short payload's search."""
    if payload.translate(_MOVE_CONTROLS) != payload:  # without a control, the same object: no compare
        raise _refused(at + next(i for i, byte in enumerate(payload) if _MOVE_CONTROLS[byte] != byte), "a control character")
    try:
        text = payload.decode()
    except UnicodeDecodeError as exc:
        raise _refused(at + exc.start, "invalid UTF-8") from None
    if ">" in text and "]]>" in text:
        raise _refused(at + payload.index(b"]]>") + 2, "']]>'")
    if not text.isascii() and ("\ufffe" in text or "\uffff" in text):
        found = (payload.find(b"\xef\xbf\xbe"), payload.find(b"\xef\xbf\xbf"))
        raise _refused(at + min(i for i in found if i >= 0), "U+FFFE or U+FFFF")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    if "&" not in text:
        return text

    def replace(match: re.Match) -> str:
        name, decimal, hexadecimal = match.groups()
        if name:
            return _ENTITIES[name]
        number = int(decimal) if decimal else int(hexadecimal, 16) if hexadecimal else 0
        if number in (9, 10, 13) or 32 <= number < 0xD800 or 0xE000 <= number < 0xFFFE or 0xFFFF < number < 0x110000:
            return chr(number)
        index = -1
        for _ in range(text.count("&", 0, match.start()) + 1):  # the same "&" in the bytes
            index = payload.find(b"&", index + 1)
        raise _refused(at + index, f"the reference {match.group()!r}")

    global _reference_re
    if _reference_re is None:
        _reference_re = re.compile(r"&(?:(lt|gt|amp|apos|quot)|#([0-9]+)|#x([0-9a-fA-F]+));|&[^&;]{0,32};?")
    return _reference_re.sub(replace, text)


class _DumpHandler:
    """Reads the elements in ``_FIELDS`` into a page's and a revision's
    dicts of text parts, and completes a record at each ``</revision>``.

    ``feed`` cuts the body of every ``<text>`` element out of each read of
    the dump before expat sees it, and queues it in ``payloads``; expat
    gets the start tag and ``</text>`` with nothing between. The ``text``
    start handler pops the queue and decodes the payload with ``_text``.
    Each queue entry holds the offset at which expat must find its start
    tag, so a ``<text>`` that expat does not read as a tag (in a comment,
    say) fails the run instead of shifting every text after it.

    The character data handler is the current field's ``list.append``,
    set in ``start`` and cleared in ``end``. That is safe because, with
    ``buffer_text``, expat flushes its buffered text before it calls any
    start or end handler: each field gets exactly its own text, however
    many buffers it spans, and the whitespace between elements never
    reaches Python.

    A page that ``reads`` refuses, or one in an even namespace, is left to
    expat: the end and character data handlers are cleared, and one start
    handler pops the page's payloads without decoding them (and counts an
    even namespace's revisions) until the next ``<page>``. (Waiting for
    the next ``<page>``, not for the skipped page's ``</page>``, also
    skips a stray ``<revision>`` between the two, which the owner of the
    page before reads as that page's.)
    """

    def __init__(self, report: RunReport, reads: Optional[Callable[[str], bool]]):
        self.report = report
        self.reads = reads
        self.fresh = False  # a page element has begun and no revision of it yet
        self.skipping: Optional[str] = None  # the reason a skipped page's revisions are counted under
        self.stack: list[str] = []
        self.depth = 0  # the page element's place in ``stack``
        self.page: dict[str, list[str]] = {}
        self.rev: dict[str, object] = {}  # text parts, the text, and "<name> deleted" marks
        self.completed: list[RevisionRecord] = []
        # per <text> element fed to expat: its offset in what expat was fed,
        # the dump offset of its payload, and the payload (None for <text/>)
        self.payloads: deque[tuple[int, int, Optional[bytes]]] = deque()
        self.marks = [(0, 0)]  # the read's cuts: (offset in what expat was fed, bytes cut before it)
        self.held = b""  # the end of the last read, fed with the next one
        self.pieces: Optional[list[bytes]] = None  # an open payload's bytes
        self.tag = b""  # the open payload's start tag, fed when the payload ends
        self.at = 0  # the open payload's dump offset
        self.fed = self.read = 0  # bytes fed to expat, and read from the dump
        self.parser = xml.parsers.expat.ParserCreate()
        self.parser.buffer_text = True
        self.parser.StartElementHandler = self.start
        self.parser.EndElementHandler = self.end
        self.parser.XmlDeclHandler = self._declaration

    def feed(self, chunk: bytes) -> None:
        """Give the next read of the dump to expat, with every ``<text>``
        payload cut out and queued. A payload runs to the first ``<`` after
        its start tag, which must begin ``</``: MediaWiki writes ``<`` in
        text as ``&lt;``. A tag that the read cuts waits for the next read,
        and so does a payload that it leaves open: its pieces are kept,
        only the new bytes are searched, and once its end is read it is
        joined with its start tag and scanned as one."""
        data = self.held + chunk
        self.read += len(chunk)
        base = self.read - len(data)  # the dump offset of data[0]
        if self.pieces is not None:
            if b"<" not in data:
                self.pieces.append(data)
                self.held = b""
                return
            data = b"".join([self.tag, *self.pieces, data])
            base, self.pieces = self.at - len(self.tag), None
        cut = self.marks[-1][1]
        marks = self.marks = [(0, cut)]
        payloads, fed, out = self.payloads, self.fed, []
        start = i = 0  # data[start:] is not fed yet
        while True:
            i = data.find(b"<text", i)
            j = data.find(b">", i) if i >= 0 else -1
            if j < 0:  # keep back what may begin a <text> tag
                stop = data.find(b"<", i if i >= 0 else max(start, len(data) - 4))
                stop = len(data) if stop < 0 else stop
                self.held = data[stop:]
                break
            if data[i + 5] not in _AFTER_NAME:
                i += 5
                continue
            if data[j - 1] == 0x2F:  # <text .../> has no payload
                payloads.append((fed + i - start, 0, None))
                i = j
                continue
            k = data.find(b"<", j + 1)
            if k < 0 or k + 1 == len(data):  # the payload goes on in the next read
                stop, self.tag, self.at = i, data[i : j + 1], base + j + 1
                self.pieces = [data[j + 1 :] if k < 0 else data[j + 1 : k]]
                self.held = b"" if k < 0 else b"<"
                break
            if data[k + 1] != 0x2F:
                raise DumpFormatError(f"malformed dump XML at byte offset {base + k}: '<' in <text>")
            out.append(data[start : j + 1])
            fed += j + 1 - start
            payloads.append((fed + i - j - 1, base + j + 1, data[j + 1 : k]))
            cut += k - j - 1
            marks.append((fed, cut))
            start = i = k
        out.append(data[start:stop])
        self.fed = fed + stop - start
        self.parse(b"".join(out), False)

    def finish(self) -> None:
        """Feed expat what the last read held back, and end the document."""
        if self.pieces is not None:
            raise DumpFormatError(f"malformed dump XML at byte offset {self.read}: no end to <text>")
        self.parse(self.held, True)

    def parse(self, data: bytes, final: bool) -> None:
        try:
            self.parser.Parse(data, final)
        except xml.parsers.expat.ExpatError as exc:
            raise DumpFormatError(f"malformed dump XML at byte offset {self.offset(self.parser.ErrorByteIndex)}: {exc}") from exc

    def offset(self, index: int) -> int:
        """The dump offset of byte ``index`` of what expat was fed, for an
        index in the current read."""
        return index + next(cut for fed, cut in reversed(self.marks) if fed <= index)

    def _declaration(self, version: str, encoding: Optional[str], standalone: int) -> None:
        if encoding is not None and encoding.lower() not in ("utf-8", "utf8"):
            raise DumpFormatError(f"malformed dump XML at byte offset 0: the encoding {encoding} is not UTF-8")

    def _payload(self) -> tuple[int, Optional[bytes]]:
        """The queued payload of the ``<text>`` tag that expat is at, and
        its dump offset."""
        here = self.parser.CurrentByteIndex
        fed, at, payload = self.payloads.popleft() if self.payloads else (-1, 0, None)
        if fed != here:
            raise DumpFormatError(
                f"malformed dump XML at byte offset {self.offset(here)}: a <text> tag that was not cut"
                " (one in a comment, a CDATA section or a declaration, or in an encoding other than UTF-8)"
            )
        return at, payload

    def _data_in_text(self, data: str) -> None:
        """Character data inside a ``<text/>``: its start tag ended after
        the ``/>`` where ``feed`` saw it end (one in a quoted attribute)."""
        raise DumpFormatError(
            f"malformed dump XML at byte offset {self.offset(self.parser.CurrentByteIndex)}: text in a <text/> element"
        )

    def start(self, name: str, attrs: dict) -> None:
        parent = self.stack[-1] if self.stack else ""
        self.stack.append(name)
        if name == "page":
            self.page = {}
            self.fresh = True
            self.depth = len(self.stack) - 1
        elif name == "revision":
            self.rev = {}
            if self.fresh:
                self.fresh = False
                if self.reads is not None and not self.reads(_joined(self.page, "page_id")):
                    self._skip_page(None)
                    return
                ns = _joined(self.page, "ns")
                if ns.removeprefix("-").isdecimal() and int(ns) % 2 == 0:
                    self._skip_page("not_talk_namespace")
        elif name == "text":
            at, payload = self._payload()
            if payload is None:
                self.parser.CharacterDataHandler = self._data_in_text
            text = _text(payload, at) if payload else ""
            if parent == "revision":
                self.rev["wikitext"] = text
                if attrs.get("deleted") == "deleted":
                    self.rev["text deleted"] = True
            return
        elif attrs.get("deleted") == "deleted":  # <contributor>
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

    def _skip_page(self, reason: Optional[str]) -> None:
        """Leave the page to expat up to the next ``<page>``, counting its
        revisions under ``reason`` when there is one."""
        del self.stack[self.depth :]
        self.skipping = reason
        if reason is not None:
            self.report.record_skip(reason)
        self.parser.StartElementHandler = self._start_skipped
        self.parser.CharacterDataHandler = None
        self.parser.EndElementHandler = None

    def _start_skipped(self, name: str, attrs: dict) -> None:
        if name == "text":
            self._payload()
        elif name == "revision" and self.skipping is not None:
            self.report.record_skip(self.skipping)
        elif name == "page":
            self.parser.StartElementHandler = self.start
            self.parser.EndElementHandler = self.end
            self.start(name, attrs)

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
                wikitext=rev.get("wikitext", ""),
            )
        )


def parse_dump_stream(
    stream: BinaryIO,
    report: Optional[RunReport] = None,
    reads: Optional[Callable[[str], bool]] = None,
) -> Iterator[RevisionRecord]:
    """Yield revision records from a decompressed dump, in document order.

    ``report`` (when provided) counts the revisions read and the records
    skipped as the stream is consumed. ``reads`` (when provided) is called
    with the page id (``""`` for a page without one) once per ``<page>``
    element, at its first ``<revision>``; when it returns False, that
    element gives no record and no count, and its text never reaches
    Python, though expat still parses its tags. ``reads`` may raise to stop
    the parse. Where one page ends and the next begins is left to the
    caller.
    """
    handler = _DumpHandler(report if report is not None else RunReport(), reads)
    saw_content = False
    while True:
        try:
            chunk = stream.read(_READ_SIZE)
        except EOFError as exc:  # a compressed dump cut short
            raise DumpFormatError(f"truncated dump: {exc}") from exc
        if not chunk:
            break
        saw_content = saw_content or not chunk.isspace()
        handler.feed(chunk)
        yield from handler.completed
        handler.completed.clear()
    if saw_content:  # expat refuses a document without an element
        handler.finish()
        yield from handler.completed
