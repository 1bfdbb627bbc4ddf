import io
import xml.etree.ElementTree as ET

import pytest

from wikitalk import ingest
from wikitalk.ingest import (
    DELETED_USER_SENTINEL,
    DumpFormatError,
    RevisionRecord,
    RunReport,
    parse_dump_stream,
    parse_timestamp,
)

DUMP = """<mediawiki xmlns="http://www.mediawiki.org/xml/export-0.10/">
  <siteinfo><sitename>Test</sitename></siteinfo>
  <page>
    <title>Talk:Alpha</title>
    <ns>1</ns>
    <id>11</id>
    <revision>
      <id>101</id>
      <timestamp>2017-05-01T10:00:00Z</timestamp>
      <contributor><username>alice</username><id>7</id></contributor>
      <text xml:space="preserve">== T ==</text>
    </revision>
    <revision>
      <id>102</id>
      <timestamp>2017-05-01T10:05:00Z</timestamp>
      <contributor><ip>10.1.2.3</ip></contributor>
      <text>== T ==
hello ~~~~</text>
    </revision>
    <revision>
      <id>103</id>
      <timestamp>2017-05-01T10:09:00Z</timestamp>
      <contributor deleted="deleted" />
      <text>== T ==</text>
    </revision>
  </page>
</mediawiki>
"""


def _stream(text: str) -> io.BytesIO:
    return io.BytesIO(text.encode("utf-8"))


def test_three_revisions_document_order():
    records = list(parse_dump_stream(_stream(DUMP)))
    assert [r.revision_id for r in records] == ["101", "102", "103"]
    assert records[0].page_id == "11"
    assert records[0].page_title == "Talk:Alpha"
    assert records[0].user_text == "alice"
    assert records[0].user_id == 7
    assert records[0].wikitext == "== T =="
    assert records[0].timestamp == parse_timestamp("2017-05-01T10:00:00Z")


def test_ip_contributor():
    records = list(parse_dump_stream(_stream(DUMP)))
    assert records[1].user_text == "10.1.2.3"
    assert records[1].user_id is None


def test_suppressed_contributor_gets_sentinel():
    records = list(parse_dump_stream(_stream(DUMP)))
    assert records[2].user_text == DELETED_USER_SENTINEL
    assert records[2].user_id is None


def test_missing_timestamp_skipped_and_tallied():
    dump = DUMP.replace(
        "<timestamp>2017-05-01T10:05:00Z</timestamp>", ""
    )
    tally = RunReport()
    records = list(parse_dump_stream(_stream(dump), tally))
    assert [r.revision_id for r in records] == ["101", "103"]
    assert tally.skipped == 1
    assert tally.skip_reasons == {"missing_timestamp": 1}


def test_missing_revision_id_skipped():
    dump = DUMP.replace("<id>102</id>", "", 1)
    tally = RunReport()
    records = list(parse_dump_stream(_stream(dump), tally))
    assert [r.revision_id for r in records] == ["101", "103"]
    assert tally.skip_reasons == {"missing_revision_id": 1}


def test_revisions_of_pages_without_id_are_skipped():
    """Pages without ``<id>`` would share the page id "" and be rebuilt as
    one page; their revisions are skipped and counted instead."""
    no_id = DUMP.replace("<id>11</id>", "", 1)
    second = no_id[no_id.index("  <page>") : no_id.index("</page>") + len("</page>\n")]
    second = second.replace("Talk:Alpha", "Talk:Beta").replace("<id>10", "<id>20")
    dump = no_id.replace("</mediawiki>", second + DUMP[DUMP.index("  <page>") :])
    tally = RunReport()
    records = list(parse_dump_stream(_stream(dump), tally))
    assert [r.page_id for r in records] == ["11"] * 3
    assert tally.skip_reasons == {"missing_page_id": 6}


def test_malformed_xml_reports_byte_offset():
    broken = DUMP[:200] + "<<<&&&" + DUMP[200:]
    with pytest.raises(DumpFormatError) as err:
        list(parse_dump_stream(_stream(broken)))
    assert "byte offset" in str(err.value)


def test_empty_stream_yields_nothing():
    assert list(parse_dump_stream(_stream(""))) == []
    assert list(parse_dump_stream(_stream("   \n  "))) == []


class CountingStream(io.BytesIO):
    def __init__(self, data: bytes):
        super().__init__(data)
        self.consumed = 0

    def read(self, n=-1):
        chunk = super().read(n)
        self.consumed += len(chunk)
        return chunk


def test_streaming_10k_revisions_bounded_residency(monkeypatch):
    # 10,000 revisions, read with a 1 MiB buffer: every record arrives and
    # the first ones arrive long before the stream has been consumed
    many = DUMP.replace(
        "</page>",
        "".join(
            f"""<revision><id>{200 + i}</id>
            <timestamp>2017-05-02T{i % 24:02d}:{i % 60:02d}:00Z</timestamp>
            <contributor><username>u{i % 13}</username></contributor>
            <text>{"filler words " * 50}</text></revision>"""
            for i in range(10_000)
        )
        + "</page>",
    )
    data = many.encode("utf-8")
    stream = CountingStream(data)
    monkeypatch.setattr(ingest, "_READ_SIZE", 1 << 20)
    records = parse_dump_stream(stream)
    next(records)
    assert stream.consumed < len(data) / 3
    rest = list(records)
    assert len(rest) == 10_002


def test_first_record_arrives_within_two_read_chunks():
    """The records in flight are those of one 64 KiB read chunk of dump
    text, however many small revisions the dump holds: the first record
    arrives before the parser has read two chunks."""
    many = DUMP.replace(
        "</page>",
        "".join(
            f"<revision><id>{200 + i}</id><timestamp>2017-05-02T10:00:00Z</timestamp>"
            f"<contributor><ip>10.0.0.{i % 200}</ip></contributor><text>c{i}</text></revision>"
            for i in range(20_000)
        )
        + "</page>",
    )
    data = many.encode("utf-8")
    stream = CountingStream(data)
    records = parse_dump_stream(stream)
    next(records)
    assert len(data) > 16 * (64 << 10)
    assert stream.consumed <= 2 * (64 << 10)
    assert len(list(records)) == 20_002


def test_non_decimal_user_id_is_none():
    """"²" is a digit that ``int`` refuses: the revision keeps its user and
    gets no user id, and the stream reads on."""
    tally = RunReport()
    records = list(parse_dump_stream(_stream(DUMP.replace("<id>7</id>", "<id>²</id>")), tally))
    assert [(r.user_text, r.user_id) for r in records][0] == ("alice", None)
    assert len(records) == tally.revisions == 3


def _export_dump() -> str:
    """A dump shaped like a real export: a ``<siteinfo>`` header, and pages
    and revisions carrying the elements ingest does not read, whose text
    must reach no field. One revision's text is about 200 KiB of Chinese
    with entity references, so it straddles the 64 KiB reads and expat's
    text buffer."""
    big = "\n".join(
        f"第{i}条评论：维基百科 &amp; 讨论页 &lt;ref&gt; 签名 ~~~~ 末尾" for i in range(3000)
    )
    rev = """
    <revision>
      <id>{rid}</id>
      <parentid>{parent}</parentid>
      <timestamp>2017-05-0{day}T10:00:00Z</timestamp>
      <contributor{cattr}>{who}</contributor>
      <minor/>
      <comment>comment of {rid} with &lt;b&gt;markup&lt;/b&gt;</comment>
      <model>wikitext</model>
      <format>text/x-wiki</format>
      <text bytes="123" xml:space="preserve"{tattr}>{text}</text>
      <sha1>phoiac9h4m842xq45sp7s6u21eteeq1</sha1>
    </revision>"""
    revisions = [
        dict(rid=501, who="<username>Alice</username><id>7</id>", text="\n== Head ==\nhi "),
        dict(rid=502, who="<ip>2001:db8::1</ip>", text=big),
        dict(rid=503, who="<username>李</username><id>²</id>", text="&lt;!-- x --&gt; 你好"),
        dict(rid=504, who="", cattr=' deleted="deleted"', text="gone user"),
        dict(rid=505, who="<username>Bob</username><id>8</id>", tattr=' deleted="deleted"', text=""),
        dict(rid=506, who="<username>Carol</username>", text=""),
    ]
    pages = []
    for pid, title, revs in (
        ("31", "Talk:Alpha &amp; Beta", revisions[:4]),
        ("32", "讨论:首页", revisions[4:]),
    ):
        body = "".join(
            rev.format(**{"parent": r["rid"] - 1, "day": r["rid"] % 10, "cattr": "", "tattr": "", **r})
            for r in revs
        )
        pages.append(
            f"""
  <page>
    <title>{title}</title>
    <ns>1</ns>
    <id>{pid}</id>
    <redirect title="Talk:Elsewhere" />
    <restrictions>edit=sysop</restrictions>{body}
  </page>"""
        )
    return f"""<mediawiki xmlns="http://www.mediawiki.org/xml/export-0.10/" version="0.10" xml:lang="zh">
  <siteinfo>
    <sitename>Wikipedia</sitename>
    <dbname>zhwiki</dbname>
    <base>https://zh.wikipedia.org/wiki/</base>
    <generator>MediaWiki 1.31.0</generator>
    <case>first-letter</case>
    <namespaces>
      <namespace key="0" case="first-letter" />
      <namespace key="1" case="first-letter">Talk</namespace>
    </namespaces>
  </siteinfo>{"".join(pages)}
</mediawiki>
"""


def _reference_records(dump: str) -> list[RevisionRecord]:
    """The records ingest should yield, read with ElementTree from the
    whole document in memory."""
    ns = "{http://www.mediawiki.org/xml/export-0.10/}"
    records = []
    for page in ET.fromstring(dump).iter(f"{ns}page"):
        for rev in page.iter(f"{ns}revision"):
            text, who = rev.find(f"{ns}text"), rev.find(f"{ns}contributor")
            if text.get("deleted") == "deleted":
                continue
            username = who.findtext(f"{ns}username", "").strip()
            user_id = who.findtext(f"{ns}id", "").strip()
            if who.get("deleted") == "deleted":
                user = (DELETED_USER_SENTINEL, None)
            elif username:
                user = (username, int(user_id) if user_id.isdecimal() else None)
            else:
                user = (who.findtext(f"{ns}ip").strip(), None)
            records.append(
                RevisionRecord(
                    page.findtext(f"{ns}id").strip(),
                    page.findtext(f"{ns}title").strip(),
                    rev.findtext(f"{ns}id").strip(),
                    parse_timestamp(rev.findtext(f"{ns}timestamp")),
                    *user,
                    text.text or "",
                )
            )
    return records


def test_matches_in_memory_reference_parser():
    """Every field of every record matches ElementTree's reading, on the
    small dump and on the export dump, whose big text spans several reads
    and which holds every kind of revision the reference tells apart."""
    export = _export_dump()
    for dump in (DUMP, export):
        tally = RunReport()
        got = list(parse_dump_stream(_stream(dump), tally))
        assert got == _reference_records(dump)
        assert tally.revisions == len(got)
    assert len(export.encode("utf-8")) > 3 * (64 << 10)
    assert max(len(r.wikitext.encode("utf-8")) for r in got) > 200 << 10
    assert any("&" in r.wikitext and "<" in r.wikitext for r in got)
    assert [(r.user_text, r.user_id) for r in got] == [
        ("Alice", 7), ("2001:db8::1", None), ("李", None), (DELETED_USER_SENTINEL, None), ("Carol", None)
    ]
    assert tally.skip_reasons == {"text_deleted": 1}


@pytest.mark.parametrize("refused", [set(), {"31"}, {"32"}, {"31", "32"}])
def test_refused_pages_give_no_record_and_no_count(refused):
    """``reads`` is asked once per page element, at its first revision, with
    its page id; a page it refuses gives no record and no count, and the
    pages after it are read as they are without ``reads``."""
    export = _export_dump()
    asked = []

    def reads(page_id):
        asked.append(page_id)
        return page_id not in refused

    tally = RunReport()
    got = list(parse_dump_stream(_stream(export), tally, reads))
    assert asked == ["31", "32"]
    assert got == [r for r in _reference_records(export) if r.page_id not in refused]
    assert tally.revisions == len(got)
    assert tally.skip_reasons == ({} if "32" in refused else {"text_deleted": 1})
    asked.clear()
    assert list(parse_dump_stream(_stream(DUMP.replace("<id>11</id>", "")), RunReport(), reads)) == []
    assert asked == [""]


@pytest.mark.parametrize("refused", ["5", "6"])
def test_refused_revision_outside_its_page_skips_to_the_next_page(refused):
    """A ``<revision>`` after a page that has none is that page's first
    revision: refused, it is skipped up to the next ``<page>``, which is
    read as it would be without ``reads``, to the end of the document."""
    rev = DUMP[DUMP.index("<revision>"):DUMP.index("</revision>") + len("</revision>")]
    dump = f"<mediawiki><page><id>5</id></page>{rev}<page><id>6</id>{rev}</page></mediawiki>"
    tally = RunReport()
    got = list(parse_dump_stream(_stream(dump), tally, lambda page_id: page_id != refused))
    assert [r.page_id for r in got] == [{"5": "6", "6": "5"}[refused]]
    assert tally.revisions == 1


def test_parse_timestamp_handles_offsets():
    assert parse_timestamp("2017-05-01T10:00:00Z").isoformat() == "2017-05-01T10:00:00+00:00"
    assert parse_timestamp("2017-05-01T12:00:00+02:00").isoformat() == "2017-05-01T10:00:00+00:00"
