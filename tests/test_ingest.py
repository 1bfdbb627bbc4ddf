import io
import xml.etree.ElementTree as ET

import pytest

from wikitalk.ingest import (
    DELETED_USER_SENTINEL,
    DumpFormatError,
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


def test_streaming_10k_revisions_bounded_residency():
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
    records = parse_dump_stream(stream, read_size=1 << 20)
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


def test_matches_in_memory_reference_parser():
    ns = "{http://www.mediawiki.org/xml/export-0.10/}"
    root = ET.fromstring(DUMP)
    expected = []
    for page in root.iter(f"{ns}page"):
        pid = page.find(f"{ns}id").text
        for rev in page.iter(f"{ns}revision"):
            expected.append((pid, rev.find(f"{ns}id").text))
    got = [(r.page_id, r.revision_id) for r in parse_dump_stream(_stream(DUMP))]
    assert got == expected


def test_parse_timestamp_handles_offsets():
    assert parse_timestamp("2017-05-01T10:00:00Z").isoformat() == "2017-05-01T10:00:00+00:00"
    assert parse_timestamp("2017-05-01T12:00:00+02:00").isoformat() == "2017-05-01T10:00:00+00:00"
