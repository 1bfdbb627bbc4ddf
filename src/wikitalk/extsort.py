"""Temporal sorting of one page's revisions within a memory budget.

Small pages sort in memory; larger ones spill sorted runs of at most
``max_in_memory_revisions`` records to disk and k-way merge them. Both paths
produce the same sequence: ascending ``RevisionRecord.sort_key``
(timestamp, then revision id in natural order, so output is reproducible),
and records with equal keys in input order.

A sort that spills opens one anonymous file (``tempfile.TemporaryFile`` in
the spill directory; on Linux it never has a name, so even a killed process
leaves nothing behind) at its first spill and closes it when the sort ends,
fails or is closed early. Each run is appended to that file and kept as a
``(start, end)`` byte range, and is read back with ``os.pread`` (POSIX) one
record at a time, so a merge holds no file, descriptor or read buffer per
run. A record is stored as an 8-byte length prefix and a pickle of its
fields as a plain tuple, with the timestamp as its ``isoformat()`` string:
``datetime.fromisoformat`` gives back the same value and ``utcoffset()``
for UTC (as ``timezone.utc``), fixed offsets and naive timestamps.

When more than ``MAX_OPEN_RUNS`` runs exist, the oldest runs are first
merged into longer ones (a cascade merge), each appended to the file as a
new run, until no more than that many remain, so the records resident
during a merge stay bounded however long the history is. The ranges a
cascade has consumed stay in the file until the sort ends, so the file
holds at most (1 + cascade passes) times the spilled bytes. No cascade
happens below ``MAX_OPEN_RUNS`` runs, which at the default budget means
below 6.4M revisions of one page.

The budget counts revisions, not bytes, but a buffered revision need not
keep its full text. While a buffer's sort keys arrive non-decreasing, as a
dump lists a page's revisions, each revision is stored against the one
before it as ``(head, tail, middle)``: its text is the previous text's
first ``head`` characters, then ``middle``, then the previous text's last
``tail`` characters. ``head`` and ``tail`` are found in whole steps of
``_GRAIN`` characters, and a text shorter than that is kept whole. A buffer
(the whole page, or one spilled run) leaves through one decoder that
rebuilds the texts in arrival order and drops each entry as it decodes it.
A buffer still in order is already sorted and leaves one record at a time,
so the sort holds the edits and about one full text, however long the
page's history. A buffer that went out of order is decoded and then
sorted, so it holds the full texts of all its revisions, as before; its
revisions after the first out-of-order key are kept whole, since encoding
them would not lower that peak.

The budget bounds the revision records a whole run holds, not only the
sort's: ingest hands over the records of one 64 KiB chunk of dump text at a
time, and the pipeline keeps no actions, so the records resident at once are
the ``max_in_memory_revisions`` in the sort buffer (or one per run while
merging) plus those of one chunk.
"""

from __future__ import annotations

import operator
import os
import struct
import tempfile
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Optional

from wikitalk.ingest import RevisionRecord

DEFAULT_MAX_IN_MEMORY = 100_000
MAX_OPEN_RUNS = 64
# Shared ends are found in whole steps of this many characters: any split
# rebuilds the text, and a coarse one is found with a few C comparisons.
_GRAIN = 256

_LENGTH = struct.Struct("<Q")
_sort_key = operator.attrgetter("sort_key")


class SpillDirectoryError(OSError):
    pass


@dataclass
class SortBudget:
    """The sort's memory limit and spill directory. The directory (the
    system temporary directory by default) is created and probed once,
    here; an unwritable one is fatal before any input is read."""

    max_in_memory_revisions: int = DEFAULT_MAX_IN_MEMORY
    spill_directory: Optional[Path] = None

    def __post_init__(self):
        if self.max_in_memory_revisions < 2:
            raise ValueError("max_in_memory_revisions must be >= 2")
        directory = Path(self.spill_directory or tempfile.gettempdir())
        try:
            directory.mkdir(parents=True, exist_ok=True)
            probe = tempfile.NamedTemporaryFile(dir=directory, prefix="wikitalk-probe-", delete=True)
            probe.close()
        except OSError as exc:
            raise SpillDirectoryError(f"spill directory {directory} is not writable: {exc}") from exc
        self.spill_directory = directory


@dataclass
class SortStats:
    """What one sort call spilled and held at most."""

    runs_spilled: int = 0
    peak_in_memory_records: int = 0

    def _track(self, resident: int) -> None:
        if resident > self.peak_in_memory_records:
            self.peak_in_memory_records = resident


def _write_run(records: Iterable[RevisionRecord], spill: BinaryIO) -> tuple[int, int]:
    """Append ``records`` to ``spill``; returns the run's byte range."""
    import pickle

    start = spill.tell()
    for rec in records:
        # One pickle per record, here and in _read_run: a shared Pickler or
        # Unpickler memo would keep every record it handled alive.
        data = pickle.dumps(
            (*rec[:3], rec.timestamp.isoformat(), *rec[4:]), protocol=pickle.HIGHEST_PROTOCOL
        )
        spill.write(_LENGTH.pack(len(data)))
        spill.write(data)
    spill.flush()
    return start, spill.tell()


def _read_run(fd: int, start: int, end: int) -> Iterator[RevisionRecord]:
    """The records of the run at ``[start, end)`` of ``fd``. Each ``pread``
    reads one record and the length prefix of the next."""
    import pickle

    (size,) = _LENGTH.unpack(os.pread(fd, _LENGTH.size, start))
    pos = start + _LENGTH.size
    while True:
        data = os.pread(fd, size + _LENGTH.size, pos)
        # pickle.loads stops at the pickle's end, before the next prefix
        page_id, page_title, revision_id, timestamp, *rest = pickle.loads(data)
        yield RevisionRecord(
            page_id, page_title, revision_id, datetime.fromisoformat(timestamp), *rest
        )
        pos += size + _LENGTH.size
        if pos > end:
            return
        (size,) = _LENGTH.unpack_from(data, size)


def _merge(runs: list[tuple[int, int]], fd: int) -> Iterator[RevisionRecord]:
    import heapq

    return heapq.merge(*(_read_run(fd, *run) for run in runs), key=_sort_key)


def _top_step(limit: int) -> int:
    """The largest power of two times ``_GRAIN`` up to ``limit`` (less than
    ``_GRAIN`` when ``limit`` is)."""
    return _GRAIN << (limit // _GRAIN).bit_length() >> 1


def _encoded(rec: RevisionRecord, prev: str) -> RevisionRecord:
    """``rec`` with its text as ``(head, tail, middle)`` against ``prev``
    (see the module docstring), or ``rec`` itself when the two share no
    whole grain at either end. Each end is a binary search in whole grains,
    about log2(len / _GRAIN) comparisons in C."""
    text = rec.wikitext
    n, m = len(text), len(prev)
    limit = min(n, m)
    head, step = 0, _top_step(limit)
    while step >= _GRAIN:
        if head + step <= limit and prev.startswith(text[head : head + step], head):
            head += step
        step //= 2
    limit -= head
    tail, step = 0, _top_step(limit)
    while step >= _GRAIN:
        if tail + step <= limit and prev.endswith(text[n - tail - step : n - tail], 0, m - tail):
            tail += step
        step //= 2
    if not head and not tail:
        return rec
    return RevisionRecord(*rec[:6], (head, tail, text[head : n - tail]))


def _decoded(buffer: list) -> Iterator[RevisionRecord]:
    """The records of ``buffer`` with their texts rebuilt, in arrival order.
    Each entry is dropped from ``buffer`` as it is decoded, so the buffer
    never holds a record in both forms."""
    text = ""
    for i, rec in enumerate(buffer):
        buffer[i] = None
        if type(rec.wikitext) is str:
            text = rec.wikitext
        else:
            head, tail, middle = rec.wikitext
            text = "".join((text[:head], middle, text[len(text) - tail :]))
            rec = RevisionRecord(*rec[:6], text)
        yield rec


def _ordered(buffer: list, in_order: bool) -> Iterable[RevisionRecord]:
    """The records of ``buffer`` in sort order: rebuilt one at a time when
    their keys arrived in order, else all rebuilt and then sorted."""
    records = _decoded(buffer)
    return records if in_order else sorted(records, key=_sort_key)


def sort_revisions(
    revisions: Iterable[RevisionRecord],
    budget: SortBudget,
    stats: Optional[SortStats] = None,
) -> Iterator[RevisionRecord]:
    """Yield one page's revisions in ascending (timestamp, revision_id) order.

    The spill file is private to this call and closed, which removes it,
    when the sort ends, fails or its generator is closed.
    """
    stats = stats if stats is not None else SortStats()
    limit = budget.max_in_memory_revisions

    # Texts are encoded against prev while the buffer's keys are in order.
    buffer: list[RevisionRecord] = []
    in_order, last_key, prev = True, None, ""
    spill: Optional[BinaryIO] = None
    runs: list[tuple[int, int]] = []
    try:
        for rec in revisions:
            if in_order:
                key = rec.sort_key
                in_order = last_key is None or last_key <= key
                last_key = key
                if in_order:
                    text = rec.wikitext
                    if len(text) >= _GRAIN and len(prev) >= _GRAIN:
                        rec = _encoded(rec, prev)
                    prev = text
            buffer.append(rec)
            stats._track(len(buffer))
            if len(buffer) >= limit:
                if spill is None:
                    spill = tempfile.TemporaryFile(dir=budget.spill_directory)
                runs.append(_write_run(_ordered(buffer, in_order), spill))
                stats.runs_spilled += 1
                buffer, in_order, last_key, prev = [], True, None, ""
        if spill is None:
            yield from _ordered(buffer, in_order)
            return
        if buffer:
            runs.append(_write_run(_ordered(buffer, in_order), spill))
            stats.runs_spilled += 1
            buffer = []
        fd = spill.fileno()
        # Cascade: merge the oldest not yet merged runs, a group at a time,
        # into one run that takes the group's place. Keeping run order keeps
        # the merge stable for records with equal sort keys, as in memory.
        pos = 0
        while len(runs) > MAX_OPEN_RUNS:
            if pos >= len(runs) - 1:
                pos = 0  # the merged runs now outnumber the limit: start again
            size = min(len(runs) - MAX_OPEN_RUNS + 1, MAX_OPEN_RUNS)
            group = runs[pos : pos + size]
            stats._track(len(group))
            runs[pos : pos + len(group)] = [_write_run(_merge(group, fd), spill)]
            pos += 1
        stats._track(len(runs) + 1)
        yield from _merge(runs, fd)
    finally:
        if spill is not None:
            spill.close()
