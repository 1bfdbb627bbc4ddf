"""Temporal sorting of one page's revisions within a memory budget.

Small pages sort in memory; larger ones spill sorted runs of at most
``max_in_memory_revisions`` records to disk and k-way merge them. When more
than ``MAX_OPEN_RUNS`` runs exist, the oldest runs are first merged into
longer ones (a cascade merge) until no more than that many remain, so the
number of open files and resident records stays bounded however long the
history is. Both paths produce the same sequence: ascending
(timestamp, revision_id), ties resolved by revision id so output is
reproducible.

The budget bounds the revision records a whole run holds, not only the
sort's: ingest hands over the records of one 64 KiB chunk of dump text at a
time, and the pipeline keeps no actions, so the records resident at once are
the ``max_in_memory_revisions`` in the sort buffer (or one per open run while
merging) plus those of one chunk.
"""

from __future__ import annotations

import heapq
import os
import pickle
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional

from wikitalk.ingest import RevisionRecord

DEFAULT_MAX_IN_MEMORY = 100_000
MAX_OPEN_RUNS = 64


class SpillDirectoryError(Exception):
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
    records: int = 0
    runs_spilled: int = 0
    peak_in_memory_records: int = 0

    def _track(self, resident: int) -> None:
        if resident > self.peak_in_memory_records:
            self.peak_in_memory_records = resident


def _write_run(records: Iterable[RevisionRecord], directory: Path) -> Path:
    fd, name = tempfile.mkstemp(dir=directory, prefix="wikitalk-run-", suffix=".bin")
    with os.fdopen(fd, "wb") as fh:
        # One pickle per record, here and in _read_run: a shared Pickler or
        # Unpickler memo would keep every record it handled alive.
        for rec in records:
            pickle.dump(rec, fh, protocol=pickle.HIGHEST_PROTOCOL)
    return Path(name)


def _read_run(path: Path) -> Iterator[RevisionRecord]:
    with open(path, "rb") as fh:
        while True:
            try:
                yield pickle.load(fh)
            except EOFError:
                return


def _merge(run_paths: list[Path]) -> Iterator[RevisionRecord]:
    return heapq.merge(*(_read_run(p) for p in run_paths), key=lambda r: r.sort_key)


def sort_revisions(
    revisions: Iterable[RevisionRecord],
    budget: SortBudget,
    stats: Optional[SortStats] = None,
) -> Iterator[RevisionRecord]:
    """Yield one page's revisions in ascending (timestamp, revision_id) order.

    Spill files are private to this call and removed once fully merged.
    """
    stats = stats if stats is not None else SortStats()
    directory = budget.spill_directory
    limit = budget.max_in_memory_revisions

    buffer: list[RevisionRecord] = []
    run_paths: list[Path] = []
    try:
        for rec in revisions:
            stats.records += 1
            buffer.append(rec)
            stats._track(len(buffer))
            if len(buffer) >= limit:
                buffer.sort(key=lambda r: r.sort_key)
                run_paths.append(_write_run(buffer, directory))
                stats.runs_spilled += 1
                buffer = []
        buffer.sort(key=lambda r: r.sort_key)
        if not run_paths:
            yield from buffer
            return
        if buffer:
            run_paths.append(_write_run(buffer, directory))
            stats.runs_spilled += 1
            buffer = []
        # Cascade: merge the oldest not yet merged runs, a group at a time,
        # into one run that takes the group's place. Keeping run order keeps
        # the merge stable for records with equal sort keys, as in memory.
        pos = 0
        while len(run_paths) > MAX_OPEN_RUNS:
            if pos >= len(run_paths) - 1:
                pos = 0  # the merged runs now outnumber the limit: start again
            size = min(len(run_paths) - MAX_OPEN_RUNS + 1, MAX_OPEN_RUNS)
            group = run_paths[pos : pos + size]
            stats._track(len(group))
            run_paths[pos : pos + len(group)] = [_write_run(_merge(group), directory)]
            for path in group:
                path.unlink()
            pos += 1
        stats._track(len(run_paths) + 1)
        yield from _merge(run_paths)
    finally:
        for path in run_paths:
            path.unlink(missing_ok=True)
