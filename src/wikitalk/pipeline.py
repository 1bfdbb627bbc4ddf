"""End-to-end pipeline: dump -> ingest -> sort -> reconstruct -> corpus.

Pages are reconstructed one at a time, in dump order, and each action is
serialized as its page emits it: no page's actions are held in memory, so
a run's memory depends on its largest page, not on the number of pages.
The corpus and the ``--stats`` summary are written to temporary files
beside their outputs and renamed into place only when complete.

The corpus is in canonical order (page_id ascending, numbers compared as
numbers; within-page action order), so it does not depend on the order of
pages in the dump. Pages are written in dump order and their action counts
kept by page id, which rejects a page that comes back after another (it
would be rebuilt from empty state); each page's order key is compared with
the previous page's only. When the dump lists its pages in canonical
order, as MediaWiki exports do, the file is renamed as it is. Otherwise one
copy pass writes the header and then the pages' byte ranges in canonical
order to a second temporary file. (The ranges are found by counting lines
in that pass: asking the sink for its position after every page would
flush it every page.)

The dump is read through ``ingest.open_dump``, so it may be plain XML or
a bz2 or gzip file.

A run that cannot complete raises: an ``OSError`` for a missing input, an
unwritable output, stats file or spill directory, or a failed write, and a
``ValueError`` for a malformed or truncated dump, a 7z file, or an output
or stats path that names the input dump (or stats that name the output),
refused before anything is written. ``wikitalk reconstruct`` prints it as
one ``error:`` line and exits 1.
"""

from __future__ import annotations

import itertools
import json
import os
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, TextIO

from wikitalk import corpus
from wikitalk.extsort import DEFAULT_MAX_IN_MEMORY, SortBudget, sort_revisions
from wikitalk.ingest import (
    DumpFormatError,
    RevisionRecord,
    RunReport,
    id_order_key,
    open_dump,
    parse_dump_stream,
)
from wikitalk.reconstruct import reconstruct_page


@dataclass
class PipelineConfig:
    input_path: Path
    output_path: Path
    max_in_memory_revisions: int = DEFAULT_MAX_IN_MEMORY
    spill_dir: Optional[Path] = None
    stats_path: Optional[Path] = None

    def __post_init__(self):
        self.input_path = Path(self.input_path)
        self.output_path = Path(self.output_path)
        if self.spill_dir is not None:
            self.spill_dir = Path(self.spill_dir)
        if self.stats_path is not None:
            self.stats_path = Path(self.stats_path)


def _process_page(
    page_revisions: Iterable[RevisionRecord],
    budget: SortBudget,
    sink: TextIO,
    summary: Optional[corpus.Summary],
) -> int:
    """Reconstruct one page straight into ``sink`` (and ``summary``); returns
    the actions written."""
    ordered = sort_revisions(iter(page_revisions), budget)
    actions = reconstruct_page(ordered)
    if summary is not None:
        actions = summary.fed(actions)
    return corpus.write_actions(actions, sink)


@contextmanager
def replacing(path: Path | str, what: str = "", *inputs: Path | str):
    """A text sink on a new file beside ``path``, renamed over ``path`` when
    the block completes and removed when it fails (an error names ``path``).
    Its mode is what ``open(path, "w")`` would give (0o666 less the umask).
    A ``path`` that is one of ``inputs``, by path or through a symlink, is
    refused with a ``ValueError`` before anything is written; ``what`` names
    ``inputs`` in the message."""
    path = Path(path)
    if path.resolve() in [Path(p).resolve() for p in inputs]:
        raise ValueError(f"refusing to write {path}: it is {what}")
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8") as sink:
            yield sink
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename == str(tmp):
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


def _reorder(sink: TextIO, pages: dict[str, int]) -> None:
    """Replace the file behind ``sink``, which holds the corpus header and
    then ``pages`` (page id to action count, one line per action) in dump
    order, with a copy that holds the header and then the pages in
    canonical order. One page's bytes are in memory at a time."""
    sink.flush()
    path = Path(sink.name)
    with open(path, "rb") as unordered, replacing(path) as ordered:
        header = unordered.readline()
        ranges = []
        end = len(header)
        for page_id, count in pages.items():
            start = end
            end += sum(len(unordered.readline()) for _ in range(count))
            ranges.append((id_order_key(page_id), start, end))
        ordered.buffer.write(header)
        for _, start, end in sorted(ranges):
            unordered.seek(start)
            ordered.buffer.write(unordered.read(end - start))


def run_pipeline(config: PipelineConfig) -> RunReport:
    """Run the full reconstruction; raises on fatal input/output problems."""
    report = RunReport()
    if not config.input_path.exists():
        raise FileNotFoundError(f"input dump not found: {config.input_path}")
    budget = SortBudget(
        max_in_memory_revisions=config.max_in_memory_revisions,
        spill_directory=config.spill_dir,
    )
    summary = corpus.Summary() if config.stats_path is not None else None

    # the output and the stats file are opened before the first page, so an
    # unwritable path fails before any reconstruction work
    output = replacing(config.output_path, "the input dump", config.input_path)
    stats_file = nullcontext()
    if config.stats_path is not None:
        inputs = config.input_path, config.output_path
        stats_file = replacing(config.stats_path, "the input dump or the output", *inputs)
    with output as sink, stats_file as stats_sink:
        sink.write(corpus.SCHEMA_HEADER + "\n")
        pages: dict[str, int] = {}  # page id to actions written, in dump order
        in_order, last_key = True, ()
        with open_dump(config.input_path) as stream:
            records = parse_dump_stream(stream, report)
            for page_id, revs in itertools.groupby(records, key=lambda r: r.page_id):
                if page_id in pages:
                    raise DumpFormatError(f"page {page_id} reappears after another page")
                key = id_order_key(page_id)
                in_order, last_key = in_order and last_key < key, key
                try:
                    pages[page_id] = _process_page(revs, budget, sink, summary)
                except corpus.CorpusWriteError as exc:
                    cause = exc.__cause__
                    raise corpus.CorpusWriteError(report.actions_written + exc.written, cause) from cause
                report.actions_written += pages[page_id]
                report.pages += 1
        if not in_order:
            _reorder(sink, pages)
        if stats_sink is not None:
            json.dump(summary.stats(), stats_sink, indent=2)
            stats_sink.write("\n")

    return report

