"""End-to-end pipeline: dump -> ingest -> sort -> reconstruct -> corpus.

Pages are independent units of work and may be processed by a pool of
workers; the final corpus is always emitted in canonical order (page_id
ascending, numbers compared as numbers; within-page action order), so the
output is byte-identical for any worker count.
"""

from __future__ import annotations

import itertools
import json
import logging
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

from wikitalk import corpus
from wikitalk.extsort import (
    DEFAULT_MAX_IN_MEMORY,
    SortBudget,
    SortStats,
    SpillDirectoryError,
    ensure_spill_directory,
    sort_revisions,
)
from wikitalk.ingest import DumpFormatError, IngestTally, RevisionRecord, parse_dump_stream
from wikitalk.reconstruct import Reconstructor, reconstruct_page

logger = logging.getLogger(__name__)


@dataclass
class PipelineConfig:
    input_path: Path
    output_path: Path
    workers: int = 1
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
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass
class PipelineReport:
    pages: int = 0
    actions_written: int = 0
    ingest: IngestTally = field(default_factory=IngestTally)
    skipped_revisions: int = 0
    incidents: list[str] = field(default_factory=list)


def _process_page(page_revisions: Iterable[RevisionRecord], config: PipelineConfig):
    budget = SortBudget(
        max_in_memory_revisions=config.max_in_memory_revisions,
        spill_directory=config.spill_dir,
    )
    recon = Reconstructor()
    ordered = sort_revisions(iter(page_revisions), budget, SortStats())
    actions = list(reconstruct_page(ordered, recon))
    return actions, recon.tally.skipped_revisions


_DIGIT_RUNS_RE = re.compile(r"[0-9]+|[^0-9]+")


def _page_order_key(page_id: str) -> tuple:
    """Natural order of page ids: digit runs compare as integers, so page 9
    precedes page 10 and ``tree2`` precedes ``tree10``. The id itself breaks
    ties such as ``7`` and ``07``."""
    runs = tuple(
        (0, int(run), "") if "0" <= run[0] <= "9" else (1, 0, run)
        for run in _DIGIT_RUNS_RE.findall(page_id)
    )
    return runs, page_id


def _page_groups(records: Iterable[RevisionRecord]):
    """Group consecutive records by page; a page id that comes back after
    another page would otherwise be reconstructed twice from empty state."""
    seen: set[str] = set()
    for page_id, revs in itertools.groupby(records, key=lambda r: r.page_id):
        if page_id in seen:
            raise DumpFormatError(f"page {page_id} reappears after another page")
        seen.add(page_id)
        yield page_id, revs


def run_pipeline(config: PipelineConfig) -> PipelineReport:
    """Run the full reconstruction; raises on fatal input/output problems."""
    report = PipelineReport()
    if not config.input_path.exists():
        raise FileNotFoundError(f"input dump not found: {config.input_path}")
    ensure_spill_directory(
        SortBudget(
            max_in_memory_revisions=config.max_in_memory_revisions,
            spill_directory=config.spill_dir,
        )
    )

    results: dict[str, list] = {}
    with open(config.input_path, "rb") as stream:
        records = parse_dump_stream(stream, tally=report.ingest)
        groups = _page_groups(records)
        if config.workers == 1:
            # stream each page group straight into the sorter
            for page_id, revs in groups:
                actions, skipped = _process_page(revs, config)
                results[page_id] = actions
                report.skipped_revisions += skipped
                report.pages += 1
        else:
            with ThreadPoolExecutor(max_workers=config.workers) as pool:
                futures = [
                    (page_id, pool.submit(_process_page, list(revs), config))
                    for page_id, revs in groups
                ]
                for page_id, future in futures:
                    actions, skipped = future.result()
                    results[page_id] = actions
                    report.skipped_revisions += skipped
                    report.pages += 1

    all_actions = []
    for page_id in sorted(results, key=_page_order_key):
        all_actions.extend(results[page_id])

    with open(config.output_path, "w", encoding="utf-8") as sink:
        report.actions_written = corpus.write_actions(iter(all_actions), sink)

    if config.stats_path is not None:
        stats = corpus.summarize(iter(all_actions))
        with open(config.stats_path, "w", encoding="utf-8") as fh:
            json.dump(stats.to_dict(), fh, indent=2)
            fh.write("\n")

    return report


def run_pipeline_cli(config: PipelineConfig) -> int:
    """CLI wrapper: returns a process exit status instead of raising."""
    try:
        report = run_pipeline(config)
    except (DumpFormatError, SpillDirectoryError, OSError, ValueError) as exc:
        logger.error("pipeline failed: %s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if report.ingest.skipped or report.skipped_revisions:
        print(
            f"completed with {report.ingest.skipped} skipped dump records "
            f"({report.ingest.skip_reasons}) and {report.skipped_revisions} "
            "resynced revisions",
            file=sys.stderr,
        )
    print(
        f"pages={report.pages} revisions={report.ingest.revisions} "
        f"actions={report.actions_written}",
        file=sys.stderr,
    )
    return 0
