"""End-to-end pipeline: dump -> ingest -> sort -> reconstruct -> corpus.

No page's history depends on another page's, so a run reconstructs pages
on every CPU it may use: ``run_pipeline`` runs one process per CPU, by
the CPU affinity and the cgroup v2 CPU quota (one process where
``os.fork`` or ``os.sched_getaffinity`` is missing). The corpus and
``--stats`` files are opened first, so an unwritable output fails before
any work. With N processes, page id ``p`` belongs to process
``zlib.crc32(p.encode()) % N`` (``_owner``), whatever its place in the
dump; a page element without an id belongs to process 0, which counts
its records as skipped. The main process takes the rank of the dump's
first page element and forks the others when ingest reaches the first
page element that is not its own, so a one-page dump forks nothing; each
forked process reads the dump again from its start through a file of its
own. Every process
decompresses the whole dump and expat parses every tag of it, but ingest
builds records only for the process's own pages (the ``reads`` callback
of ``ingest.parse_dump_stream``): another process's page gives no
record, no text and no count. The page loop of ``_reconstruct_share``,
the one place that decides where a page begins, reconstructs every page
it is given. No record crosses between processes: each writes its pages
to its own part file, the main process to the corpus's temporary file
and every other to an anonymous file beside the output, and hands back
its pages' ids and action counts, its ``RunReport`` and its ``--stats``
summary through an anonymous result file. The reports and the summaries
merge exactly, since no page is in two of them. A forked process holds
only the thread that forked it, so ``run_pipeline`` must be called from
a process that runs no other thread, as the CLI is. What a caller
measures in its own process, such as the spans of the benchmark's
``--trace 1`` mode, covers only the main process's pages, in ingest as
in reconstruction.

Within a process, pages are reconstructed one at a time, in dump order,
and each action is serialized as its page emits it: no page's actions are
held in memory, so a process's memory depends on its largest page, not on
the number of pages. The corpus and the ``--stats`` summary are written to
temporary files beside their outputs and renamed into place only when
complete.

The corpus is in canonical order (page_id ascending, numbers compared as
numbers; within-page action order), so it does not depend on the order of
pages in the dump or on the number of processes. Each process keeps the
id of each of its page elements, mapped to the page's action count; its
ingest callback uses them to reject a page that comes back after another
page element (it would be rebuilt from empty state), whether or not the
element between gave records. When only the main process's part holds
actions and its pages are in canonical order, as with one process and a
MediaWiki export, or a one-page dump, the file is renamed as it is.
Otherwise one copy pass writes the header and then every page's byte
range from its part, in canonical order, to a second temporary file, so
the end of such a run needs room for the corpus twice. (The ranges are
found by counting lines in that pass: asking a sink for its position
after every page would flush it every page.)

The dump is read through ``ingest.open_dump``, so it may be plain XML or
a bz2 or gzip file.

A run that cannot complete raises: an ``OSError`` for a missing input, an
unwritable output, stats file or spill directory, or a failed write, and a
``ValueError`` for a malformed or truncated dump, a 7z file, or an output
or stats path that names the input dump (or stats that name the output),
refused before anything is written. A failure in another process is
raised again in the main process as the same exception, at the main
process's next page or at its end. Any failure stops every process: the
main process kills the others, and each of them stops at its next page
once the main process is gone. ``wikitalk reconstruct`` prints the
exception as one ``error:`` line and exits 1. In ``write failed after N
actions``, N counts the actions that the failing process had written:
with one process, every action of the run before the failure.
"""

from __future__ import annotations

import itertools
import json
import os
import tempfile
import zlib
from contextlib import ExitStack, contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, NoReturn, Optional, TextIO

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
    """The paths and memory budget of one ``run_pipeline`` call."""

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


def _cpu_limit(cgroups: Path = Path("/sys/fs/cgroup"), own: Path = Path("/proc/self/cgroup")) -> Optional[int]:
    """The CPUs that the cgroup v2 ``cpu.max`` of this process's group, or
    of a group above it, allows (a quota of 1.5 CPUs allows 2); None where
    no quota is set or none can be read."""
    try:
        path = next(line[3:] for line in own.read_text().splitlines() if line.startswith("0::"))
    except (OSError, StopIteration):
        return None
    group = cgroups / path.strip().lstrip("/")
    limits = []
    for directory in [group, *group.parents]:
        try:
            quota, period = (directory / "cpu.max").read_text().split()
            limits.append(-(-int(quota) // int(period)))
        except (OSError, ValueError):  # no file, or no quota ("max")
            pass
        if directory == cgroups:
            break
    return min(limits, default=None)


def _process_count() -> int:
    """How many processes reconstruct pages: one per CPU the run may use,
    by its CPU affinity and its cgroup's CPU quota."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    count = len(os.sched_getaffinity(0))
    limit = _cpu_limit()
    return count if limit is None else max(1, min(count, limit))


def _owner(page_id: str, count: int) -> int:
    """The rank of the process, of ``count``, that builds page ``page_id``."""
    return zlib.crc32(page_id.encode()) % count


def _reconstruct_share(
    config: PipelineConfig,
    budget: SortBudget,
    report: RunReport,
    sink: TextIO,
    summary: Optional[corpus.Summary],
    count: int,
    rank: Optional[int],
    fork: Optional[Callable[[int], None]],
    poll: Callable[[], None],
) -> dict[str, int]:
    """Read the dump, counting into ``report``, and reconstruct into ``sink``
    (and ``summary``) the pages of process ``rank`` of ``count``: those
    whose id ``_owner`` gives to ``rank``. Ingest builds no record of any
    other page. The main process passes no ``rank`` and a ``fork``: it
    takes the rank of the dump's first page element, and calls
    ``fork(rank)`` from inside ingest at the first page element that is
    not its own. This loop is the one place that decides where a page
    begins and ends: a page is a run of consecutive records with one page
    id. Returns the id of each page element of this process, in dump
    order, mapped to the actions written for it. ``poll`` is called before
    each page, and stops the run by raising."""
    pages: dict[str, int] = {}
    last = None

    def reads(page_id: str) -> bool:
        """Ingest's question at each page element: is it this process's?
        Raises for a page of this process that comes back: one whose id
        follows another page element's id and was seen before. A page
        element without an id changes nothing."""
        nonlocal rank, fork, last
        owner = _owner(page_id, count)
        if rank is None:
            rank = owner
        if owner != rank and fork is not None:
            forking, fork = fork, None
            forking(rank)
        if page_id and page_id != last:
            if owner == rank:
                if page_id in pages:
                    raise DumpFormatError(f"page {page_id} reappears after another page")
                pages[page_id] = 0
            last = page_id
        return owner == rank

    with open_dump(config.input_path) as stream:
        groups = itertools.groupby(parse_dump_stream(stream, report, reads), key=lambda r: r.page_id)
        for page_id, revs in groups:
            poll()
            report.pages += 1
            try:
                pages[page_id] = _process_page(revs, budget, sink, summary)
            except corpus.CorpusWriteError as exc:
                cause = exc.__cause__
                raise corpus.CorpusWriteError(report.actions_written + exc.written, cause) from cause
            report.actions_written += pages[page_id]
    return pages


def _page_process(
    config: PipelineConfig,
    budget: SortBudget,
    rank: int,
    count: int,
    part: BinaryIO,
    result: BinaryIO,
    parent: int,
) -> NoReturn:
    """The body of forked process ``rank``: read the dump from its start,
    reconstruct its pages into ``part`` and pickle into ``result`` either
    their ids and action counts, in dump order, with its run report and
    ``--stats`` summary, or the exception that stopped it. It stops at its
    next page once ``parent`` is gone. It leaves by ``os._exit`` on every
    path, so it runs no cleanup of the blocks it was forked inside, flushes
    no sink it inherited and never resumes the dump that its parent was
    reading."""
    import pickle

    def poll() -> None:
        if os.getppid() != parent:
            raise ChildProcessError("the main process is gone")

    status = 1
    try:
        try:
            sink = open(part.fileno(), "w", encoding="utf-8", closefd=False)
            summary = corpus.Summary() if config.stats_path is not None else None
            report = RunReport()
            pages = _reconstruct_share(config, budget, report, sink, summary, count, rank, None, poll)
            sink.flush()
            outcome = pages, report, summary
        except BaseException as exc:
            outcome = exc
        try:
            data = pickle.dumps(outcome)
        except (pickle.PicklingError, TypeError, AttributeError):  # an exception that won't pickle
            data = pickle.dumps(ChildProcessError(f"{type(outcome).__name__}: {outcome}"))
        result.write(data)
        result.flush()
        status = 0
    finally:
        os._exit(status)


def _outcome(result: BinaryIO, status: int) -> tuple[dict[str, int], RunReport, Optional[corpus.Summary]]:
    """What a reaped page process with wait ``status`` left in ``result``;
    raises the exception that stopped it."""
    import pickle

    result.seek(0)
    try:
        outcome = pickle.load(result)
    except (EOFError, pickle.UnpicklingError):
        code = os.waitstatus_to_exitcode(status)
        raise ChildProcessError(f"a page process ended with status {code} and no result") from None
    if isinstance(outcome, BaseException):
        raise outcome
    return outcome


def _ascending(ids: Iterable[str]) -> bool:
    keys = map(id_order_key, ids)
    return all(a < b for a, b in itertools.pairwise(keys))


def _copy_in_order(sink: TextIO, parts: list[BinaryIO], pages: list[dict[str, int]]) -> None:
    """Replace the file behind ``sink`` with a copy that holds its header
    and then every page in canonical order. ``pages`` holds one dict per
    file, ``sink``'s first and then each of ``parts``'s: the id of each
    page in that file, in its order, mapped to its action count (one line
    per action). A file whose pages are in canonical order, as a MediaWiki
    export lists them, is merged as it is; only the pages of a file that
    are not are sorted. One page's bytes are in memory at a time."""
    import heapq
    from array import array

    sink.flush()
    path = Path(sink.name)
    with open(path, "rb") as own, replacing(path) as ordered:
        sources = [own, *parts]
        header = own.readline()
        for part in parts:
            part.seek(0)
        ids, offsets = [], []  # per file: its page ids, and where each page starts and the last one ends
        for source, counts in zip(sources, pages):
            starts = array("q", [source.tell()])
            for count in counts.values():
                for _ in range(count):
                    source.readline()
                starts.append(source.tell())
            ids.append(list(counts))
            offsets.append(starts)

        def key(page):
            number, index = page
            return id_order_key(ids[number][index])

        runs = []
        for number, file_ids in enumerate(ids):
            run = range(len(file_ids))
            if not _ascending(file_ids):
                run = sorted(run, key=lambda index: key((number, index)))
            runs.append(zip(itertools.repeat(number), run))
        ordered.buffer.write(header)
        for number, index in heapq.merge(*runs, key=key):
            source, starts = sources[number], offsets[number]
            source.seek(starts[index])
            ordered.buffer.write(source.read(starts[index + 1] - starts[index]))


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
    with output as sink, stats_file as stats_sink, ExitStack() as files:
        sink.write(corpus.SCHEMA_HEADER + "\n")
        sink.flush()
        count = _process_count()

        parts: list[BinaryIO] = []
        results: list[BinaryIO] = []
        parent = os.getpid()
        running: dict[int, int] = {}  # pid to the index of its part
        outcomes: dict[int, tuple[dict[str, int], RunReport, Optional[corpus.Summary]]] = {}

        def anonymous() -> BinaryIO:
            return files.enter_context(tempfile.TemporaryFile(dir=config.output_path.parent))

        def reap(flags: int) -> None:
            """Reap the page processes that have ended (all of them, unless
            ``flags`` has ``os.WNOHANG``); raises the first one's failure."""
            for pid, number in list(running.items()):
                done, status = os.waitpid(pid, flags)
                if done == pid:
                    del running[pid]
                    outcomes[number] = _outcome(results[number], status)

        def fork(rank: int) -> None:
            """Fork a page process for every rank but the main process's
            ``rank``."""
            import pickle  # loaded here once, not again in every forked process

            for other in range(count):
                if other != rank:
                    parts.append(anonymous())
                    results.append(anonymous())
                    pid = os.fork()
                    if pid == 0:
                        _page_process(config, budget, other, count, parts[-1], results[-1], parent)
                    running[pid] = len(parts) - 1

        def poll() -> None:
            """Before each of the main process's pages: raise the failure of
            any page process that has ended."""
            reap(os.WNOHANG)

        try:
            pages = _reconstruct_share(config, budget, report, sink, summary, count, None, fork, poll)
            reap(0)
        except BaseException:
            import signal

            for pid in running:
                os.kill(pid, signal.SIGKILL)
            for pid in running:
                os.waitpid(pid, 0)
            raise
        written_here = report.actions_written
        shares = [pages]
        for number in range(len(parts)):
            part_pages, part_report, part_summary = outcomes[number]
            shares.append(part_pages)
            report.merge(part_report)
            if summary is not None:
                summary.merge(part_summary)
        if report.actions_written > written_here or not _ascending(pages):
            _copy_in_order(sink, parts, shares)
        if stats_sink is not None:
            json.dump(summary.stats(), stats_sink, indent=2)
            stats_sink.write("\n")

    return report
