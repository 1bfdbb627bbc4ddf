"""Deterministic benchmark inputs built with ``wikitalk.synth``.

Each workload turns a seed into a dump XML file plus the synth gold for
every action the dump should produce. Generated inputs are cached on disk
under a key made of the workload, the seed and a hash of every source file
that generation depends on, so generation is never timed and an input made
by other code is never reused.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import re
import shutil
from dataclasses import dataclass
from datetime import timedelta
from pathlib import Path
from typing import Callable, Optional

from wikitalk import synth
from wikitalk.evalharness import write_gold
from wikitalk.synth import PageScript

# Cached inputs kept per workload; older ones are deleted.
CACHE_KEEP = 4

# The sizes below keep one reconstruct run near 2 s, so that a measurement
# of 35 s holds a dozen runs and its median is steady on a noisy host.

# Every workload runs one worker: the pipeline's workers are threads that
# share the interpreter lock, and on a small shared host two of them measure
# the scheduler more than the program (2 workers took 1.6x as long as one on
# many-pages, and varied more from run to run).
WORKERS = 1


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[int], list[PageScript]]
    shuffle: bool
    # run knob, passed to the CLI as a WIKITALK_* environment variable
    max_mem_revisions: Optional[int] = None


@dataclass(frozen=True)
class Inputs:
    dump: Path
    gold: Path
    pages: int
    revisions: int
    gold_actions: int


# -- growing-page ----------------------------------------------------------

GROWING_COMMENTS = 400


def growing_page(seed: int) -> list[PageScript]:
    """One page, one reply appended per revision: the page text grows to
    about 21k characters, so per-revision cost that scales with page size
    dominates."""
    script, _ = synth.random_tree_script(seed, n_comments=GROWING_COMMENTS, page_id="1")
    return [script]


# -- many-pages --------------------------------------------------------------

MANY_PAGES = 600
MANY_COMMENTS = 8


def many_pages(seed: int) -> list[PageScript]:
    """Many short pages: per-page fixed costs dominate."""
    rng = random.Random(seed)
    return [
        synth.random_tree_script(rng.randrange(1 << 30), n_comments=MANY_COMMENTS, page_id=str(i))[0]
        for i in range(1, MANY_PAGES + 1)
    ]


# -- busy-page ---------------------------------------------------------------

BUSY_REVISIONS = 1_300
# Threads beyond this many, or a page longer than this, get the oldest
# thread archived (deleted with all its comments).
BUSY_MAX_THREADS = 4
BUSY_MAX_CHARS = 4_000
# Deleted comments remembered as candidates for re-insertion; beyond the
# store's 100 entries a re-insertion is an addition, not a restoration.
BUSY_REINSERT_POOL = 150
BUSY_MAX_INDENT = 5
# Revisions are re-timed this far apart so the history spans several
# two-year calendar stages of the external sort.
BUSY_SPACING = timedelta(hours=32)

_WORDS = (
    "sourcing", "neutrality", "notability", "infobox", "lead", "citation",
    "merger", "naming", "history", "images", "scope", "style",
)
_POINT_RE = re.compile(r"point \d+")


def busy_page(seed: int, revisions: int = BUSY_REVISIONS) -> list[PageScript]:
    """One page with heavy churn: one scripted op per revision, covering
    creations, additions, modifications, deletions and restorations, with old
    threads archived so the text stays at a few KB."""
    rng = random.Random(seed)
    serial = itertools.count()
    script = PageScript("1", "Talk:Busy")
    threads: list = []  # live headings, oldest first
    comments: dict[int, list] = {}  # id(heading) -> its live comments
    texts: dict[int, str] = {}  # id(comment) -> its unsigned text
    heading_of: dict[int, object] = {}  # id(comment) -> its heading
    pool: list = []  # deleted comments that may come back, oldest first

    def open_thread():
        heading = script.new_thread(f"Topic {next(serial)} on {rng.choice(_WORDS)}")
        threads.append(heading)
        comments[id(heading)] = []
        return "opener"

    def add():
        heading = rng.choice(threads[-2:])
        candidates = [heading] + [c for c in comments[id(heading)] if c.indent < BUSY_MAX_INDENT]
        target = rng.choice(candidates)
        text = (
            f"Comment {next(serial)} weighs point {rng.randrange(10**6)} "
            f"on the {rng.choice(_WORDS)} question"
        )
        block = script.add_comment(target, text)
        comments[id(heading)].append(block)
        texts[id(block)] = text
        heading_of[id(block)] = heading
        return f"user{rng.randrange(20)}"

    def live_comment():
        heading = rng.choice(threads)
        return rng.choice(comments[id(heading)]) if comments[id(heading)] else None

    def modify():
        block = live_comment()
        if block is None:
            return add()
        text = _POINT_RE.sub(f"point {rng.randrange(10**6)}", texts[id(block)], count=1)
        texts[id(block)] = text
        script.modify_comment(block, text)
        return f"user{rng.randrange(20)}"

    def delete():
        block = live_comment()
        if block is None:
            return add()
        script.delete_comment(block)
        comments[id(heading_of[id(block)])].remove(block)
        pool.append(block)
        del pool[:-BUSY_REINSERT_POOL]
        return f"mod{rng.randrange(3)}"

    def reinsert():
        candidates = [b for b in pool if heading_of[id(b)].alive]
        if not candidates:
            return add()
        block = rng.choice(candidates)
        pool.remove(block)
        back, _ = script.reinsert_comment(block)
        heading = heading_of.pop(id(block))
        texts[id(back)] = texts.pop(id(block))
        heading_of[id(back)] = heading
        comments[id(heading)].append(back)
        return f"user{rng.randrange(20)}"

    def archive():
        heading = threads.pop(0)
        script.delete_thread(heading)
        gone = comments.pop(id(heading))
        pool[:] = [b for b in pool if heading_of[id(b)] is not heading]
        for block in gone:
            del texts[id(block)], heading_of[id(block)]
        return "archiver"

    ops = (open_thread, add, modify, delete, reinsert)
    weights = (4, 45, 20, 17, 14)
    open_thread()
    script.commit(user="opener", user_id=1)
    while len(script.revisions) < revisions:
        if len(threads) > BUSY_MAX_THREADS or len(script.revisions[-1].text) > BUSY_MAX_CHARS:
            user = archive()
        elif not threads:
            user = open_thread()
        else:
            user = rng.choices(ops, weights)[0]()
        script.commit(user=user, user_id=10 + sum(map(ord, user)) % 50)
        # dead blocks that can no longer come back only slow the script down
        keep = {id(b) for b in pool}
        script.blocks = [b for b in script.blocks if b.alive or id(b) in keep]
    for i, rev in enumerate(script.revisions):
        rev.timestamp = synth.BASE_TIME + i * BUSY_SPACING
    return [script]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("growing-page", growing_page, shuffle=False),
        Workload("busy-page", busy_page, shuffle=True, max_mem_revisions=16),
        Workload("many-pages", many_pages, shuffle=True),
    )
}


# -- cache -------------------------------------------------------------------


def source_hash(src_dir: Path) -> str:
    """Hash of the package sources and this file: synth gold depends on the
    tokenizer, cleaner and store as well as on synth itself."""
    digest = hashlib.sha256()
    for path in sorted(src_dir.rglob("*.py")) + [Path(__file__)]:
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _write_inputs(scripts: list[PageScript], directory: Path, shuffle_seed: Optional[int]) -> None:
    synth.write_dump(scripts, directory / "dump.xml", shuffle_seed=shuffle_seed)
    with open(directory / "gold.jsonl", "w", encoding="utf-8") as fh:
        gold_actions = sum(write_gold(s.gold, fh) for s in scripts)
    meta = {
        "pages": len(scripts),
        "revisions": sum(len(s.revisions) for s in scripts),
        "gold_actions": gold_actions,
    }
    (directory / "meta.json").write_text(json.dumps(meta) + "\n", encoding="utf-8")


def _inputs(directory: Path) -> Inputs:
    meta = json.loads((directory / "meta.json").read_text(encoding="utf-8"))
    return Inputs(dump=directory / "dump.xml", gold=directory / "gold.jsonl", **meta)


def prepare(workload: Workload, seed: int, cache_dir: Path, src_dir: Path) -> Inputs:
    """Generate (or reuse) the inputs of one workload and seed."""
    directory = cache_dir / f"{workload.name}-{seed}-{source_hash(src_dir)}"
    if not (directory / "meta.json").exists():
        staging = directory.with_name(directory.name + f".tmp{os.getpid()}")
        shutil.rmtree(staging, ignore_errors=True)
        staging.mkdir(parents=True)
        _write_inputs(workload.generate(seed), staging, seed if workload.shuffle else None)
        shutil.rmtree(directory, ignore_errors=True)
        staging.rename(directory)
        _prune(cache_dir, workload.name, keep=directory)
    os.utime(directory)
    return _inputs(directory)


def walkthrough_inputs(cache_dir: Path, src_dir: Path) -> Inputs:
    """The five-revision walkthrough page, used to time set-up."""
    directory = cache_dir / f"walkthrough-{source_hash(src_dir)}"
    if not (directory / "meta.json").exists():
        directory.mkdir(parents=True, exist_ok=True)
        _write_inputs([synth.figure_walkthrough_script()], directory, None)
        _prune(cache_dir, "walkthrough", keep=directory)
    return _inputs(directory)


def _prune(cache_dir: Path, name: str, keep: Path) -> None:
    entries = sorted(
        (p for p in cache_dir.glob(f"{name}-*") if p != keep and ".tmp" not in p.name),
        key=lambda p: p.stat().st_mtime,
    )
    for old in entries[: max(0, len(entries) - (CACHE_KEEP - 1))]:
        shutil.rmtree(old, ignore_errors=True)
