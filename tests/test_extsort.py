import os
import random
import signal
import subprocess
import sys
import tracemalloc
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

import wikitalk
from tests.conftest import BASE, make_revision
from tests.test_acceptance import chinese_talk_script
from wikitalk import extsort
from wikitalk.extsort import SortBudget, SortStats, SpillDirectoryError, sort_revisions
from wikitalk.ingest import RevisionRecord


def _records(n, shuffle_seed=None):
    records = [
        make_revision(10**6 + i, f"text {i}", minutes=30 * i) for i in range(n)
    ]
    if shuffle_seed is not None:
        random.Random(shuffle_seed).shuffle(records)
    return records


def _ids(records):
    return [r.revision_id for r in records]


def _sort_key(rec):
    return rec.sort_key


def _edit_history(first_minute=0):
    """One page's revisions in key order, each an edit of the one before:
    texts grow, shrink, repeat unchanged, become empty and are shorter and
    longer than the sort's grain, and a zhwiki page's CJK history follows.
    Every 17th revision is followed by one with the same key and another
    text, so the output shows whether equal keys keep their input order."""
    rng = random.Random(5)
    texts, text = [], ""
    for i in range(240):
        if i in (100, 101, 200):
            text = ""
        elif i in (60, 150, 151):
            text = f"short {i}"
        elif rng.random() < 0.15:
            pass
        elif text and rng.random() < 0.25:
            lo = rng.randrange(len(text))
            text = text[:lo] + text[lo + rng.randrange(1, 300) :]
        else:
            lo = rng.randrange(len(text) + 1)
            line = f":line {i} by User{rng.randrange(9)} ~~~~\n"
            text = text[:lo] + line * rng.randrange(1, 8) + text[lo:]
        texts.append(text)
    texts += [r.text for r in chinese_talk_script().revisions]
    records = []
    for i, text in enumerate(texts):
        minute = first_minute + 30 * i
        records.append(make_revision(2 * 10**6 + i, text, minutes=minute))
        if i % 17 == 0:
            records.append(make_revision(2 * 10**6 + i, text[::-1], minutes=minute, user="bob"))
    assert max(map(len, texts)) > 8 * extsort._GRAIN
    return records


def test_already_sorted_identity(tmp_path):
    records = _records(5)
    out = list(sort_revisions(iter(records), SortBudget(spill_directory=tmp_path)))
    assert _ids(out) == _ids(records)


def test_reversed_becomes_ascending(tmp_path):
    records = _records(5)
    out = list(sort_revisions(iter(reversed(records)), SortBudget(spill_directory=tmp_path)))
    assert _ids(out) == _ids(records)


def test_budget_validates():
    with pytest.raises(ValueError):
        SortBudget(max_in_memory_revisions=1)


def test_spilled_path_equals_in_memory(tmp_path):
    records = _records(2000, shuffle_seed=3)
    reference = list(sort_revisions(iter(records), SortBudget(spill_directory=tmp_path)))
    stats = SortStats()
    spilled = list(
        sort_revisions(
            iter(records),
            SortBudget(max_in_memory_revisions=97, spill_directory=tmp_path),
            stats,
        )
    )
    assert spilled == reference
    assert stats.runs_spilled >= 20
    assert list(tmp_path.iterdir()) == []


def test_timestamp_ties_break_by_revision_id(tmp_path):
    ts = BASE
    records = [
        make_revision("2005", "b", minutes=0),
        make_revision("1003", "a", minutes=0),
        make_revision("1999", "c", minutes=0),
        make_revision("1000", "d", minutes=0),
        make_revision("999", "e", minutes=0),
    ]
    out = list(sort_revisions(iter(records), SortBudget(spill_directory=tmp_path)))
    assert _ids(out) == ["999", "1000", "1003", "1999", "2005"]


def test_unwritable_spill_dir_fails_before_consuming_input(tmp_path):
    blocked = tmp_path / "blocked"
    blocked.write_text("a regular file, not a directory")
    consumed = []

    def feed():
        consumed.append(1)
        yield make_revision(1, "x")

    with pytest.raises(SpillDirectoryError):
        list(sort_revisions(feed(), SortBudget(spill_directory=blocked)))
    assert consumed == []


def test_peak_memory_within_budget(tmp_path):
    limit = 50
    records = _records(1000, shuffle_seed=5)
    stats = SortStats()
    list(
        sort_revisions(
            iter(records),
            SortBudget(max_in_memory_revisions=limit, spill_directory=tmp_path),
            stats,
        )
    )
    assert stats.peak_in_memory_records <= limit + stats.runs_spilled + 1


def test_cascade_merge_equals_global_sort(tmp_path, monkeypatch):
    limit = 50
    records = _records(1950)
    # records sharing a sort key must keep their input order, as in memory
    records += [make_revision(10**6 + i, f"same key {i}", minutes=30 * i) for i in range(50)]
    records += _edit_history()
    random.Random(11).shuffle(records)
    reference = sorted(records, key=_sort_key)
    # 46 runs against at most 8 open ones forces several cascade merges;
    # against 3, merged runs are merged again
    for max_open_runs in (8, 3):
        monkeypatch.setattr(extsort, "MAX_OPEN_RUNS", max_open_runs)
        stats = SortStats()
        cascaded = list(
            sort_revisions(
                iter(records),
                SortBudget(max_in_memory_revisions=limit, spill_directory=tmp_path),
                stats,
            )
        )
        assert cascaded == reference
        assert stats.runs_spilled == -(-len(records) // limit)
        assert list(tmp_path.iterdir()) == []
        assert stats.peak_in_memory_records <= max(limit, extsort.MAX_OPEN_RUNS + 1)


def test_spilled_sort_memory_is_bounded(tmp_path):
    records = [
        make_revision(10**6 + i, f"{i:06d} " + "x" * 2000, minutes=i) for i in range(4000)
    ]
    random.Random(4).shuffle(records)
    text_bytes = sum(len(r.wikitext) for r in records)
    drained = 0
    tracemalloc.start()
    try:
        for _ in sort_revisions(
            iter(records), SortBudget(max_in_memory_revisions=100, spill_directory=tmp_path)
        ):
            drained += 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert drained == len(records)
    assert peak < text_bytes / 4


def _growing_page(n=300):
    """One page's revisions in order, each adding a 100-character reply, to
    30 KB at the end; each text is built as the sort reads it."""
    text = ""
    for i in range(n):
        text += f"{i:04d} " + "reply " * 15 + "~~~~\n"
        yield make_revision(10**6 + i, text, minutes=i)


def _drained_peak(revisions, budget):
    """The ``tracemalloc`` peak of draining the sort, and the last text."""
    tracemalloc.start()
    try:
        for rec in sort_revisions(revisions, budget):
            last = rec.wikitext
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, last


def test_in_order_sort_holds_one_text_and_the_edits(tmp_path):
    """A page read in order costs one full text plus each revision's edit,
    not its history: holding all 300 texts takes about 4.5 MB."""
    peak, last = _drained_peak(_growing_page(), SortBudget(spill_directory=tmp_path))
    assert len(last) == 30_000
    assert peak < 10 * len(last)


def test_out_of_order_sort_drops_each_entry_as_it_is_decoded(tmp_path):
    """Out of order, a page's texts are all rebuilt before the sort, but no
    encoded entry outlives its decoding. With the first revision read last,
    every other one is encoded; the rebuilt records and the texts being
    joined take about 330 B a revision beyond the texts, and entries kept
    alive about 400 B more."""
    records = list(_growing_page())
    text_bytes = sum(len(r.wikitext) for r in records)
    for order in (random.Random(3).sample(records, len(records)), records[1:] + records[:1]):
        peak, _ = _drained_peak(iter(order), SortBudget(spill_directory=tmp_path))
        assert peak < text_bytes + 500 * len(records)


def test_streaming_parse_sort_equals_parse_all_then_sort(tmp_path):
    """In any arrival order and at any budget, the sort's output is Python's
    stable sort of its input, field by field and texts included."""
    history = _records(200) + _edit_history(first_minute=30 * 200)
    oracle = sorted(history, key=_sort_key)
    orders = {"in order": oracle, "reversed": oracle[::-1]}
    for seed in (9, 21):
        orders[f"shuffled {seed}"] = random.Random(seed).sample(history, len(history))
    for name, records in orders.items():
        for limit in (2, 3, 16, extsort.DEFAULT_MAX_IN_MEMORY):
            budget = SortBudget(max_in_memory_revisions=limit, spill_directory=tmp_path)
            out = list(sort_revisions(iter(records), budget))
            assert out == sorted(records, key=_sort_key), (name, limit)


_KILLED_CHILD = """
import sys
from datetime import datetime, timedelta, timezone
from wikitalk.extsort import SortBudget, sort_revisions
from wikitalk.ingest import RevisionRecord

def feed():
    base = datetime(2016, 3, 1, tzinfo=timezone.utc)
    for i in range(40):
        yield RevisionRecord("1", "Talk:K", str(i), base - timedelta(minutes=i), "u", 1, "text")
    print("spilled", flush=True)
    sys.stdin.read()

list(sort_revisions(feed(), SortBudget(max_in_memory_revisions=4, spill_directory=sys.argv[1])))
"""


def test_killed_sort_leaves_no_spill_file(tmp_path):
    spill = tmp_path / "spill"
    spill.mkdir()
    path = [str(Path(wikitalk.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    with subprocess.Popen(
        [sys.executable, "-c", _KILLED_CHILD, str(spill)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
    ) as child:
        try:
            # ten runs of four are spilled by now, and the child blocks
            assert child.stdout.readline() == b"spilled\n"
        finally:
            child.kill()
            child.wait(timeout=30)
    assert child.returncode == -signal.SIGKILL
    assert list(spill.iterdir()) == []


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_merge_holds_one_spill_descriptor(tmp_path):
    records = _records(400, shuffle_seed=6)
    budget = SortBudget(max_in_memory_revisions=10, spill_directory=tmp_path)
    before = _open_fds()
    stats = SortStats()
    drained, held = 0, []
    for _ in sort_revisions(iter(records), budget, stats):
        drained += 1
        if drained % 50 == 1:
            held.append(_open_fds() - before)
    assert stats.runs_spilled == 40 and drained == len(records)
    assert max(held) == 1
    assert _open_fds() == before

    # closed early, or failing part-way, the sort closes its file too
    sorter = sort_revisions(iter(records), budget)
    next(sorter)
    sorter.close()
    assert _open_fds() == before

    def failing():
        yield from records[:100]
        raise OSError("dump read failed")

    with pytest.raises(OSError, match="dump read failed"):
        list(sort_revisions(failing(), budget))
    assert _open_fds() == before
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "tz", [timezone.utc, timezone(timedelta(hours=5, minutes=30)), None], ids=["utc", "ist", "naive"]
)
def test_spilled_timestamps_keep_their_offset(tmp_path, tz):
    base = datetime(2016, 3, 1, 9, 0, 0, 250_000, tzinfo=tz)
    records = [
        RevisionRecord("1", "Talk:Tz", str(i), base - timedelta(seconds=i), "alice", None, f"t{i}")
        for i in range(10)
    ]
    stats = SortStats()
    out = list(
        sort_revisions(
            iter(records), SortBudget(max_in_memory_revisions=2, spill_directory=tmp_path), stats
        )
    )
    assert stats.runs_spilled == 5
    assert out == records[::-1]
    for back, rec in zip(out, records[::-1]):
        assert type(back) is type(rec)
        assert back.timestamp.utcoffset() == rec.timestamp.utcoffset()
        assert back.timestamp.tzinfo == rec.timestamp.tzinfo
