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
    ]
    out = list(sort_revisions(iter(records), SortBudget(spill_directory=tmp_path)))
    assert _ids(out) == ["1003", "1999", "2005"]


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
    random.Random(11).shuffle(records)
    reference = list(sort_revisions(iter(records), SortBudget(spill_directory=tmp_path)))
    # 40 runs against at most 8 open ones forces several cascade merges;
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
        assert stats.runs_spilled == 40
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


def test_streaming_parse_sort_equals_parse_all_then_sort(tmp_path):
    records = _records(500, shuffle_seed=9)
    oracle = sorted(records, key=lambda r: (r.timestamp, r.revision_id))
    out = list(
        sort_revisions(
            iter(records),
            SortBudget(max_in_memory_revisions=64, spill_directory=tmp_path),
        )
    )
    assert out == oracle


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
