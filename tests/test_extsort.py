import random
import tracemalloc

import pytest

from tests.conftest import BASE, make_revision
from wikitalk import extsort
from wikitalk.extsort import SortBudget, SortStats, SpillDirectoryError, sort_revisions


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
    assert not list(tmp_path.glob("wikitalk-run-*"))


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
        assert not list(tmp_path.glob("wikitalk-*"))
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
