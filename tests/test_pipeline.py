import bz2
import gc
import gzip
import hashlib
import json
import os
import random
import stat
import subprocess
import sys
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest

import wikitalk
from tests.test_acceptance import chinese_talk_script
from wikitalk import cli, corpus, pipeline
from wikitalk.actions import Action, ActionType
from wikitalk.corpus import SCHEMA_HEADER, SCORED_SCHEMA_HEADER, read_actions
from wikitalk.evalharness import write_gold
from wikitalk.extsort import SortStats
from wikitalk.ingest import DumpFormatError, id_order_key
from wikitalk.pipeline import PipelineConfig, run_pipeline
from wikitalk.synth import (
    PageScript,
    figure_walkthrough_script,
    gold_fixture_suite,
    random_tree_script,
    render_dump,
    write_dump,
)


def test_run_pipeline_figure_scenario(tmp_path):
    dump = write_dump([figure_walkthrough_script()], tmp_path / "dump.xml")
    out = tmp_path / "corpus.jsonl"
    report = run_pipeline(PipelineConfig(input_path=dump, output_path=out))
    assert report.pages == 1
    assert report.actions_written == 6
    with open(out, encoding="utf-8") as fh:
        counts = Counter(a.type for a in read_actions(fh))
    assert counts == {
        ActionType.CREATION: 1,
        ActionType.ADDITION: 3,
        ActionType.DELETION: 1,
        ActionType.MODIFICATION: 1,
    }


def test_empty_dump_empty_corpus_exit_zero(tmp_path):
    dump = tmp_path / "empty.xml"
    dump.write_text("")
    out = tmp_path / "corpus.jsonl"
    rc = cli.main(["reconstruct", "--input", str(dump), "--output", str(out)])
    assert rc == 0
    assert out.read_text() == SCHEMA_HEADER + "\n"


def test_missing_input_fails(tmp_path):
    rc = cli.main(
        ["reconstruct", "--input", str(tmp_path / "nope.xml"), "--output", str(tmp_path / "o")]
    )
    assert rc == 1


def _child_env(*unset: str) -> dict[str, str]:
    """This process's environment without the variables ``unset``, for a
    child that imports the package under test."""
    path = [str(Path(wikitalk.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {name: value for name, value in os.environ.items() if name not in unset}
    return {**env, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def test_failed_run_prints_one_error_line(tmp_path):
    """A failed run reports its error once on stderr. Run as a subprocess:
    in-process, pytest's log capture would hide a second report."""
    missing = tmp_path / "nope.xml"
    env = _child_env()
    proc = subprocess.run(
        [sys.executable, "-m", "wikitalk.cli", "reconstruct",
         "--input", str(missing), "--output", str(tmp_path / "o")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [f"error: input dump not found: {missing}"]


def test_cli_import_loads_no_subcommand_spill_fork_or_copy_module():
    """numpy is needed only by ``analytics eer``, and the analytics and
    evalharness modules only by their subcommands; pickle, heapq, signal and
    array only by a spill, a forked page process, the copy pass or the kill
    path. The command's start-up (and so every ``reconstruct`` run) does
    without them."""
    env = _child_env()
    modules = ["numpy", "wikitalk.analytics", "wikitalk.evalharness", "pickle", "heapq", "signal", "array"]
    code = f"import sys, wikitalk.cli; print([m for m in {modules} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _sample_command(tmp_path) -> list[str]:
    """The program's ``eval sample`` of the walkthrough page's corpus, which
    prints its six actions to stdout."""
    dump = write_dump([figure_walkthrough_script()], tmp_path / "dump.xml")
    corpus_path = tmp_path / "corpus.jsonl"
    assert cli.main(["reconstruct", "--input", str(dump), "--output", str(corpus_path)]) == 0
    return [sys.executable, "-m", "wikitalk.cli", "eval", "sample", "--corpus", str(corpus_path), "--per-type", "3"]


def test_program_output_to_a_pipe_equals_output_to_a_file(tmp_path):
    """The program leaves by ``os._exit``; what it printed to a stdout pipe
    is flushed first, byte for byte what ``--output`` writes."""
    command, sample = _sample_command(tmp_path), tmp_path / "sample.jsonl"
    env = _child_env("PYTHONUNBUFFERED")
    piped = subprocess.run(command, capture_output=True, env=env, timeout=60)
    assert piped.returncode == 0, piped.stderr
    written = subprocess.run([*command, "--output", str(sample)], capture_output=True, env=env, timeout=60)
    assert written.returncode == 0, written.stderr
    assert piped.stdout == sample.read_bytes() and piped.stdout.count(b"\n") == 6


def test_program_writing_to_a_closed_pipe_fails_with_one_error_line(tmp_path):
    """With stdout a pipe whose reader is gone, the flush before the exit
    fails: the program exits 1 with one ``error:`` line and no traceback.
    Without PYTHONUNBUFFERED stdout is block-buffered, so that flush is the
    write that fails."""
    command = _sample_command(tmp_path)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            command, stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=_child_env("PYTHONUNBUFFERED"), timeout=60,
        )
    finally:
        os.close(write_end)
    lines = proc.stderr.splitlines()
    assert proc.returncode == 1, proc.stderr
    assert lines[-1].startswith("error: ") and "Broken pipe" in lines[-1], proc.stderr
    assert [line for line in lines if line.startswith("error:")] == lines[-1:], proc.stderr
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr, proc.stderr


def test_unwritable_output_fails(tmp_path, monkeypatch, capsys, one_process):
    """An unwritable output fails the run before any page is reconstructed,
    with one error line that names the output, not a temporary file."""
    dump = write_dump([figure_walkthrough_script()], tmp_path / "dump.xml")
    calls = []
    original = pipeline._process_page

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(pipeline, "_process_page", counting)
    out = tmp_path / "no-dir" / "o.jsonl"
    rc = cli.main(["reconstruct", "--input", str(dump), "--output", str(out)])
    assert rc == 1
    assert calls == []
    [err] = capsys.readouterr().err.splitlines()
    assert err.startswith("error: ") and str(out) in err and ".tmp" not in err, err


def _page_xml(page_id, rev_id, minute, text):
    return (
        f"<page><title>Talk:P{page_id}</title><ns>1</ns><id>{page_id}</id>"
        f"<revision><id>{rev_id}</id><timestamp>2017-05-01T10:{minute:02d}:00Z</timestamp>"
        f"<contributor><username>alice</username><id>7</id></contributor>"
        f"<text>{text}</text></revision></page>\n"
    )


def test_page_split_across_dump_fails(tmp_path):
    """A page that comes back after another page fails the run, also when
    the dump has already left canonical order before it comes back."""
    dump = tmp_path / "split.xml"
    out = tmp_path / "corpus.jsonl"
    for split, other in ((1, 2), (2, 1)):
        dump.write_text(
            '<mediawiki xmlns="http://www.mediawiki.org/xml/export-0.10/">\n'
            + _page_xml(split, 11, 0, "== Thread ==\nfirst comment ~~~~")
            + _page_xml(other, 21, 1, "== Other ==")
            + _page_xml(split, 12, 2, "== Thread ==\nfirst comment ~~~~\n:a reply ~~~~")
            + "</mediawiki>\n"
        )
        with pytest.raises(DumpFormatError, match=f"page {split} "):
            run_pipeline(PipelineConfig(input_path=dump, output_path=out))
        rc = cli.main(["reconstruct", "--input", str(dump), "--output", str(out)])
        assert rc == 1
        assert not out.exists()


@pytest.mark.parametrize("count", [1, 2, 3])
def test_page_after_a_page_of_skipped_records_reappears(tmp_path, monkeypatch, count):
    """A page id that comes back after another page element fails the run,
    also when every record of the page element between is skipped; a page
    element without an id between two of one page's elements does not
    split that page. Pages 1 and 4 have different owners with two and with
    three processes, so page 1 comes back in the main process's share and
    in another's. Page 1 and an id-less page element, in either order, give
    page 1's corpus and the id-less page's skip: their owners differ too,
    so the main process forks at the second element, with or without an
    id."""
    monkeypatch.setattr(pipeline, "_process_count", lambda: count)
    first = _page_xml(1, 11, 0, "== Thread ==\nfirst comment ~~~~")
    again = _page_xml(1, 12, 2, "== Thread ==\nfirst comment ~~~~\n:a reply ~~~~")
    untimed = _page_xml(2, 21, 1, "== Other ==").replace("<timestamp>2017-05-01T10:01:00Z</timestamp>", "")
    idless = _page_xml(3, 31, 1, "== Other ==").replace("<id>3</id>", "", 1)
    lead = _page_xml(4, 41, 3, "== Lead ==\nlead comment ~~~~")
    dump, out = tmp_path / "dump.xml", tmp_path / "corpus.jsonl"

    def run(*pages):
        dump.write_text("<mediawiki>\n" + "".join(pages) + "</mediawiki>\n")
        return run_pipeline(PipelineConfig(dump, out))

    for pages in ((first, untimed, again), (lead, first, untimed, again)):
        with pytest.raises(DumpFormatError, match="^page 1 reappears after another page$"):
            run(*pages)
    run(first)
    alone = out.read_bytes()
    for pages in ((idless, first), (first, idless)):
        report = run(*pages)
        assert out.read_bytes() == alone
        assert (report.pages, report.revisions, report.skip_reasons) == (1, 1, {"missing_page_id": 1})
    joined = first.replace("</revision></page>", "</revision>" + again[again.index("<revision>"):])
    run(lead, joined)
    whole = out.read_bytes()
    report = run(lead, first, idless, again)
    assert out.read_bytes() == whole
    assert (report.pages, report.revisions, report.skip_reasons) == (2, 3, {"missing_page_id": 1})
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_revision_between_pages_is_read_once(tmp_path, monkeypatch):
    """A ``<revision>`` between one page's ``</page>`` and the next ``<page>``
    is read as a revision of the page before, by that page's process alone:
    one, two and three processes give the same corpus and counts."""
    reply = _page_xml(1, 12, 1, "== Thread ==\nfirst comment ~~~~\n:a reply ~~~~")
    stray = reply[reply.index("<revision>"):reply.index("</page>")]
    dump = tmp_path / "dump.xml"
    dump.write_text(
        "<mediawiki>\n"
        + _page_xml(4, 41, 0, "== Lead ==\nlead comment ~~~~")
        + _page_xml(1, 11, 0, "== Thread ==\nfirst comment ~~~~")
        + stray
        + _page_xml(5, 51, 0, "== Other ==\nother comment ~~~~")
        + "</mediawiki>\n"
    )
    outputs = set()
    for count in (1, 2, 3):
        monkeypatch.setattr(pipeline, "_process_count", lambda: count)
        report = run_pipeline(PipelineConfig(dump, tmp_path / "corpus.jsonl"))
        outputs.add(((tmp_path / "corpus.jsonl").read_bytes(), report.pages, report.revisions, report.actions_written))
    [(corpus_bytes, pages, revisions, actions)] = outputs
    assert (pages, revisions, actions) == (3, 4, len(corpus_bytes.splitlines()) - 1)


def test_index_memory_per_page_is_small(tmp_path):
    """The run keeps one small entry per page: from 500 to 5,000
    one-revision pages in canonical order, its tracemalloc peak grows by at
    most 200 bytes a page."""
    peaks = {}
    for n in (500, 5000):
        dump = tmp_path / f"{n}.xml"
        dump.write_text(
            "<mediawiki>\n"
            + "".join(_page_xml(i, i * 10, 0, "== T ==\nc ~~~~") for i in range(1, n + 1))
            + "</mediawiki>\n"
        )
        tracemalloc.start()
        try:
            run_pipeline(PipelineConfig(input_path=dump, output_path=tmp_path / f"{n}.jsonl"))
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert (peaks[5000] - peaks[500]) / 4500 <= 200, peaks


def test_run_report_counts_every_stage(tmp_path, capsys):
    """One report holds a run's pages, revisions, actions and skipped
    records, and the CLI's summary lines are read from it."""
    dump = tmp_path / "dump.xml"
    dump.write_text(
        '<mediawiki xmlns="http://www.mediawiki.org/xml/export-0.10/">\n'
        + _page_xml(1, 11, 0, "== Thread ==\nfirst comment ~~~~")
        + _page_xml(2, 21, 1, "== Other ==\nsecond comment ~~~~").replace(
            "</page>",
            "<revision><id>22</id><timestamp>2017-05-01T10:02:00Z</timestamp>"
            "<contributor><username>admin</username></contributor>"
            '<text deleted="deleted" /></revision></page>',
        )
        + "</mediawiki>\n"
    )
    out = tmp_path / "corpus.jsonl"
    report = run_pipeline(PipelineConfig(input_path=dump, output_path=out))
    actions = len(out.read_text().splitlines()) - 1
    assert (report.pages, report.revisions, report.actions_written) == (2, 2, actions)
    assert actions > 0
    assert report.skip_reasons == {"text_deleted": 1}
    capsys.readouterr()
    assert cli.main(["reconstruct", "--input", str(dump), "--output", str(out)]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "completed with 1 skipped dump records ({'text_deleted': 1})",
        f"pages=2 revisions=2 actions={actions}",
    ]


def test_pages_are_written_in_numeric_id_order(tmp_path):
    dump = tmp_path / "order.xml"
    dump.write_text(
        '<mediawiki xmlns="http://www.mediawiki.org/xml/export-0.10/">\n'
        + _page_xml(10, 101, 0, "== Ten ==\nfirst comment ~~~~")
        + _page_xml(9, 91, 1, "== Nine ==\nfirst comment ~~~~")
        + "</mediawiki>\n"
    )
    out = tmp_path / "corpus.jsonl"
    run_pipeline(PipelineConfig(input_path=dump, output_path=out))
    with open(out, encoding="utf-8") as fh:
        page_ids = [a.page_id for a in read_actions(fh)]
    assert page_ids[0] == "9"
    assert page_ids == sorted(page_ids, key=int)
    assert set(page_ids) == {"9", "10"}


def test_page_order_key_is_natural():
    ids = ["tree10", "10", "tree2", "9", "b", "07", "7", "a1"]
    assert sorted(ids, key=id_order_key) == [
        "07", "7", "9", "10", "a1", "b", "tree2", "tree10"
    ]


# sha256 of the corpus for each input, at the default budget and at a
# three-revision budget that spills; a change to these bytes is a change to
# the output format or to reconstruction, and must be stated as such.
PINNED_CORPORA = {
    "gold-suite": "7508d5a131ad0d566a2f515653af91e55469aee6ce201c8109a2ebbeb26bb9b9",
    "walkthrough": "73b0776a58c539b709e90dd253de8034a8796dfeef92e34bead0deb20ecce32e",
    "trees-120": "0a20aad710e3af8c6cb113809bb1b033d509c8704c67228786f3d33ce637e728",
}


def test_corpus_bytes_are_pinned(tmp_path):
    inputs = {
        "gold-suite": (gold_fixture_suite(), 7),
        "walkthrough": ([figure_walkthrough_script()], None),
        "trees-120": ([random_tree_script(seed, n_comments=120)[0] for seed in range(3)], 11),
    }
    for name, (scripts, shuffle_seed) in inputs.items():
        dump = write_dump(scripts, tmp_path / f"{name}.xml", shuffle_seed=shuffle_seed)
        for budget in ({}, {"max_in_memory_revisions": 3}):
            out = tmp_path / f"{name}.jsonl"
            run_pipeline(PipelineConfig(input_path=dump, output_path=out, spill_dir=tmp_path, **budget))
            assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_CORPORA[name], (name, budget)


def test_revision_with_hidden_text_is_skipped(tmp_path):
    """A revision whose text an administrator hid is not an observation of
    the page: the corpus is the one of the dump without that revision, and
    the run counts one ``text_deleted`` skip."""
    script, _ = random_tree_script(0, n_comments=120)
    plain = render_dump([script])
    rev = script.revisions[60]
    hidden = (
        "    <revision>\n      <id>999999</id>\n"
        f"      <timestamp>{rev.timestamp.strftime('%Y-%m-%dT%H:%M:%SZ')}</timestamp>\n"
        "      <contributor><username>admin</username></contributor>\n"
        '      <text deleted="deleted" />\n    </revision>\n'
    )
    at = plain.index(f"<id>{script.revisions[61].revision_id}</id>")
    at = plain.rindex("    <revision>", 0, at)
    corpora, skips = [], []
    for name, xml in (("plain", plain), ("hidden", plain[:at] + hidden + plain[at:])):
        dump = tmp_path / f"{name}.xml"
        dump.write_text(xml, encoding="utf-8")
        report = run_pipeline(PipelineConfig(input_path=dump, output_path=tmp_path / f"{name}.jsonl"))
        corpora.append((tmp_path / f"{name}.jsonl").read_bytes())
        skips.append(report.skip_reasons)
    assert corpora[0] == corpora[1]
    assert skips == [{}, {"text_deleted": 1}]


def test_dump_order_does_not_change_output(tmp_path, monkeypatch, one_process):
    """Pages out of canonical order take one copy pass and give the corpus
    and stats bytes of the same pages in order; pages in order are renamed
    into place without a copy."""
    scripts = gold_fixture_suite()[:8]
    forward = write_dump(scripts, tmp_path / "forward.xml", shuffle_seed=5)
    backward = write_dump(scripts[::-1], tmp_path / "backward.xml", shuffle_seed=17)
    reorders = []
    original = pipeline._copy_in_order

    def counting(*args):
        reorders.append(1)
        return original(*args)

    monkeypatch.setattr(pipeline, "_copy_in_order", counting)
    outputs = {}
    for dump in (forward, backward):
        out, stats = tmp_path / f"{dump.stem}.jsonl", tmp_path / f"{dump.stem}.json"
        run_pipeline(PipelineConfig(input_path=dump, output_path=out, stats_path=stats))
        outputs[dump.stem] = (out.read_bytes(), stats.read_bytes(), len(reorders))
    assert forward.read_bytes() != backward.read_bytes()
    assert outputs["forward"][:2] == outputs["backward"][:2]
    assert [outputs["forward"][2], outputs["backward"][2]] == [0, 1]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "backward.json", "backward.jsonl", "backward.xml", "forward.json", "forward.jsonl", "forward.xml"
    ]


def _skipped_shapes_dump(path):
    """A dump of the page shapes whose records ingest skips, each page with
    talk text: a page without an id, a page whose first revision has no
    timestamp, one page id over two consecutive ``<page>`` elements, a page
    whose only revision has no timestamp, and a page whose first revision's
    text an administrator hid. Pages 15 and 16 follow them."""

    def page(page_id, *revisions):  # (id, minute or None, text or None if hidden)
        parts = [f"<page><title>Talk:P{page_id}</title><ns>1</ns>"]
        parts.append(f"<id>{page_id}</id>" if page_id else "")
        for rev_id, minute, text in revisions:
            when = "" if minute is None else f"<timestamp>2017-05-01T10:{minute:02d}:00Z</timestamp>"
            body = '<text deleted="deleted" />' if text is None else f"<text>{text}</text>"
            parts.append(
                f"<revision><id>{rev_id}</id>{when}"
                f"<contributor><username>u{rev_id}</username><id>{rev_id}</id></contributor>{body}</revision>"
            )
        return "".join(parts) + "</page>\n"

    opened = "== Thread ==\nfirst comment ~~~~"
    replied = opened + "\n:a reply ~~~~"
    path.write_text(
        "<mediawiki>\n"
        + page("", (1, 0, opened), (2, 1, replied))
        + page(11, (3, None, opened), (4, 2, replied))
        + page(12, (5, 3, opened))
        + page(12, (6, 4, replied), (7, 5, replied + "\n::and another ~~~~"))
        + page(13, (8, None, opened))
        + page(14, (9, 6, None), (10, 7, opened), (11, 8, replied))
        + page(15, (12, 9, opened))
        + page(16, (13, 10, replied))
        + "</mediawiki>\n"
    )
    return path


def test_number_of_processes_does_not_change_output(tmp_path, monkeypatch):
    """One, two and three page processes give the corpus and stats bytes and
    the counts of one process on the gold suite, in order, with its
    revisions shuffled, with its pages reversed or shuffled, and spilled at
    a budget of 4; and so they do on a dump of the page shapes whose records
    ingest skips."""
    scripts = gold_fixture_suite()
    dumps = [
        ("gold", write_dump(scripts, tmp_path / "in-order.xml")),
        ("gold", write_dump(scripts, tmp_path / "forward.xml", shuffle_seed=5)),
        ("gold", write_dump(scripts[::-1], tmp_path / "backward.xml", shuffle_seed=17)),
        ("gold", write_dump(random.Random(3).sample(scripts, len(scripts)), tmp_path / "pages.xml", shuffle_seed=3)),
        ("shapes", _skipped_shapes_dump(tmp_path / "shapes.xml")),
    ]
    out, stats = tmp_path / "out" / "corpus.jsonl", tmp_path / "out" / "stats.json"
    out.parent.mkdir()
    outputs = {"gold": set(), "shapes": set()}
    for count in (1, 2, 3):
        monkeypatch.setattr(pipeline, "_process_count", lambda: count)
        for kind, dump in dumps:
            for budget in ({}, {"max_in_memory_revisions": 4}):
                config = PipelineConfig(dump, out, stats_path=stats, spill_dir=tmp_path, **budget)
                report = run_pipeline(config)
                skips = tuple(sorted(report.skip_reasons.items()))
                counts = report.pages, report.revisions, report.actions_written, skips
                outputs[kind].add((out.read_bytes(), stats.read_bytes(), counts))
                assert sorted(p.name for p in out.parent.iterdir()) == ["corpus.jsonl", "stats.json"]
    assert [len(runs) for runs in outputs.values()] == [1, 1]
    [(corpus_bytes, stats_bytes, counts)] = outputs["shapes"]
    skips = ("missing_page_id", 2), ("missing_timestamp", 2), ("text_deleted", 1)
    assert counts == (5, 8, len(corpus_bytes.splitlines()) - 1, skips)
    assert json.loads(stats_bytes)["pages"] == 5
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_number_of_processes_does_not_change_the_summary_line(tmp_path, monkeypatch, capsys):
    """``reconstruct`` prints the skipped records of every process in one
    order, whichever processes counted them."""
    dump, out = _skipped_shapes_dump(tmp_path / "shapes.xml"), tmp_path / "corpus.jsonl"
    lines = set()
    for count in (1, 2, 3):
        monkeypatch.setattr(pipeline, "_process_count", lambda: count)
        assert cli.main(["reconstruct", "--input", str(dump), "--output", str(out)]) == 0
        lines.add(capsys.readouterr().err)
    [err] = lines
    assert err.splitlines()[0] == (
        "completed with 5 skipped dump records ({'missing_page_id': 2, 'missing_timestamp': 2, 'text_deleted': 1})"
    )


@pytest.mark.parametrize("count", [2, 3])
def test_each_page_is_built_and_counted_in_one_process(tmp_path, monkeypatch, count):
    """With several processes, each process counts the revisions of its own
    pages only: their counts add up to one process's, and no page id is in
    two processes' parts. So it is on the gold suite and on a dump of the
    page shapes whose records ingest skips."""
    dumps = [
        write_dump(gold_fixture_suite(), tmp_path / "gold.xml", shuffle_seed=5),
        _skipped_shapes_dump(tmp_path / "shapes.xml"),
    ]
    out = tmp_path / "corpus.jsonl"
    shares, outcomes = [], []
    share, outcome = pipeline._reconstruct_share, pipeline._outcome

    def main_share(config, budget, report, *args):  # in a forked process too, out of sight
        pages = share(config, budget, report, *args)
        shares.append((pages, report.revisions))
        return pages

    def child_outcome(*args):
        pages, report, summary = outcome(*args)
        outcomes.append((pages, report.revisions))
        return pages, report, summary

    monkeypatch.setattr(pipeline, "_reconstruct_share", main_share)
    monkeypatch.setattr(pipeline, "_outcome", child_outcome)
    for dump in dumps:
        monkeypatch.setattr(pipeline, "_process_count", lambda: 1)
        one = run_pipeline(PipelineConfig(dump, out))
        [(one_pages, _)] = shares
        monkeypatch.setattr(pipeline, "_process_count", lambda: count)
        shares.clear()
        run_pipeline(PipelineConfig(dump, out))
        processes = shares + outcomes
        assert len(processes) == count
        assert sum(revisions for _, revisions in processes) == one.revisions
        ids = [page_id for pages, _ in processes for page_id in pages]
        assert sorted(ids) == sorted(one_pages)
        shares.clear()
        outcomes.clear()


def _fail_on_page(page_id, fail):
    """``corpus.serialize_action``, but calling ``fail()`` on the first
    action of page ``page_id``."""
    original = corpus.serialize_action

    def serialize(action, *args):
        if action.page_id == page_id:
            fail()
        return original(action, *args)

    return serialize


def _first_page_built(scripts, count, main):
    """The id of the first page of ``scripts`` that the main process builds
    (``main``) or that another process builds, of ``count``: the main
    process builds the pages that share the first page's owner."""
    rank = pipeline._owner(scripts[0].page_id, count)
    return next(s.page_id for s in scripts if (pipeline._owner(s.page_id, count) == rank) == main)


def _exit_without_result():
    os._exit(3)


def _no_space():
    raise OSError(28, "No space left on device")


_FAILURES = {
    "main-write": "write failed after 0 actions: [Errno 28] No space left on device",
    "page-process-write": "write failed after 0 actions: [Errno 28] No space left on device",
    "page-process-exit": "a page process ended with status 3 and no result",
    "main-process-gone": "the main process is gone",
    "page-reappears": "page {first} reappears after another page",
}


@pytest.mark.parametrize("count", [2, 3])
@pytest.mark.parametrize("case", list(_FAILURES))
def test_failure_with_several_processes_is_one_error_line(tmp_path, monkeypatch, capsys, count, case):
    """A run whose main process or other page process fails, or whose dump
    repeats a page, exits 1 with one error line, keeps the old output and
    stats, leaves no file in the output's directory and no child process.
    A forked process inherits the failure patched in before the run."""
    scripts = gold_fixture_suite()[:4]
    if case == "page-reappears":
        xml = render_dump(scripts)
        first = xml.index("  <page>")
        end = xml.index("</page>", first) + len("</page>\n")
        xml = xml[:end] + xml[end:].replace("</mediawiki>", xml[first:end] + "</mediawiki>")
        dump = tmp_path / "dump.xml"
        dump.write_text(xml, encoding="utf-8")
    else:
        dump = write_dump(scripts, tmp_path / "dump.xml")
    # (whether the main process builds the failing page, how it fails)
    failing_pages = {"main-write": (True, _no_space), "page-process-write": (False, _no_space),
                     "page-process-exit": (False, _exit_without_result)}
    if case in failing_pages:
        main, fail = failing_pages[case]
        page_id = _first_page_built(scripts, count, main)
        monkeypatch.setattr(corpus, "serialize_action", _fail_on_page(page_id, fail))
    elif case == "main-process-gone":
        monkeypatch.setattr(os, "getppid", lambda: -1)
    monkeypatch.setattr(pipeline, "_process_count", lambda: count)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out, stats = out_dir / "corpus.jsonl", out_dir / "stats.json"
    out.write_bytes(b"old corpus\n")
    stats.write_bytes(b"old stats\n")
    argv = ["reconstruct", "--input", str(dump), "--output", str(out), "--stats", str(stats)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: " + _FAILURES[case].format(first=scripts[0].page_id)]
    assert out.read_bytes() == b"old corpus\n" and stats.read_bytes() == b"old stats\n"
    assert sorted(p.name for p in out_dir.iterdir()) == ["corpus.jsonl", "stats.json"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_main_process_stops_at_its_next_page_after_a_page_process_fails(tmp_path, monkeypatch):
    """When another page process fails on its first page, the main process
    raises that failure at its own next page, not after the whole dump.
    The page process is forked from inside ingest, which may be before the
    main process's first page, so its failure waits on a pipe until the
    main process has begun a page after the fork."""
    scripts = gold_fixture_suite()[:8]
    dump = write_dump(scripts, tmp_path / "dump.xml")
    gate, release = os.pipe()

    def fail():
        os.read(gate, 1)
        _no_space()

    monkeypatch.setattr(corpus, "serialize_action", _fail_on_page(_first_page_built(scripts, 2, False), fail))
    main, calls, forks, ended = os.getpid(), [], [], []
    original_fork, original = os.fork, pipeline._process_page

    def fork():
        pid = original_fork()
        forks.append(pid)
        return pid

    def process_page(*args):
        if os.getpid() == main:
            calls.append(1)
            if forks and not ended:  # the first page after the page process is forked
                os.write(release, b"x")
                os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)  # until it has ended
                ended.append(len(calls))
        return original(*args)

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(pipeline, "_process_page", process_page)
    monkeypatch.setattr(pipeline, "_process_count", lambda: 2)
    try:
        with pytest.raises(corpus.CorpusWriteError, match="No space left on device"):
            run_pipeline(PipelineConfig(dump, tmp_path / "corpus.jsonl"))
    finally:
        os.close(gate)
        os.close(release)
    assert ended == [len(calls)] and len(calls) < 4  # of the main process's 4 pages
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_one_page_dump_forks_nothing(tmp_path, monkeypatch):
    """The other page processes are forked at the first page that is not
    the main process's, so a one-page dump is reconstructed in the calling
    process alone."""

    def fork():
        raise AssertionError("forked")

    dump = write_dump([figure_walkthrough_script()], tmp_path / "dump.xml")
    monkeypatch.setattr(pipeline, "_process_count", lambda: 2)
    monkeypatch.setattr(os, "fork", fork)
    report = run_pipeline(PipelineConfig(dump, tmp_path / "corpus.jsonl"))
    assert (report.pages, report.actions_written) == (1, 6)


def test_cpu_quota_caps_the_processes(tmp_path, monkeypatch):
    """The tightest cgroup v2 CPU quota of the process's group and the
    groups above it, up to the cgroup root and rounded up to whole CPUs,
    caps the number of page processes; no quota leaves the CPU affinity."""
    own, root = tmp_path / "cgroup", tmp_path / "fs"
    own.write_text("4:cpu:/\n0::/a/b\n")
    (root / "a" / "b").mkdir(parents=True)
    assert pipeline._cpu_limit(root, own) is None
    (root / "a" / "b" / "cpu.max").write_text("max 100000\n")
    (root / "a" / "cpu.max").write_text("150000 100000\n")
    (root / "cpu.max").write_text("400000 100000\n")
    (tmp_path / "cpu.max").write_text("100000 100000\n")  # above the root: not read
    assert pipeline._cpu_limit(root, own) == 2
    own.write_text("0::/\n")
    assert pipeline._cpu_limit(root, own) == 4
    assert pipeline._cpu_limit(root, tmp_path / "missing") is None
    monkeypatch.setattr(pipeline, "_cpu_limit", lambda: 1)
    assert pipeline._process_count() == 1
    monkeypatch.setattr(pipeline, "_cpu_limit", lambda: 4096)
    assert pipeline._process_count() == len(os.sched_getaffinity(0))


def test_no_action_of_an_earlier_page_is_alive(tmp_path, monkeypatch, one_process):
    """Each action is written as its page emits it: when a page starts, no
    action of an earlier page is still reachable."""
    dump = write_dump(gold_fixture_suite()[:6], tmp_path / "dump.xml", shuffle_seed=3)
    gc.collect()
    existing = [o for o in gc.get_objects() if isinstance(o, Action)]
    known = {id(o) for o in existing}
    alive_at_start = []
    original = pipeline._process_page

    def checking(*args):
        gc.collect()
        alive_at_start.append(
            sum(isinstance(o, Action) and id(o) not in known for o in gc.get_objects())
        )
        return original(*args)

    monkeypatch.setattr(pipeline, "_process_page", checking)
    report = run_pipeline(PipelineConfig(input_path=dump, output_path=tmp_path / "corpus.jsonl"))
    assert report.actions_written > 0
    assert alive_at_start == [0] * 6


@pytest.mark.parametrize(
    "owner, name, error",
    [(pipeline, "_process_page", OSError), (corpus, "serialize_action", corpus.CorpusWriteError)],
    ids=["second-page", "second-action"],
)
def test_failed_run_keeps_old_output(tmp_path, monkeypatch, owner, name, error, one_process):
    """A run that fails reconstructing a page, or part-way through writing
    the corpus, leaves the old output as it was and no temporary file."""
    dump = write_dump(gold_fixture_suite()[:3], tmp_path / "dump.xml")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "corpus.jsonl"
    out.write_bytes(b"old corpus\n")
    calls = []
    original = getattr(owner, name)

    def fail_on_second_call(*args):
        calls.append(1)
        if len(calls) == 2:
            raise OSError("no space left")
        return original(*args)

    monkeypatch.setattr(owner, name, fail_on_second_call)
    with pytest.raises(error, match="no space left"):
        run_pipeline(PipelineConfig(input_path=dump, output_path=out))
    assert len(calls) == 2
    assert out.read_bytes() == b"old corpus\n"
    assert [p.name for p in out_dir.iterdir()] == ["corpus.jsonl"]


def test_reorder_copy_failure_keeps_old_output(tmp_path, monkeypatch):
    """A run that fails while copying out-of-order pages into canonical
    order leaves the old output as it was and no temporary file."""
    dump = write_dump(gold_fixture_suite()[:3][::-1], tmp_path / "dump.xml")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "corpus.jsonl"
    out.write_bytes(b"old corpus\n")
    original = pipeline.replacing
    copies = []

    @contextmanager
    def failing_copy(path, *refusal):
        with original(path, *refusal) as sink:
            yield sink
            if path.suffix == ".tmp":  # the reorder copy of the output
                copies.append(sink.tell())
                raise OSError("no space left")

    monkeypatch.setattr(pipeline, "replacing", failing_copy)
    with pytest.raises(OSError, match="no space left"):
        run_pipeline(PipelineConfig(input_path=dump, output_path=out))
    assert len(copies) == 1 and copies[0] > len(SCHEMA_HEADER) + 1
    assert out.read_bytes() == b"old corpus\n"
    assert [p.name for p in out_dir.iterdir()] == ["corpus.jsonl"]


def test_write_failure_counts_actions_of_earlier_pages(tmp_path, monkeypatch, capsys, one_process):
    """A write that fails on the first action of the second page reports
    every action written before it, those of the first page included."""
    scripts = gold_fixture_suite()[:3]
    dump = write_dump(scripts, tmp_path / "dump.xml")
    clean = tmp_path / "clean.jsonl"
    run_pipeline(PipelineConfig(input_path=dump, output_path=clean))
    with open(clean, encoding="utf-8") as fh:
        first_page = sum(a.page_id == scripts[0].page_id for a in read_actions(fh))
    assert first_page > 1
    pages = []
    original_page, original_serialize = pipeline._process_page, corpus.serialize_action

    def counting_pages(*args):
        pages.append(1)
        return original_page(*args)

    def fail_on_second_page(*args):
        if len(pages) == 2:
            raise OSError(28, "No space left on device")
        return original_serialize(*args)

    monkeypatch.setattr(pipeline, "_process_page", counting_pages)
    monkeypatch.setattr(corpus, "serialize_action", fail_on_second_page)
    with pytest.raises(corpus.CorpusWriteError) as exc:
        run_pipeline(PipelineConfig(input_path=dump, output_path=tmp_path / "corpus.jsonl"))
    assert exc.value.written == first_page
    pages.clear()
    rc = cli.main(["reconstruct", "--input", str(dump), "--output", str(tmp_path / "corpus.jsonl")])
    assert rc == 1
    assert f"error: write failed after {first_page} actions" in capsys.readouterr().err


def test_corpus_write_failure_exits_with_error(tmp_path, monkeypatch, capsys):
    """A corpus write that fails part-way ends the CLI run with an error
    line and exit status 1, the old output kept and no temporary file."""
    dump = write_dump([figure_walkthrough_script()], tmp_path / "dump.xml")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "corpus.jsonl"
    out.write_bytes(b"old corpus\n")
    calls = []
    original = corpus.serialize_action

    def fail_on_second_call(*args):
        calls.append(1)
        if len(calls) == 2:
            raise OSError(28, "No space left on device")
        return original(*args)

    monkeypatch.setattr(corpus, "serialize_action", fail_on_second_call)
    rc = cli.main(["reconstruct", "--input", str(dump), "--output", str(out)])
    assert rc == 1
    assert "error: write failed after 1 actions" in capsys.readouterr().err
    assert out.read_bytes() == b"old corpus\n"
    assert [p.name for p in out_dir.iterdir()] == ["corpus.jsonl"]


def test_unwritable_stats_fails_before_any_page(tmp_path, monkeypatch, capsys):
    """An unwritable ``--stats`` fails the run before any page is
    reconstructed and leaves no corpus behind. Its one error line names the
    stats path, not a temporary file."""
    dump = write_dump([figure_walkthrough_script()], tmp_path / "dump.xml")
    out = tmp_path / "corpus.jsonl"
    calls = []
    original = pipeline._process_page

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(pipeline, "_process_page", counting)
    stats = tmp_path / "missing-dir" / "stats.json"
    rc = cli.main(
        ["reconstruct", "--input", str(dump), "--output", str(out), "--stats", str(stats)]
    )
    assert rc == 1
    assert calls == []
    assert [p.name for p in tmp_path.iterdir()] == ["dump.xml"]
    [err] = capsys.readouterr().err.splitlines()
    assert err.startswith("error: ") and str(stats) in err and ".tmp" not in err, err


@pytest.mark.parametrize(
    "output, stats",
    [("dump.xml", None), ("./dump.xml", None), ("link.xml", None),
     ("corpus.jsonl", "dump.xml"), ("corpus.jsonl", "corpus.jsonl"), ("corpus.jsonl", "link.jsonl")],
)
def test_output_or_stats_naming_an_earlier_file_is_refused(tmp_path, monkeypatch, capsys, output, stats):
    """An output that resolves to the input dump, or a stats file that
    resolves to the dump or to the output, would be replaced by what is
    written after it. The run is refused with one error line, and every
    file is left as it was."""
    monkeypatch.chdir(tmp_path)
    dump = write_dump([figure_walkthrough_script()], tmp_path / "dump.xml")
    (tmp_path / "corpus.jsonl").write_text("old corpus\n")
    (tmp_path / "link.xml").symlink_to(dump)
    (tmp_path / "link.jsonl").symlink_to(tmp_path / "corpus.jsonl")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    argv = ["reconstruct", "--input", "dump.xml", "--output", output]
    rc = cli.main(argv + (["--stats", stats] if stats else []))
    assert rc == 1
    [err] = capsys.readouterr().err.splitlines()
    assert err.startswith("error: ") and str(Path(stats or output)) in err, err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_output_file_mode_follows_umask(tmp_path):
    dump = write_dump([figure_walkthrough_script()], tmp_path / "dump.xml")
    out = tmp_path / "corpus.jsonl"
    stats_path = tmp_path / "stats.json"
    old_umask = os.umask(0o027)
    try:
        run_pipeline(PipelineConfig(input_path=dump, output_path=out, stats_path=stats_path))
    finally:
        os.umask(old_umask)
    assert stat.S_IMODE(out.stat().st_mode) == 0o640
    assert stat.S_IMODE(stats_path.stat().st_mode) == 0o640


def test_stats_output(tmp_path):
    dump = write_dump([figure_walkthrough_script()], tmp_path / "dump.xml")
    out = tmp_path / "corpus.jsonl"
    stats_path = tmp_path / "stats.json"
    rc = cli.main(
        ["reconstruct", "--input", str(dump), "--output", str(out), "--stats", str(stats_path)]
    )
    assert rc == 0
    stats = json.loads(stats_path.read_text())
    assert stats["pages"] == 1
    assert stats["conversations"] == 1
    assert abs(sum(stats["type_breakdown"].values()) - 1.0) < 1e-9


def test_compressed_dumps_give_the_plain_dumps_output(tmp_path):
    """A bz2 copy of a shuffled dump, in two streams as Wikimedia's
    multistream files are, and a gzip copy give the plain dump's corpus and
    ``--stats`` bytes: for random trees, and for the gold suite with the
    zhwiki page, whose bz2 streams split inside a multi-byte character."""
    inputs = {
        "trees": [random_tree_script(seed, n_comments=12)[0] for seed in range(4)],
        "gold-suite-zh": gold_fixture_suite() + [chinese_talk_script()],
    }
    for kind, scripts in inputs.items():
        dump = write_dump(scripts, tmp_path / f"{kind}.xml", shuffle_seed=6)
        data = dump.read_bytes()
        half = len(data) // 2
        if kind == "gold-suite-zh":
            # the first UTF-8 continuation byte from the middle on
            half = next(i for i in range(half, len(data)) if data[i] & 0xC0 == 0x80)
        copies = {
            "plain": dump,
            "bz2": tmp_path / f"{kind}.xml.bz2",
            "gzip": tmp_path / f"{kind}.xml.gz",
        }
        copies["bz2"].write_bytes(bz2.compress(data[:half]) + bz2.compress(data[half:]))
        copies["gzip"].write_bytes(gzip.compress(data))
        outputs = {}
        for name, path in copies.items():
            out, stats = tmp_path / f"{kind}-{name}.jsonl", tmp_path / f"{kind}-{name}.json"
            argv = ["reconstruct", "--input", str(path), "--output", str(out), "--stats", str(stats)]
            assert cli.main(argv) == 0, (kind, name)
            outputs[name] = (out.read_bytes(), stats.read_bytes())
        assert outputs["plain"][0].count(b"\n") > 50, kind
        assert outputs["bz2"] == outputs["plain"], kind
        assert outputs["gzip"] == outputs["plain"], kind


def test_7z_and_truncated_dumps_are_one_error_line(tmp_path, capsys):
    """A 7z file is refused with a request to decompress it, and a
    compressed dump cut short is a malformed dump: one error line, exit 1,
    no output."""
    data = write_dump([figure_walkthrough_script()], tmp_path / "dump.xml").read_bytes()
    cases = {
        "dump.7z": (b"7z\xbc\xaf\x27\x1c\x00\x04" + bytes(64), "is a 7z archive: decompress it first"),
        "cut.xml.bz2": (bz2.compress(data)[:-40], "truncated dump"),
        "cut.xml.gz": (gzip.compress(data)[:-40], "truncated dump"),
    }
    for name, (content, message) in cases.items():
        path, out = tmp_path / name, tmp_path / f"{name}.jsonl"
        path.write_bytes(content)
        assert cli.main(["reconstruct", "--input", str(path), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and len(err.splitlines()) == 1, err
        assert not out.exists()


def test_env_var_overrides_flag_default(tmp_path, monkeypatch, capsys):
    dump = write_dump([figure_walkthrough_script()], tmp_path / "dump.xml")
    out = tmp_path / "corpus.jsonl"
    monkeypatch.setenv("WIKITALK_MAX_MEM_REVISIONS", "1")
    with pytest.raises(SystemExit) as exc:
        cli.main(["reconstruct", "--input", str(dump), "--output", str(out)])
    assert exc.value.code == 2
    assert "must be at least 2: 1" in capsys.readouterr().err
    assert not out.exists()
    monkeypatch.setenv("WIKITALK_MAX_MEM_REVISIONS", "2")
    rc = cli.main(["reconstruct", "--input", str(dump), "--output", str(out)])
    assert rc == 0
    assert out.exists()


def test_malformed_env_var_is_a_usage_error_of_its_subcommand(tmp_path, monkeypatch, capsys):
    dump = write_dump([figure_walkthrough_script()], tmp_path / "dump.xml")
    argv = ["reconstruct", "--input", str(dump), "--output", str(tmp_path / "corpus.jsonl")]
    monkeypatch.setenv("WIKITALK_RATE_LIMIT", "fast")  # read by no subcommand
    monkeypatch.setenv("WIKITALK_HORIZONS", "1x")
    monkeypatch.setenv("WIKITALK_PER_TYPE", "-1")
    assert cli.main(argv) == 0
    monkeypatch.setenv("WIKITALK_MAX_MEM_REVISIONS", "abc")
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err


def test_spill_variables_reach_reconstruct(tmp_path, monkeypatch, one_process):
    """WIKITALK_MAX_MEM_REVISIONS and WIKITALK_SPILL_DIR are how the
    benchmark sets a run's budget: a budget of 2 spills a shuffled
    multi-revision dump into a new nested directory, which the run creates,
    and gives the corpus bytes of the default budget."""
    scripts = [random_tree_script(seed, n_comments=12)[0] for seed in range(3)]
    dump = write_dump(scripts, tmp_path / "dump.xml", shuffle_seed=4)
    argv = ["reconstruct", "--input", str(dump), "--output"]
    assert cli.main(argv + [str(tmp_path / "default.jsonl")]) == 0
    spill = tmp_path / "spill" / "new" / "nested"
    spilled = []
    original = pipeline.sort_revisions

    def counting(revisions, budget, *_):
        stats = SortStats()
        yield from original(revisions, budget, stats)
        spilled.append((budget.max_in_memory_revisions, budget.spill_directory, stats.runs_spilled))

    monkeypatch.setattr(pipeline, "sort_revisions", counting)
    monkeypatch.setenv("WIKITALK_MAX_MEM_REVISIONS", "2")
    monkeypatch.setenv("WIKITALK_SPILL_DIR", str(spill))
    assert cli.main(argv + [str(tmp_path / "budget.jsonl")]) == 0
    assert spill.is_dir()
    assert [(budget, directory) for budget, directory, _ in spilled] == [(2, spill)] * 3
    assert all(runs > 0 for _, _, runs in spilled), spilled
    assert (tmp_path / "budget.jsonl").read_bytes() == (tmp_path / "default.jsonl").read_bytes()


def test_api_key_variable_is_the_flag_default(monkeypatch):
    argv = ["analytics", "score", "--corpus", "c", "--output", "o"]
    monkeypatch.setenv("WIKITALK_API_KEY", "from-env")
    assert cli.build_parser().parse_args(argv).api_key == "from-env"
    assert cli.build_parser().parse_args(argv + ["--api-key", "k"]).api_key == "k"


def test_output_variables_are_not_read(tmp_path, monkeypatch, capsys):
    """Only WIKITALK_MAX_MEM_REVISIONS, WIKITALK_SPILL_DIR and
    WIKITALK_API_KEY are read. WIKITALK_OUTPUT names no output: ``eval sample`` writes to stdout and leaves a corpus of that
    name as it was, and ``reconstruct`` still asks for its flags."""
    dump = write_dump([figure_walkthrough_script()], tmp_path / "dump.xml")
    corpus_path = tmp_path / "corpus.jsonl"
    assert cli.main(["reconstruct", "--input", str(dump), "--output", str(corpus_path)]) == 0
    before = corpus_path.read_bytes()
    capsys.readouterr()
    monkeypatch.setenv("WIKITALK_INPUT", str(dump))
    monkeypatch.setenv("WIKITALK_OUTPUT", str(corpus_path))
    assert cli.main(["eval", "sample", "--corpus", str(corpus_path), "--per-type", "1"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4
    assert corpus_path.read_bytes() == before
    with pytest.raises(SystemExit) as exc:
        cli.main(["reconstruct"])
    assert exc.value.code == 2
    assert "the following arguments are required: --input, --output" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analytics", "deletion-rate", "--scored", "s", "--horizons", "1h,30m"], "sorted ascending"),
        (["analytics", "deletion-rate", "--scored", "s", "--horizons", "1x"], "bad horizon '1x'"),
        (["analytics", "deletion-rate", "--scored", "s", "--horizons", ""], "no horizon given: ''"),
        (["analytics", "deletion-rate", "--scored", "s", "--horizons", ","], "no horizon given: ','"),
        (
            ["analytics", "deletion-rate", "--scored", "s", "--subset", "toxic",
             "--toxicity-threshold", "nan"],
            "must be finite: nan",
        ),
        (
            ["analytics", "deletion-rate", "--scored", "s", "--subset", "severe",
             "--severe-threshold", "inf"],
            "must be finite: inf",
        ),
        (["eval", "sample", "--corpus", "c", "--per-type", "-1"], "must not be negative"),
        (["reconstruct", "--input", "i", "--output", "o", "--max-mem-revisions", "1"],
         "must be at least 2: 1"),
        (["reconstruct", "--input", "i", "--output", "o", "--max-mem-revisions", "-3"],
         "must be at least 2: -3"),
        (
            ["analytics", "score", "--corpus", "c", "--output", "o", "--scorer", "http",
             "--endpoint", "http://localhost:1", "--rate-limit", "0"],
            "must be positive: 0",
        ),
        (
            ["analytics", "score", "--corpus", "c", "--output", "o", "--rate-limit", "-2"],
            "must be positive: -2",
        ),
        (
            ["analytics", "score", "--corpus", "c", "--output", "o", "--max-attempts", "0"],
            "must be positive: 0",
        ),
        (
            ["analytics", "score", "--corpus", "c", "--output", "o", "--max-attempts", "-1"],
            "must be positive: -1",
        ),
        (["eval", "sample", "--corpus", "c", "--per-type", "abc"], "invalid int value: 'abc'"),
        (
            ["analytics", "score", "--corpus", "c", "--output", "o", "--max-attempts", "x"],
            "invalid int value: 'x'",
        ),
        (
            ["analytics", "score", "--corpus", "c", "--output", "o", "--rate-limit", "fast"],
            "invalid float value: 'fast'",
        ),
        (
            ["analytics", "score", "--corpus", "c", "--output", "o", "--timeout", "0"],
            "must be positive: 0",
        ),
        (
            ["analytics", "score", "--corpus", "c", "--output", "o", "--timeout", "-1"],
            "must be positive: -1",
        ),
        (
            ["analytics", "score", "--corpus", "c", "--output", "o", "--scorer", "http"],
            "--scorer http requires --endpoint",
        ),
        (
            ["analytics", "deletion-rate", "--scored", "s", "--subset", "toxic"],
            "--subset toxic requires --toxicity-threshold",
        ),
        (
            ["analytics", "deletion-rate", "--scored", "s", "--subset", "severe",
             "--toxicity-threshold", "0.5"],
            "--subset severe requires --severe-threshold",
        ),
    ],
    ids=[
        "unsorted-horizons", "unknown-horizon-unit", "empty-horizons", "comma-horizons",
        "nan-toxicity-threshold", "infinite-severe-threshold", "negative-per-type",
        "one-max-mem-revisions", "negative-max-mem-revisions", "zero-rate-limit",
        "negative-rate-limit", "zero-max-attempts", "negative-max-attempts",
        "non-number-per-type", "non-number-max-attempts", "non-number-rate-limit",
        "zero-timeout", "negative-timeout", "http-without-endpoint",
        "toxic-without-threshold", "severe-without-threshold",
    ],
)
def test_bad_flag_value_is_a_usage_error(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and message in err


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "sample", "--corpus", "{}"],
        ["eval", "score", "--corpus", "{}", "--gold", "{}", "--report", "report.json"],
        ["eval", "score", "--corpus", "empty.jsonl", "--gold", "{}", "--report", "report.json"],
        ["analytics", "score", "--corpus", "{}", "--output", "scored.jsonl"],
        ["analytics", "eer", "--labeled", "{}"],
        ["analytics", "deletion-rate", "--scored", "{}"],
    ],
    ids=[
        "eval-sample", "eval-score", "eval-score-gold", "analytics-score", "analytics-eer",
        "deletion-rate",
    ],
)
def test_bad_analysis_input_is_one_error_line(tmp_path, monkeypatch, capsys, argv):
    """A missing input file, a line that is not a JSON object, or a record
    that lacks a field the subcommand reads or holds one of the wrong type
    ends an analysis subcommand with one error line, naming the file and
    line, and exit status 1."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "empty.jsonl").write_text(SCHEMA_HEADER + "\n")
    lines = {
        "bad": (SCHEMA_HEADER + "\nnot json", "line 2: not a JSON record"),
        "fieldless": ('{"a": 1}', "line 1: missing field '"),
        "list": ("[1, 2]", "line 1: not a JSON object"),
        "string": ('"text"', "line 1: not a JSON object"),
        # a wrong value in the first field each reader converts: score (eer),
        # timestamp (corpus actions) and gold_type (gold annotations)
        "null": (
            '{"score": null, "label": true, "timestamp": null, "action_id": "1.0.1",'
            ' "gold_type": null}',
            "line 1: bad field value (",
        ),
        "bad-time": (
            '{"score": "high", "label": true, "timestamp": "yesterday", "action_id": "1.0.1",'
            ' "gold_type": "BOGUS"}',
            "line 1: bad field value (",
        ),
    }
    cases = [(tmp_path / "missing.jsonl", "No such file")]
    for name, (text, message) in lines.items():
        path = tmp_path / f"{name}.jsonl"
        path.write_text(text + "\n")
        cases.append((path, f"{path}, {message}"))
    for path, message in cases:
        assert cli.main([str(path) if arg == "{}" else arg for arg in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and len(err.splitlines()) == 1, err


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "sample", "--corpus", "{}"],
        ["eval", "score", "--corpus", "{}", "--gold", "gold.jsonl", "--report", "report.json"],
        ["analytics", "score", "--corpus", "{}", "--output", "scored.jsonl"],
        ["analytics", "deletion-rate", "--scored", "{}"],
    ],
    ids=["eval-sample", "eval-score", "analytics-score", "deletion-rate"],
)
def test_corpus_record_with_non_string_id_is_one_error_line(tmp_path, monkeypatch, capsys, argv):
    """Every subcommand that reads corpus actions ends with one error line,
    naming the file and line, on a full record whose ``id`` is a number.
    ``eval score`` reads its gold file first, so that one is empty."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "gold.jsonl").write_text("")
    dump = write_dump([figure_walkthrough_script()], tmp_path / "dump.xml")
    run_pipeline(PipelineConfig(input_path=dump, output_path=tmp_path / "corpus.jsonl"))
    header, first, *_ = (tmp_path / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
    record = json.loads(first)
    record["id"] = 5
    path = tmp_path / "int-id.jsonl"
    path.write_text(f"{header}\n{json.dumps(record)}\n", encoding="utf-8")
    assert cli.main([str(path) if arg == "{}" else arg for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}, line 2: bad field value (") and len(err.splitlines()) == 1, err


def test_eer_label_that_is_not_a_boolean_is_one_error_line(tmp_path, capsys):
    """A label written as the string "false" is not read as a positive by
    its truthiness: ``analytics eer`` ends with one error line naming the
    file and line, and prints no threshold."""
    path = tmp_path / "labeled.jsonl"
    rows = [(0.2, "false"), (0.4, "false"), (0.6, True), (0.9, False)]
    path.write_text("".join(json.dumps({"score": s, "label": l}) + "\n" for s, l in rows))
    assert cli.main(["analytics", "eer", "--labeled", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        f"error: {path}, line 1: bad field value (label 'false' is not true or false)"
    ]


def test_eer_score_that_is_not_a_number_is_one_error_line(tmp_path, capsys):
    """A score written as a string or a boolean is not read as the number it
    spells: ``analytics eer`` ends with one error line naming the file and
    line, and prints no threshold."""
    path = tmp_path / "labeled.jsonl"
    for score in ("0.2", True):
        rows = [(0.1, False), (score, False), (0.6, True), (0.9, True)]
        path.write_text("".join(json.dumps({"score": s, "label": l}) + "\n" for s, l in rows))
        assert cli.main(["analytics", "eer", "--labeled", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            f"error: {path}, line 2: bad field value (score {score!r} is not a number)"
        ]


@pytest.mark.parametrize("field", ["toxicity", "severe_toxicity"])
def test_deletion_rate_score_that_is_not_a_number_is_one_error_line(tmp_path, capsys, field):
    """A toxicity score written as a string or a boolean ends
    ``analytics deletion-rate`` with one error line naming the file and
    line, not a comparison's traceback; numbers and null are read."""
    dump = write_dump([figure_walkthrough_script()], tmp_path / "dump.xml")
    run_pipeline(PipelineConfig(input_path=dump, output_path=tmp_path / "corpus.jsonl"))
    header, *lines = (tmp_path / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
    argv = ["analytics", "deletion-rate", "--subset", "toxic", "--toxicity-threshold", "0.5"]
    for score, readable in (("0.9", False), (True, False), (None, True), (1, True)):
        records = [{**json.loads(line), "toxicity": 0.1, "severe_toxicity": None} for line in lines]
        records[1][field] = score
        path = tmp_path / "scored.jsonl"
        path.write_text("\n".join([header, *map(json.dumps, records)]) + "\n", encoding="utf-8")
        code = cli.main([*argv, "--scored", str(path)])
        err = capsys.readouterr().err
        if readable:
            assert code == 0 and err == "", (score, err)
        else:
            assert code == 1, score
            assert err.splitlines() == [
                f"error: {path}, line 3: bad field value ({field} {score!r} is not a number or null)"
            ]


def test_repeated_gold_id_is_one_error_line(tmp_path, capsys):
    """A gold file that annotates one action twice ends ``eval score`` with
    one error line naming the action, exit status 1, and no report."""
    script = figure_walkthrough_script()
    dump = write_dump([script], tmp_path / "dump.xml")
    run_pipeline(PipelineConfig(input_path=dump, output_path=tmp_path / "corpus.jsonl"))
    gold = tmp_path / "gold.jsonl"
    with open(gold, "w", encoding="utf-8") as fh:
        write_gold(script.gold, fh)
    first = gold.read_text(encoding="utf-8").splitlines()[0]
    with open(gold, "a", encoding="utf-8") as fh:
        fh.write(first + "\n")
    report = tmp_path / "report.json"
    argv = ["eval", "score", "--corpus", str(tmp_path / "corpus.jsonl"), "--gold", str(gold)]
    assert cli.main(argv + ["--report", str(report)]) == 1
    err = capsys.readouterr().err
    action_id = json.loads(first)["action_id"]
    assert err.splitlines() == [f"error: duplicate gold annotation for {action_id}"], err
    assert not report.exists()


def test_nan_score_is_one_error_line(tmp_path, capsys):
    """JSON's ``NaN`` parses as a float, and a NaN score has no place in
    the order of scores: ``analytics eer`` refuses it with one error line
    naming the file and line, and exit status 1 instead of printing a
    threshold."""
    labeled = tmp_path / "labeled.jsonl"
    rows = [("0.1", "false"), ("NaN", "false"), ("0.9", "true"), ("0.5", "true")]
    labeled.write_text("".join(f'{{"score": {s}, "label": {y}}}\n' for s, y in rows))
    assert cli.main(["analytics", "eer", "--labeled", str(labeled)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {labeled}, line 2: bad field value (score nan is not a number)"
    ]


@pytest.mark.parametrize("via", ["path", "symlink"])
@pytest.mark.parametrize(
    "argv, target",
    [
        (["eval", "sample", "--corpus", "corpus.jsonl", "--output", "{}"], "corpus.jsonl"),
        (
            ["eval", "score", "--corpus", "corpus.jsonl", "--gold", "gold.jsonl", "--report", "{}"],
            "corpus.jsonl",
        ),
        (
            ["eval", "score", "--corpus", "corpus.jsonl", "--gold", "gold.jsonl", "--report", "{}"],
            "gold.jsonl",
        ),
        (["analytics", "score", "--corpus", "corpus.jsonl", "--output", "{}"], "corpus.jsonl"),
        (["analytics", "deletion-rate", "--scored", "scored.jsonl", "--output", "{}"], "scored.jsonl"),
    ],
    ids=["eval-sample", "eval-score-corpus", "eval-score-gold", "analytics-score", "deletion-rate"],
)
def test_analysis_output_naming_its_input_is_refused(tmp_path, monkeypatch, capsys, argv, target, via):
    """An analysis subcommand whose output resolves to one of its inputs,
    by the same path or through a symlink, would replace what it reads. It
    is refused with one error line and exit status 1 before anything is
    read or written, and every file is left as it was."""
    monkeypatch.chdir(tmp_path)
    script = figure_walkthrough_script()
    dump = write_dump([script], tmp_path / "dump.xml")
    run_pipeline(PipelineConfig(input_path=dump, output_path=tmp_path / "corpus.jsonl"))
    with open(tmp_path / "gold.jsonl", "w", encoding="utf-8") as fh:
        write_gold(script.gold, fh)
    assert cli.main(["analytics", "score", "--corpus", "corpus.jsonl", "--output", "scored.jsonl"]) == 0
    output = target
    if via == "symlink":
        output = "link.jsonl"
        (tmp_path / output).symlink_to(tmp_path / target)
    capsys.readouterr()
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert cli.main([output if arg == "{}" else arg for arg in argv]) == 1
    [err] = capsys.readouterr().err.splitlines()
    assert err.startswith(f"error: refusing to write {output}: it is the "), err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "sample", "--corpus", "bad.jsonl", "--output", "{}"],
        ["eval", "score", "--corpus", "bad.jsonl", "--gold", "bad.jsonl", "--report", "{}"],
        ["analytics", "score", "--corpus", "bad.jsonl", "--output", "{}"],
        ["analytics", "deletion-rate", "--scored", "bad.jsonl", "--output", "{}"],
    ],
    ids=["eval-sample", "eval-score", "analytics-score", "deletion-rate"],
)
def test_unwritable_analysis_output_fails_before_any_input_is_read(tmp_path, monkeypatch, capsys, argv):
    """An analysis subcommand opens its output before it reads an input: an
    output in a directory that does not exist ends the run with one error
    line naming that output, even when the input's first record is
    malformed, and nothing is written."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.jsonl").write_text(SCHEMA_HEADER + "\nnot json\n")
    output = str(tmp_path / "missing-dir" / "out.jsonl")
    assert cli.main([output if arg == "{}" else arg for arg in argv]) == 1
    [err] = capsys.readouterr().err.splitlines()
    assert err.startswith("error: ") and output in err and ".tmp" not in err, err
    assert [p.name for p in tmp_path.iterdir()] == ["bad.jsonl"]


def test_analytics_score_write_failure_keeps_old_output(tmp_path, monkeypatch, capsys):
    """``analytics score`` writes a temporary file beside its output: a
    write that fails part-way ends the run with one error line and leaves
    the old output as it was and no temporary file."""
    dump = write_dump([figure_walkthrough_script()], tmp_path / "dump.xml")
    corpus_path = tmp_path / "corpus.jsonl"
    run_pipeline(PipelineConfig(input_path=dump, output_path=corpus_path))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "scored.jsonl"
    out.write_bytes(b"old scores\n")
    calls = []
    original = corpus.serialize_action

    def fail_on_second_call(*args):
        calls.append(1)
        if len(calls) == 2:
            raise OSError(28, "No space left on device")
        return original(*args)

    monkeypatch.setattr(corpus, "serialize_action", fail_on_second_call)
    argv = ["analytics", "score", "--corpus", str(corpus_path), "--output", str(out)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.splitlines() == ["error: [Errno 28] No space left on device"]
    assert len(calls) == 2
    assert out.read_bytes() == b"old scores\n"
    assert [p.name for p in out_dir.iterdir()] == ["scored.jsonl"]


def test_eval_sample_notes_every_short_action_type(tmp_path, capsys):
    """``eval sample`` notes each action type with fewer actions than asked
    for, one with none among them, so a sample that lacks a type says so."""
    dump = write_dump([figure_walkthrough_script()], tmp_path / "dump.xml")
    corpus_path = tmp_path / "corpus.jsonl"
    run_pipeline(PipelineConfig(input_path=dump, output_path=corpus_path))
    with open(corpus_path, encoding="utf-8") as fh:
        population = Counter(a.type.value for a in read_actions(fh))
    assert cli.main(["eval", "sample", "--corpus", str(corpus_path), "--per-type", "2"]) == 0
    notes = capsys.readouterr().err.splitlines()[:-1]
    assert notes == [
        f"note: only {population[name]} {name} actions available; sampling all of them"
        for name in sorted(t.value for t in ActionType)
        if population[name] < 2
    ]
    assert "note: only 0 RESTORATION actions available; sampling all of them" in notes


def test_spill_budget_flags(tmp_path):
    script = PageScript("55", "Talk:Spill")
    t = script.new_thread("Spill test thread")
    script.commit()
    c = script.add_comment(t, "comment that keeps getting edited heavily")
    script.commit(user="a")
    for i in range(60):
        script.modify_comment(c, f"comment that keeps getting edited, pass {i}")
        script.commit(user=f"u{i % 3}")
    dump = write_dump([script], tmp_path / "dump.xml", shuffle_seed=2)
    out_small = tmp_path / "small.jsonl"
    out_big = tmp_path / "big.jsonl"
    spill = tmp_path / "spill"
    rc = cli.main(
        [
            "reconstruct", "--input", str(dump), "--output", str(out_small),
            "--max-mem-revisions", "5", "--spill-dir", str(spill),
        ]
    )
    assert rc == 0
    rc = cli.main(["reconstruct", "--input", str(dump), "--output", str(out_big)])
    assert rc == 0
    assert out_small.read_bytes() == out_big.read_bytes()


def test_eval_cli_sample_and_score(tmp_path, capsys):
    script = figure_walkthrough_script()
    dump = write_dump([script], tmp_path / "dump.xml")
    corpus_path = tmp_path / "corpus.jsonl"
    cli.main(["reconstruct", "--input", str(dump), "--output", str(corpus_path)])

    sample_path = tmp_path / "sample.jsonl"
    rc = cli.main(
        [
            "eval", "sample", "--corpus", str(corpus_path),
            "--per-type", "2", "--seed", "7", "--output", str(sample_path),
        ]
    )
    assert rc == 0
    assert sample_path.read_text().strip()

    gold_path = tmp_path / "gold.jsonl"
    with open(gold_path, "w", encoding="utf-8") as fh:
        write_gold(script.gold, fh)
    report_path = tmp_path / "report.json"
    rc = cli.main(
        [
            "eval", "score", "--corpus", str(corpus_path),
            "--gold", str(gold_path), "--report", str(report_path),
        ]
    )
    assert rc == 0
    rows = json.loads(report_path.read_text())
    all_row = next(r for r in rows if r["action_type"] == "ALL")
    assert all(all_row[d] == 1.0 for d in ("boundary", "type", "replyto", "parent"))
    out = capsys.readouterr().out
    assert "ALL" in out


def test_analytics_cli_flow(tmp_path, capsys):
    dump = write_dump([figure_walkthrough_script()], tmp_path / "dump.xml")
    corpus_path = tmp_path / "corpus.jsonl"
    cli.main(["reconstruct", "--input", str(dump), "--output", str(corpus_path)])

    scored_path = tmp_path / "scored.jsonl"
    rc = cli.main(
        ["analytics", "score", "--corpus", str(corpus_path), "--output", str(scored_path)]
    )
    assert rc == 0
    lines = scored_path.read_text().splitlines()
    assert lines[0] == SCORED_SCHEMA_HEADER
    assert all("toxicity" in line for line in lines[1:])

    labeled = tmp_path / "labeled.jsonl"
    with open(labeled, "w", encoding="utf-8") as fh:
        for s, y in [(0.2, False), (0.4, False), (0.6, True), (0.9, True)]:
            fh.write(json.dumps({"score": s, "label": y}) + "\n")
    rc = cli.main(["analytics", "eer", "--labeled", str(labeled)])
    assert rc == 0
    threshold = json.loads(capsys.readouterr().out.strip())["threshold"]
    assert 0.4 < threshold <= 0.9

    rc = cli.main(
        [
            "analytics", "deletion-rate", "--scored", str(scored_path),
            "--horizons", "1h,1d", "--subset", "all",
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rates"][0]["rate"] == pytest.approx(0.25)


def test_deletion_rate_labels_skip_empty_horizons(tmp_path, capsys):
    dump = write_dump([figure_walkthrough_script()], tmp_path / "dump.xml")
    corpus_path = tmp_path / "corpus.jsonl"
    scored_path = tmp_path / "scored.jsonl"
    cli.main(["reconstruct", "--input", str(dump), "--output", str(corpus_path)])
    cli.main(["analytics", "score", "--corpus", str(corpus_path), "--output", str(scored_path)])
    capsys.readouterr()

    def rates(horizons):
        argv = ["analytics", "deletion-rate", "--scored", str(scored_path), "--horizons", horizons]
        assert cli.main(argv) == 0
        return json.loads(capsys.readouterr().out)["rates"]

    padded = rates("1h,,7d")
    assert [row["horizon"] for row in padded] == ["1h", "7d"]
    assert padded == rates("1h,7d")


def test_deletion_rate_page_split_in_two_is_one_error_line(tmp_path, capsys):
    """``analytics deletion-rate`` joins deletions one page at a time, so a
    scored corpus whose first page comes back after the second ends the run
    with one error line naming the page, exit status 1, and no output."""
    dump = write_dump(gold_fixture_suite()[:2], tmp_path / "dump.xml")
    corpus_path = tmp_path / "corpus.jsonl"
    scored_path = tmp_path / "scored.jsonl"
    cli.main(["reconstruct", "--input", str(dump), "--output", str(corpus_path)])
    cli.main(["analytics", "score", "--corpus", str(corpus_path), "--output", str(scored_path)])
    header, *lines = scored_path.read_text(encoding="utf-8").splitlines()
    first = json.loads(lines[0])["page_id"]
    split = [header, *lines[1:], lines[0]]
    assert json.loads(lines[-1])["page_id"] != first
    scored_path.write_text("\n".join(split) + "\n", encoding="utf-8")
    capsys.readouterr()
    output = tmp_path / "rates.json"
    argv = ["analytics", "deletion-rate", "--scored", str(scored_path), "--output", str(output)]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"error: page {first} reappears after another page"]
    assert not output.exists()
    assert not list(tmp_path.glob(".rates.json.*"))
