"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion; any assertion failure marks that criterion red.
"""

import random
import time
from collections import Counter
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from tests.conftest import apply_diff, equal_token_count, revision_records
from wikitalk.actions import ActionType
from wikitalk.analytics import ScoredComment, deletion_rate, equal_error_threshold
from wikitalk.clean import clean_markup
from wikitalk.corpus import read_actions
from wikitalk.diff import lcs_diff
from wikitalk.evalharness import DIMENSIONS, score_against_gold
from wikitalk.pipeline import PipelineConfig, run_pipeline
from wikitalk.reconstruct import reconstruct_page
from wikitalk.synth import (
    PageScript,
    figure_walkthrough_script,
    gold_fixture_suite,
    random_tree_script,
    write_dump,
)
from wikitalk.tokenizer import tokenize

BASE = datetime(2014, 1, 1, tzinfo=timezone.utc)


def _report(n, text):
    print(f"\nACCEPTANCE {n}: PASS — {text}")


def test_criterion_1_figure_scenario(tmp_path):
    started = time.perf_counter()
    script = figure_walkthrough_script()
    dump = write_dump([script], tmp_path / "dump.xml")
    out = tmp_path / "corpus.jsonl"
    run_pipeline(PipelineConfig(input_path=dump, output_path=out))
    with open(out, encoding="utf-8") as fh:
        actions = list(read_actions(fh))
    counts = Counter(a.type for a in actions)
    assert counts == {
        ActionType.CREATION: 1,
        ActionType.ADDITION: 3,
        ActionType.DELETION: 1,
        ActionType.MODIFICATION: 1,
    }
    by_rev = {}
    for a in actions:
        by_rev.setdefault(a.revision_id, []).append(a)
    # the abusive comment arrives in revision 3 and is removed in revision 4
    abusive = by_rev["1003"][0]
    assert abusive.type is ActionType.ADDITION
    deletion = by_rev["1004"][0]
    assert deletion.type is ActionType.DELETION
    assert deletion.parent_id == abusive.action_id
    assert deletion.content == abusive.content
    # reply wiring: creation <- c1 <- c2 <- abusive
    creation = by_rev["1001"][0]
    c1, c2 = by_rev["1002"]
    assert c1.replyto_id == creation.action_id
    assert c2.replyto_id == c1.action_id
    assert abusive.replyto_id == c2.action_id
    modification = by_rev["1005"][0]
    assert modification.parent_id == c1.action_id
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(1, f"figure scenario reconstructed exactly in {elapsed:.2f}s")


def chinese_talk_script() -> PageScript:
    """A zhwiki-style page: CJK headings and comments, each signed the way
    zhwiki signatures render, ending in ``(UTC)``; it has additions,
    modifications, deletions, a thread deletion and restorations."""
    script = PageScript("86", "Talk:长城")
    users = ["张三", "李四", "王五", "赵六"]
    revisions = 0

    def say(text):
        user = users[revisions % len(users)]
        return (
            f"{text}——[[User:{user}|{user}]]（[[User talk:{user}|留言]]）"
            f"2018年3月{revisions + 1}日 (四) {revisions:02d}:{revisions:02d} (UTC)"
        )

    def reply(target, text):
        return script.add_comment(target, say(text), sign=False)

    def commit():
        nonlocal revisions
        script.commit(user=users[revisions % len(users)], user_id=revisions % len(users) + 1)
        revisions += 1

    sources = script.new_thread("关于条目来源的讨论")
    commit()
    a = reply(sources, "我认为应该补充明代修筑长城的史料来源。")
    commit()
    b = reply(a, "同意，可以引用《明史》中的相关记载。")
    c = reply(a, "建议同时参考近年的考古发掘报告。")
    commit()
    script.modify_comment(a, say("我认为应该补充明代和秦代修筑长城的史料来源。"), sign=False)
    commit()
    names = script.new_thread("条目名称")
    commit()
    d = reply(names, "是否应该改名为“万里长城”？请大家讨论。")
    commit()
    e = reply(d, "反对，“长城”是更常用的名称。")
    commit()
    spam = reply(e, "这里全是废话，没有人在乎这个条目！！！")
    commit()
    script.delete_comment(spam)
    commit()
    f = reply(b, "《明史·兵志》第三卷有详细的描述，可以作为来源。")
    commit()
    script.delete_comment(c)
    commit()
    script.reinsert_comment(c)
    commit()
    script.modify_comment(e, say("反对，“长城”是更常用、更简洁的名称。"), sign=False)
    commit()
    script.reinsert_comment(spam)
    commit()
    for i in range(6):
        reply(f if i % 2 else d, f"第{i + 1}条补充意见：相关段落需要重新整理。")
        commit()
    script.delete_thread(names)
    commit()
    return script


def test_criterion_2_gold_fixture_suite():
    suite = gold_fixture_suite() + [chinese_talk_script()]
    assert len(suite) >= 20
    all_actions, all_gold = [], []
    for script in suite:
        all_actions.extend(reconstruct_page(revision_records(script)))
        all_gold.extend(script.gold)
    assert {a.type for a in all_actions} == set(ActionType)
    table = score_against_gold(all_actions, all_gold)
    for dim in DIMENSIONS:
        assert table.accuracy(None, dim) == 1.0, table.render()
    for type_name in (t.value for t in ActionType):
        for dim in DIMENSIONS:
            assert table.accuracy(type_name, dim) == 1.0, table.render()
    _report(
        2,
        f"{len(suite)} fixtures, {table.sample_count(None)} gold actions, "
        "100% on boundary/type/replyto/parent",
    )


def test_criterion_3_diff_round_trip_and_dp_oracle():
    def dp_lcs_len(a, b):
        table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
        for i in range(len(a) - 1, -1, -1):
            for j in range(len(b) - 1, -1, -1):
                table[i][j] = (
                    table[i + 1][j + 1] + 1 if a[i] == b[j] else max(table[i + 1][j], table[i][j + 1])
                )
        return table[0][0]

    started = time.perf_counter()
    rng = random.Random(42)
    words = ["alpha", "beta", "gamma", "::", "==", "x9", "(UTC)", "~~~~"]
    for trial in range(1000):
        n1, n2 = rng.randrange(0, 160), rng.randrange(0, 160)
        a = " ".join(rng.choice(words) for _ in range(n1)).replace("x9", "x9\n")
        b = " ".join(rng.choice(words) for _ in range(n2)).replace("x9", "x9\n")
        sa, sb = tokenize(a), tokenize(b)
        assert apply_diff(sa, sb, lcs_diff(sa, sb))[:] == sb[:]
    checked = 0
    for trial in range(1200):
        n1, n2 = rng.randrange(0, 13), rng.randrange(0, 13)
        a = " ".join(rng.choice("abc") for _ in range(n1))
        b = " ".join(rng.choice("abc") for _ in range(n2))
        sa, sb = tokenize(a), tokenize(b)
        if len(sa) <= 12 and len(sb) <= 12:
            script = lcs_diff(sa, sb)
            assert apply_diff(sa, sb, script)[:] == sb[:]
            assert equal_token_count(script) == dp_lcs_len(sa[:], sb[:])
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(3, f"1000 round-trips + {checked} DP-oracle checks in {elapsed:.1f}s")


def test_criterion_4_restoration_bounds():
    # (a) 200-char deleted comment, verbatim re-insertion -> Restoration
    s = PageScript("501", "Talk:Bounds")
    t = s.new_thread("Store bounds behaviour")
    s.commit()
    two_hundred = ("substantive point " * 12)[:196].strip()
    c = s.add_comment(t, two_hundred)
    s.commit(user="a")
    s.delete_comment(c)
    s.commit(user="mod")
    _, expected = s.reinsert_comment(c)
    assert expected is ActionType.RESTORATION
    s.commit(user="restorer")
    actions = list(reconstruct_page(revision_records(s)))
    assert actions[-1].type is ActionType.RESTORATION

    # (b) 7-char deleted text re-added -> Addition (below the store floor)
    s = PageScript("502", "Talk:Short")
    t = s.new_thread("Short text bounds")
    s.commit()
    c = s.add_comment(t, "Thanks!")
    s.commit(user="a")
    s.delete_comment(c)
    s.commit(user="mod")
    _, expected = s.reinsert_comment(c)
    assert expected is ActionType.ADDITION
    s.commit(user="a")
    actions = list(reconstruct_page(revision_records(s)))
    assert actions[-1].type is ActionType.ADDITION

    # (c) re-insertion after 101 intervening deletions -> Addition (FIFO)
    s = PageScript("503", "Talk:Evict")
    t = s.new_thread("Eviction bounds")
    s.commit()
    first = s.add_comment(t, "original comment that will be evicted from the store")
    s.commit(user="a")
    s.delete_comment(first)
    s.commit(user="mod")
    churn = []
    for i in range(101):
        c = s.add_comment(t, f"filler comment number {i:03d} long enough to store")
        s.commit(user=f"w{i % 5}")
        churn.append(c)
    for i, c in enumerate(churn):
        s.delete_comment(c)
        s.commit(user=f"m{i % 3}")
    _, expected = s.reinsert_comment(first)
    assert expected is ActionType.ADDITION
    s.commit(user="a")
    actions = list(reconstruct_page(revision_records(s)))
    assert actions[-1].type is ActionType.ADDITION
    _report(4, "200-char restoration, 7-char and post-eviction re-adds behave per store bounds")


def _write_big_page_dump(path: Path, n: int) -> None:
    order = list(range(n))
    random.Random(99).shuffle(order)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('<mediawiki xmlns="http://www.mediawiki.org/xml/export-0.10/">\n')
        fh.write("<page><title>Talk:Busy</title><ns>1</ns><id>9</id>\n")
        for i in order:
            ts = BASE + timedelta(minutes=30 * i)
            text = f"== Busy thread ==\ncomment body revision {i} content with words ~~~~\n"
            fh.write(
                f"<revision><id>{5_000_000 + i}</id>"
                f"<timestamp>{ts.strftime('%Y-%m-%dT%H:%M:%SZ')}</timestamp>"
                f"<contributor><username>u{i % 17}</username><id>{i % 17}</id></contributor>"
                f'<text xml:space="preserve">{text}</text></revision>\n'
            )
        fh.write("</page></mediawiki>\n")


def test_criterion_5_external_sort_equivalence(tmp_path):
    started = time.perf_counter()
    n = 100_000
    dump = tmp_path / "big.xml"
    _write_big_page_dump(dump, n)
    spill = tmp_path / "spill"
    external = tmp_path / "external.jsonl"
    in_memory = tmp_path / "inmemory.jsonl"
    report = run_pipeline(
        PipelineConfig(
            input_path=dump,
            output_path=external,
            max_in_memory_revisions=1_000,
            spill_dir=spill,
        )
    )
    assert report.actions_written == n + 1
    run_pipeline(
        PipelineConfig(
            input_path=dump,
            output_path=in_memory,
            max_in_memory_revisions=200_000,
            spill_dir=spill,
        )
    )
    assert external.read_bytes() == in_memory.read_bytes()
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    _report(5, f"{n}-revision page: external and in-memory corpora byte-identical in {elapsed:.0f}s")


def test_criterion_6_dump_order_determinism(tmp_path):
    scripts = gold_fixture_suite()[:10]
    forward = write_dump(scripts, tmp_path / "forward.xml", shuffle_seed=3)
    backward = write_dump(scripts[::-1], tmp_path / "backward.xml", shuffle_seed=29)
    out_forward = tmp_path / "forward.jsonl"
    out_backward = tmp_path / "backward.jsonl"
    run_pipeline(PipelineConfig(input_path=forward, output_path=out_forward))
    run_pipeline(PipelineConfig(input_path=backward, output_path=out_backward))
    assert out_forward.read_bytes() == out_backward.read_bytes()
    _report(6, "pages and revisions in two dump orders: corpora byte-identical")


def test_criterion_7_eer_oracle():
    rng = random.Random(2024)
    scores, labels = [], []
    for _ in range(1000):
        y = rng.random() < 0.4
        s = min(1.0, max(0.0, rng.gauss(0.65 if y else 0.35, 0.18)))
        scores.append(round(s, 3))
        labels.append(y)
    t = equal_error_threshold(scores, labels)

    def gap_at(threshold):
        fp = sum(1 for s, y in zip(scores, labels) if s >= threshold and not y)
        fn = sum(1 for s, y in zip(scores, labels) if s < threshold and y)
        return abs(fp - fn)

    best_gap = min(gap_at(c) for c in set(scores))
    assert gap_at(t) == best_gap
    winners = [c for c in set(scores) if gap_at(c) == best_gap]
    assert t == max(winners)
    _report(7, f"EER threshold {t:.3f} matches exhaustive scan (|FP-FN|={best_gap})")


def test_criterion_8_deletion_rate_oracle():
    rng = random.Random(7)
    base = datetime(2017, 6, 1, tzinfo=timezone.utc)
    comments = []
    for i in range(10_000):
        author = f"u{rng.randrange(40)}"
        created_at = base + timedelta(seconds=rng.randrange(10**6))
        deleted_after = None
        deleter = None
        if rng.random() < 0.35:
            deleted_after = timedelta(seconds=rng.randrange(1, 4 * 10**7))
            deleter = author if rng.random() < 0.25 else f"m{rng.randrange(10)}"
        comments.append(
            ScoredComment(
                action_id=f"{i}.0.9",
                toxicity=rng.random(),
                severe_toxicity=rng.random(),
                author=author,
                created_at=created_at,
                deleted_at=created_at + deleted_after if deleted_after else None,
                deleted_by=deleter,
            )
        )
    horizons = [
        timedelta(hours=1), timedelta(hours=6), timedelta(days=1),
        timedelta(days=7), timedelta(days=30), timedelta(days=365),
    ]
    for subset, threshold in (("all", None), ("toxic", 0.7), ("severe", 0.8)):
        rates = deletion_rate(
            comments, horizons, subset=subset,
            toxicity_threshold=threshold, severe_threshold=threshold,
        )
        if subset == "all":
            pool = comments
        elif subset == "toxic":
            pool = [c for c in comments if c.toxicity is not None and c.toxicity >= threshold]
        else:
            pool = [c for c in comments if c.severe_toxicity is not None and c.severe_toxicity >= threshold]
        for h, rate in zip(horizons, rates):
            brute = sum(
                1
                for c in pool
                if c.deleted_at is not None
                and c.deleted_by is not None
                and c.deleted_by != c.author
                and c.deleted_at - c.created_at <= h
            )
            assert rate == pytest.approx(brute / len(pool))
        assert rates == sorted(rates)
    _report(8, "deletion rates equal brute-force recount and are monotone on 10k comments")


def test_criterion_9_cleaner_totality():
    started = time.perf_counter()
    rng = random.Random(11)
    seeds = [
        "== head ==\n:reply [[a|b]] {{tpl}} ''i'' ~~~~\n",
        "[http://x y] <b>z</b> <!-- c --> plain",
        "{{a|{{b|{{c}}}}}}[[d]] ''italic'' :::deep",
        "ordinary sentence with no markup at all",
    ]
    chars = "[]{}='~:*<>ab |\n!#"
    worst = 0.0
    for i in range(100_000):
        base = list(rng.choice(seeds))
        for _ in range(rng.randrange(0, 8)):
            pos = rng.randrange(0, len(base) + 1)
            base.insert(pos, rng.choice(chars))
        text = "".join(base)
        t0 = time.perf_counter()
        result = clean_markup(text)
        worst = max(worst, time.perf_counter() - t0)
        if result.fallback:
            assert result.text == text
    elapsed = time.perf_counter() - started
    assert worst < 0.25, f"single input took {worst:.3f}s"
    assert elapsed < 120.0
    _report(9, f"100000 fuzz inputs cleaned in {elapsed:.1f}s, worst single input {worst * 1000:.1f}ms")


def test_criterion_10_replyto_recovery():
    total = correct = 0
    for seed in range(50):
        script, edges = random_tree_script(seed, n_comments=14)
        predicted = {
            a.action_id: a.replyto_id for a in reconstruct_page(revision_records(script))
        }
        for action_id, want in edges.items():
            total += 1
            if predicted.get(action_id) == want:
                correct += 1
    rate = correct / total
    assert rate >= 0.98, f"recovered {correct}/{total}"
    _report(10, f"reply edges recovered: {correct}/{total} ({rate:.1%})")
