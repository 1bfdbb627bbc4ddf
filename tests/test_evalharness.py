import dataclasses
import io
import random
import tracemalloc
import weakref
from collections import Counter

import pytest

from tests.conftest import random_action
from wikitalk.actions import ActionType
from wikitalk.corpus import read_records
from wikitalk.evalharness import (
    DIMENSIONS,
    GoldAnnotation,
    GoldValidationError,
    read_gold,
    sample_for_review,
    score_against_gold,
    write_gold,
)


def corpus_with_all_types(rng, n=10):
    actions = []
    for i in range(n):
        a = random_action(rng, i)
        a.type = list(ActionType)[i % 5]
        if a.type is ActionType.CREATION:
            a.replyto_id = None
            a.parent_id = None
        elif a.type is ActionType.ADDITION:
            a.parent_id = None
        elif a.parent_id is None:
            a.parent_id = "p.0.1"
        actions.append(a)
    return actions


def to_gold(a) -> GoldAnnotation:
    return GoldAnnotation(
        action_id=a.action_id,
        gold_type=a.type,
        gold_span=a.char_span,
        gold_replyto=a.replyto_id,
        gold_parent=a.parent_id,
    )


def test_sample_two_per_type(rng):
    actions = corpus_with_all_types(rng, 10)
    sampled = sample_for_review(actions, 2, seed=1)
    assert len(sampled) == 10
    assert Counter(a.type for a in sampled) == Counter({t: 2 for t in ActionType})


def test_sample_deterministic(rng):
    actions = corpus_with_all_types(rng, 500)
    first = [a.action_id for a in sample_for_review(actions, 10, seed=42)]
    second = [a.action_id for a in sample_for_review(actions, 10, seed=42)]
    third = [a.action_id for a in sample_for_review(actions, 10, seed=43)]
    assert first == second
    assert first != third


def test_sample_small_population_returns_all(rng):
    actions = corpus_with_all_types(rng, 5)
    sampled = sample_for_review(actions, 100, seed=0)
    assert len(sampled) == 5


def test_sampling_uniform_chi_square(rng):
    from scipy.stats import chisquare

    actions = []
    for i in range(1000):
        a = random_action(rng, i)
        a.type = ActionType.ADDITION
        a.parent_id = None
        a.action_id = f"{i}.0.1"
        actions.append(a)
    counts = Counter()
    for seed in range(100):
        for a in sample_for_review(actions, 100, seed=seed):
            counts[a.action_id] += 1
    observed = [counts.get(a.action_id, 0) for a in actions]
    result = chisquare(observed)
    assert result.pvalue > 0.01


def test_perfect_corpus_scores_one(rng):
    actions = corpus_with_all_types(rng, 20)
    table = score_against_gold(actions, [to_gold(a) for a in actions])
    for dim in DIMENSIONS:
        assert table.accuracy(None, dim) == 1.0
    assert table.sample_count(None) == 20


def test_one_wrong_type_among_ten(rng):
    actions = corpus_with_all_types(rng, 10)
    gold = [to_gold(a) for a in actions]
    flipped = actions[0]
    flipped.type = (
        ActionType.DELETION if flipped.type is not ActionType.DELETION else ActionType.MODIFICATION
    )
    flipped.parent_id = flipped.parent_id or "p.0.1"
    gold_fixed = [
        g if g.action_id != flipped.action_id else
        GoldAnnotation(g.action_id, ActionType.ADDITION, g.gold_span, g.gold_replyto, g.gold_parent)
        for g in gold
    ]
    table = score_against_gold(actions, gold_fixed)
    assert table.accuracy(None, "type") == pytest.approx(0.9)


def test_missing_id_wrong_on_all_dimensions(rng):
    actions = corpus_with_all_types(rng, 10)
    gold = [to_gold(a) for a in actions]
    gold.append(GoldAnnotation("ghost.0.1", ActionType.ADDITION, (0, 1), None, None))
    table = score_against_gold(actions, gold)
    assert table.missing_ids == ["ghost.0.1"]
    for dim in DIMENSIONS:
        assert table.accuracy(None, dim) == pytest.approx(10 / 11)


def test_duplicate_gold_fatal(rng):
    actions = corpus_with_all_types(rng, 4)
    gold = [to_gold(actions[0]), to_gold(actions[0])]
    with pytest.raises(GoldValidationError):
        score_against_gold(actions, gold)


def test_scoring_permutation_invariant(rng):
    actions = corpus_with_all_types(rng, 30)
    gold = [to_gold(a) for a in actions]
    shuffled = list(gold)
    random.Random(5).shuffle(shuffled)
    a_table = score_against_gold(actions, gold)
    b_table = score_against_gold(actions, shuffled)
    assert a_table.to_records() == b_table.to_records()


def test_corpus_is_scored_one_action_at_a_time(rng):
    """The corpus is read as a stream: an action read two actions ago is
    no longer held. Of two actions with one id, the later one counts."""
    actions = corpus_with_all_types(rng, 10)
    gold = [to_gold(a) for a in actions]
    wrong = dataclasses.replace(actions[3], char_span=(-1, -1))

    def stream(items):
        read = []
        for item in items:
            assert len(read) < 2 or read[-2]() is None
            item = dataclasses.replace(item)
            read.append(weakref.ref(item))
            yield item

    later_right = score_against_gold(stream([wrong, *actions]), gold)
    later_wrong = score_against_gold(stream([*actions, wrong]), gold)
    assert later_right.accuracy(None, "boundary") == 1.0
    assert later_wrong.accuracy(None, "boundary") == pytest.approx(9 / 10)
    assert later_right.accuracy(None, "type") == later_wrong.accuracy(None, "type") == 1.0


def test_null_equals_null_counts_correct(rng):
    a = random_action(rng, 0)
    a.type = ActionType.CREATION
    a.replyto_id = None
    a.parent_id = None
    table = score_against_gold([a], [to_gold(a)])
    assert table.accuracy(None, "replyto") == 1.0
    assert table.accuracy(None, "parent") == 1.0


def test_gold_file_round_trip(rng):
    gold = [to_gold(a) for a in corpus_with_all_types(rng, 12)]
    sink = io.StringIO()
    assert write_gold(gold, sink) == 12
    back = read_gold(io.StringIO(sink.getvalue()))
    assert back == gold


def test_render_table_mentions_all_row(rng):
    actions = corpus_with_all_types(rng, 10)
    table = score_against_gold(actions, [to_gold(a) for a in actions])
    text = table.render()
    assert "ALL" in text and "boundary" in text


def test_read_gold_holds_each_annotation_in_a_tuples_room():
    """An annotation that ``read_gold`` holds costs no more than a tuple of
    the same five fields (``GoldAnnotation`` has slots, not a ``__dict__``):
    with a ``__dict__`` it held about 32 bytes more. Measured under
    tracemalloc as the growth from 2,000 to 10,000 annotations, after a
    first read of 2,000 has filled the caches."""
    types = list(ActionType)
    texts = {}
    for n in (2000, 10_000):
        sink = io.StringIO()
        write_gold((GoldAnnotation(f"{i}.0.{i}", types[i % 5], (0, 10), f"{i}.0.1", None) for i in range(n)), sink)
        texts[n] = sink.getvalue()

    def held(read, n):
        source = io.StringIO(texts[n])
        tracemalloc.start()
        try:
            kept = read(source)
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    def growth(read):
        sizes = [held(read, n) for n in (2000, 2000, 10_000)]
        return (sizes[2] - sizes[1]) / 8000

    def as_tuples(source):
        def fields(r):
            return r["action_id"], ActionType(r["gold_type"]), tuple(r["gold_span"]), r["gold_replyto"], r["gold_parent"]

        return list(read_records(source, fields))

    assert growth(read_gold) <= growth(as_tuples) + 8
