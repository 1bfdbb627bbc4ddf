"""Reconstruction-quality evaluation against gold annotations.

Mirrors the review protocol: draw a fixed-size random sample from each
action category, have annotations produced for the sampled actions, then
score four dimensions per action: comment boundary (exact span), assigned
type, ReplyTo relation, and Parent relation.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import IO, Iterable, Optional

from wikitalk.actions import Action, ActionType
from wikitalk.corpus import read_records

DIMENSIONS = ("boundary", "type", "replyto", "parent")


class GoldValidationError(ValueError):
    pass


@dataclass(frozen=True)
class GoldAnnotation:
    action_id: str
    gold_type: ActionType
    gold_span: tuple[int, int]
    gold_replyto: Optional[str]
    gold_parent: Optional[str]


@dataclass
class DimensionScore:
    correct: int = 0
    total: int = 0

    @property
    def accuracy(self) -> float:
        return self.correct / self.total if self.total else 0.0


@dataclass
class AccuracyTable:
    per_type: dict[str, dict[str, DimensionScore]] = field(default_factory=dict)
    overall: dict[str, DimensionScore] = field(default_factory=dict)
    missing_ids: list[str] = field(default_factory=list)

    def accuracy(self, action_type: Optional[str], dimension: str) -> float:
        table = self.overall if action_type is None else self.per_type[action_type]
        return table[dimension].accuracy

    def sample_count(self, action_type: Optional[str] = None) -> int:
        table = self.overall if action_type is None else self.per_type[action_type]
        return table[DIMENSIONS[0]].total

    def to_records(self) -> list[dict]:
        rows = []
        for name in sorted(self.per_type):
            row = {"action_type": name, "samples": self.sample_count(name)}
            for dim in DIMENSIONS:
                row[dim] = self.accuracy(name, dim)
            rows.append(row)
        row = {"action_type": "ALL", "samples": self.sample_count(None)}
        for dim in DIMENSIONS:
            row[dim] = self.accuracy(None, dim)
        rows.append(row)
        return rows

    def render(self) -> str:
        lines = [
            f"{'action type':<14} {'n':>6} " + " ".join(f"{d:>9}" for d in DIMENSIONS)
        ]
        for row in self.to_records():
            cells = " ".join(f"{row[d] * 100:8.1f}%" for d in DIMENSIONS)
            lines.append(f"{row['action_type']:<14} {row['samples']:>6} {cells}")
        if self.missing_ids:
            lines.append(f"missing from corpus: {len(self.missing_ids)}")
        return "\n".join(lines)


def sample_for_review(
    actions: Iterable[Action], n_per_type: int, seed: int
) -> list[Action]:
    """Uniform without-replacement sample of n actions per type.

    A type with fewer than n actions contributes its full population.
    Deterministic for a given seed; output keeps per-type draw order.
    """
    by_type: dict[str, list[Action]] = {t.value: [] for t in ActionType}
    for action in actions:
        by_type[action.type.value].append(action)
    rng = random.Random(seed)
    sampled: list[Action] = []
    for name in sorted(by_type):
        population = by_type[name]
        if len(population) <= n_per_type:
            sampled.extend(population)
        else:
            sampled.extend(rng.sample(population, n_per_type))
    return sampled


def score_against_gold(
    predicted: Iterable[Action], gold: Iterable[GoldAnnotation]
) -> AccuracyTable:
    """Four-dimension accuracy of a corpus against gold annotations.

    ``predicted`` is read one action at a time, and only the outcomes of
    actions with a gold id are kept; when two actions share an id, the
    later one counts. Gold ids absent from the corpus count as wrong on
    every dimension. Duplicate gold ids are a validation error.
    """
    by_id: dict[str, GoldAnnotation] = {}
    for g in gold:
        if g.action_id in by_id:
            raise GoldValidationError(f"duplicate gold annotation for {g.action_id}")
        by_id[g.action_id] = g

    outcomes: dict[str, tuple[bool, ...]] = {}  # in DIMENSIONS order
    for action in predicted:
        g = by_id.get(action.action_id)
        if g is not None:
            outcomes[g.action_id] = (
                action.char_span == g.gold_span,
                action.type == g.gold_type,
                action.replyto_id == g.gold_replyto,
                action.parent_id == g.gold_parent,
            )
    table = AccuracyTable(
        per_type={t.value: {d: DimensionScore() for d in DIMENSIONS} for t in ActionType},
        overall={d: DimensionScore() for d in DIMENSIONS},
    )
    for g in by_id.values():
        outcome = outcomes.get(g.action_id)
        if outcome is None:
            table.missing_ids.append(g.action_id)
            outcome = (False,) * len(DIMENSIONS)
        for dim, correct in zip(DIMENSIONS, outcome):
            for bucket in (table.per_type[g.gold_type.value][dim], table.overall[dim]):
                bucket.total += 1
                if correct:
                    bucket.correct += 1
    return table


def gold_to_record(g: GoldAnnotation) -> dict:
    return {
        "action_id": g.action_id,
        "gold_type": g.gold_type.value,
        "gold_span": list(g.gold_span),
        "gold_replyto": g.gold_replyto,
        "gold_parent": g.gold_parent,
    }


def record_to_gold(record: dict) -> GoldAnnotation:
    return GoldAnnotation(
        action_id=record["action_id"],
        gold_type=ActionType(record["gold_type"]),
        gold_span=tuple(record["gold_span"]),
        gold_replyto=record["gold_replyto"],
        gold_parent=record["gold_parent"],
    )


def write_gold(annotations: Iterable[GoldAnnotation], sink: IO[str]) -> int:
    n = 0
    for g in annotations:
        sink.write(json.dumps(gold_to_record(g), ensure_ascii=False) + "\n")
        n += 1
    return n


def read_gold(source: IO[str]) -> list[GoldAnnotation]:
    return list(read_records(source, record_to_gold))
