"""Moderation analytics: toxicity scoring, EER threshold, deletion rates.

Comments (creation and addition actions with nonempty content) are scored
by a pluggable classifier client: either a rate-limited, retrying HTTP
client or a deterministic hash-based stub so the full analytics path runs
offline. Deletion metadata is joined from the corpus's deletion actions by
following parent chains back to the action that created each comment, one
page at a time.
The module needs nothing outside the standard library.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from bisect import bisect_left
from dataclasses import dataclass
from datetime import datetime, timedelta
from itertools import accumulate, groupby
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional

from wikitalk.actions import Action, ActionType

SCORE_ATTRIBUTES = ("toxicity", "severe_toxicity")
_BACKOFF_S = 0.5  # wait after the first failed attempt; doubles after each later one


@dataclass
class ScoredComment:
    action_id: str
    toxicity: Optional[float]
    severe_toxicity: Optional[float]
    author: str
    created_at: datetime
    deleted_at: Optional[datetime] = None
    deleted_by: Optional[str] = None

    def __post_init__(self):
        if self.deleted_at is not None and self.deleted_at < self.created_at:
            raise ValueError("deleted_at precedes created_at")


class ScorerError(Exception):
    """A comment that could not be scored, after every attempt."""


class StubScorer:
    """Deterministic pseudo-scorer: hash of the text mapped into [0, 1]."""

    def score(self, text: str) -> dict[str, float]:
        out = {}
        for attr in SCORE_ATTRIBUTES:
            digest = hashlib.sha256(f"{attr}:{text}".encode("utf-8")).digest()
            out[attr] = int.from_bytes(digest[:8], "big") / 2**64
        return out


def _post_json(url: str, payload: dict, timeout: float) -> dict:
    """HttpScorer's default transport: POST ``payload`` as JSON, read the
    JSON answer. A status of 400 or above raises ``HTTPError``."""
    # imported here so that only scoring over HTTP loads urllib.request
    import urllib.error
    import urllib.request

    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(url, body, {"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return json.load(response)
    except urllib.error.HTTPError as exc:
        exc.close()  # the error holds the answer, and with it the connection, open
        raise


class HttpScorer:
    """Wire client: POSTs comment text, expects a probability per attribute.

    The payload is ``{"text": ...}``, with ``"api_key"`` when one is set;
    the default transport sends it as JSON with ``urllib.request``, and
    HTTPS checks the server against the system's CA store. Never exceeds
    ``rate_limit`` requests/sec; failures, an HTTP status of 400 or above
    among them, are retried after 0.5 s, 1 s, 2 s, ... and surface as
    ScorerError after the last attempt.
    """

    def __init__(
        self,
        endpoint: str,
        api_key: Optional[str] = None,
        rate_limit: float = 10.0,
        timeout: float = 10.0,
        max_attempts: int = 3,
        transport: Optional[Callable] = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if rate_limit <= 0:
            raise ValueError("rate_limit must be positive")
        self.endpoint = endpoint
        self.api_key = api_key
        self.min_interval = 1.0 / rate_limit
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.sleep = sleep
        self._last_request = 0.0
        self.transport = transport or _post_json

    def score(self, text: str) -> dict[str, float]:
        payload = {"text": text}
        if self.api_key:
            payload["api_key"] = self.api_key
        last_error: Optional[Exception] = None
        for attempt in range(self.max_attempts):
            wait = self._last_request + self.min_interval - time.monotonic()
            if wait > 0:
                self.sleep(wait)
            self._last_request = time.monotonic()
            try:
                data = self.transport(self.endpoint, payload, self.timeout)
                return {attr: float(data[attr]) for attr in SCORE_ATTRIBUTES}
            except Exception as exc:  # noqa: BLE001 - every failure is retryable
                last_error = exc
                if attempt + 1 < self.max_attempts:
                    self.sleep(_BACKOFF_S * 2**attempt)
        raise ScorerError(f"scoring failed after {self.max_attempts} attempts: {last_error}")


def _comment_roots(actions: Iterable[Action]) -> dict[str, str]:
    """Map every action id to the id of the action that created its comment.

    Parent chains terminate at a creation or addition; restorations root
    back to the restored comment's origin through their parent link.
    """
    roots: dict[str, str] = {}
    for action in actions:
        if action.parent_id is not None and action.parent_id in roots:
            roots[action.action_id] = roots[action.parent_id]
        else:
            roots[action.action_id] = action.action_id
    return roots


def is_comment(action: Action) -> bool:
    """A creation or addition with nonempty content: what is scored."""
    return action.type in (ActionType.CREATION, ActionType.ADDITION) and action.has_content


def scores_or_none(scorer, text: str) -> dict[str, Optional[float]]:
    """``scorer``'s scores of ``text``, or ``None`` for each score when it
    raises ``ScorerError``."""
    try:
        return scorer.score(text)
    except ScorerError:
        return dict.fromkeys(SCORE_ATTRIBUTES)


def comments_with_deletions(
    pairs: Iterable[tuple[Action, Optional[dict[str, Optional[float]]]]],
) -> Iterator[ScoredComment]:
    """Every creation/addition with nonempty content of the ``(action,
    scores)`` pairs, with its ``toxicity`` and ``severe_toxicity`` scores
    and joined with its earliest deletion (timestamp and deleting user).
    Parent chains stay within a page, so the join holds one page at a time:
    each page's actions must come together, as a corpus lists them, and a
    page that comes back after another raises ``ValueError``."""
    pages: set[str] = set()
    for page_id, page in groupby(pairs, key=lambda pair: pair[0].page_id):
        if page_id in pages:
            raise ValueError(f"page {page_id} reappears after another page")
        pages.add(page_id)
        page = list(page)
        roots = _comment_roots(action for action, _ in page)
        deletions: dict[str, Action] = {}
        for action, _ in page:
            if action.type is ActionType.DELETION and action.parent_id is not None:
                root = roots.get(action.parent_id, action.parent_id)
                if root not in deletions or action.timestamp < deletions[root].timestamp:
                    deletions[root] = action
        for action, scores in page:
            if not is_comment(action):
                continue
            deletion = deletions.get(action.action_id)
            yield ScoredComment(
                action_id=action.action_id,
                toxicity=scores["toxicity"],
                severe_toxicity=scores["severe_toxicity"],
                author=action.user_text,
                created_at=action.timestamp,
                deleted_at=deletion.timestamp if deletion else None,
                deleted_by=deletion.user_text if deletion else None,
            )


def score_comments(actions: Iterable[Action], scorer) -> list[ScoredComment]:
    """Score every creation/addition with nonempty content and join each
    comment's earliest deletion, if any. A scoring failure leaves the
    comment's scores ``None``, so its ``toxicity is None`` exactly when it
    failed; such comments are excluded from threshold-dependent analyses."""
    pairs = ((a, scores_or_none(scorer, a.content) if is_comment(a) else None) for a in actions)
    return list(comments_with_deletions(pairs))


def equal_error_threshold(scores: Iterable[float], labels: Iterable[bool]) -> float:
    """Threshold t (classify positive at score >= t) minimizing |FP - FN|.

    Candidates are the observed score values; ties break toward the larger
    threshold. Requires both classes to be present and no NaN score.
    """
    scores = [float(s) for s in scores]
    labels = [bool(y) for y in labels]
    if len(scores) != len(labels) or not scores:
        raise ValueError("scores and labels must be equal-length and nonempty")
    if any(math.isnan(s) for s in scores):
        raise ValueError("scores must not be NaN")
    n_pos = sum(labels)
    if n_pos == 0 or n_pos == len(labels):
        raise ValueError("both classes must be present to balance FP against FN")

    # Walking down the groups of equal scores, everything passed so far is
    # classified positive at the current group's score.
    fp = tp = 0
    best_gap, best = len(labels) + 1, None
    pairs = sorted(zip(scores, labels), key=itemgetter(0), reverse=True)
    for score, group in groupby(pairs, itemgetter(0)):
        for _, label in group:
            tp += label
            fp += not label
        gap = abs(fp - (n_pos - tp))
        if gap < best_gap:
            best_gap, best = gap, score
    return best


def deletion_rate(
    scored: Iterable[ScoredComment],
    horizons: list[timedelta],
    subset: str = "all",
    toxicity_threshold: Optional[float] = None,
    severe_threshold: Optional[float] = None,
) -> list[Optional[float]]:
    """Fraction of comments deleted by someone other than their author
    within each horizon, counted in one pass over ``scored``. Empty subsets
    report None, not zero."""
    horizons = list(horizons)
    if sorted(horizons) != horizons:
        raise ValueError("horizons must be sorted ascending")
    if subset == "all":
        pool = scored
    elif subset == "toxic":
        if toxicity_threshold is None:
            raise ValueError("toxic subset requires toxicity_threshold")
        pool = (c for c in scored if c.toxicity is not None and c.toxicity >= toxicity_threshold)
    elif subset == "severe":
        if severe_threshold is None:
            raise ValueError("severe subset requires severe_threshold")
        pool = (
            c
            for c in scored
            if c.severe_toxicity is not None and c.severe_toxicity >= severe_threshold
        )
    else:
        raise ValueError(f"unknown subset {subset!r}")
    # comments deleted by someone other than their author, by the first
    # horizon their life fits within (the last slot: none)
    deleted = [0] * (len(horizons) + 1)
    size = 0
    for size, c in enumerate(pool, 1):
        if c.deleted_at is not None and c.deleted_by not in (None, c.author):
            deleted[bisect_left(horizons, c.deleted_at - c.created_at)] += 1
    if not size:
        return [None] * len(horizons)
    return [count / size for count in accumulate(deleted[:-1])]


DEFAULT_HORIZONS = ("1h", "6h", "1d", "7d", "30d", "1y")

_HORIZON_UNITS = {
    "s": timedelta(seconds=1),
    "m": timedelta(minutes=1),
    "h": timedelta(hours=1),
    "d": timedelta(days=1),
    "w": timedelta(weeks=1),
    "y": timedelta(days=365),
}


def parse_horizon(text: str) -> timedelta:
    text = text.strip().lower()
    # isdecimal, not isdigit: "²" is a digit that int() refuses
    if len(text) < 2 or text[-1] not in _HORIZON_UNITS or not text[:-1].isdecimal():
        raise ValueError(f"bad horizon {text!r}; use forms like 1h, 6h, 1d, 7d, 1y")
    return int(text[:-1]) * _HORIZON_UNITS[text[-1]]
