import http.server
import json
import os
import random
import socket
import subprocess
import sys
import threading
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wikitalk
from tests.conftest import BASE, revision_records
from wikitalk.actions import ActionType
from wikitalk.analytics import (
    DEFAULT_HORIZONS,
    HttpScorer,
    ScoredComment,
    ScorerError,
    StubScorer,
    comments_with_deletions,
    deletion_rate,
    equal_error_threshold,
    parse_horizon,
    score_comments,
)
from wikitalk.reconstruct import reconstruct_page
from wikitalk.synth import figure_walkthrough_script


class ZeroScorer:
    def score(self, text):
        return {"toxicity": 0.0, "severe_toxicity": 0.0}


class FailingScorer:
    def score(self, text):
        raise ScorerError("nope")


def brute_force_eer(scores, labels):
    best = None
    for t in sorted(set(scores)):
        fp = sum(1 for s, y in zip(scores, labels) if s >= t and not y)
        fn = sum(1 for s, y in zip(scores, labels) if s < t and y)
        gap = abs(fp - fn)
        if best is None or gap < best[0] or (gap == best[0] and t > best[1]):
            best = (gap, t)
    return best


def fig2_actions():
    return list(reconstruct_page(revision_records(figure_walkthrough_script())))


def test_stub_scorer_deterministic_and_bounded():
    scorer = StubScorer()
    first = scorer.score("some comment text")
    second = scorer.score("some comment text")
    assert first == second
    assert 0.0 <= first["toxicity"] <= 1.0
    assert first != scorer.score("different text")


def test_zero_scorer_all_zero():
    scored = score_comments(fig2_actions(), ZeroScorer())
    assert scored and all(c.toxicity == 0.0 for c in scored)


def test_stub_scoring_reproducible_run_to_run():
    actions = fig2_actions()
    first = score_comments(actions, StubScorer())
    second = score_comments(actions, StubScorer())
    assert first == second


def test_only_comments_scored_and_deletion_joined():
    actions = fig2_actions()
    scored = score_comments(actions, StubScorer())
    comment_ids = {
        a.action_id for a in actions
        if a.type in (ActionType.CREATION, ActionType.ADDITION) and a.content
    }
    assert {c.action_id for c in scored} == comment_ids
    deleted = [c for c in scored if c.deleted_at is not None]
    assert len(deleted) == 1
    victim = deleted[0]
    assert victim.deleted_by == "carol"
    assert victim.author == "troll"
    assert victim.deleted_at - victim.created_at == timedelta(minutes=5)


def test_no_deletions_all_absent(rng):
    actions = [a for a in fig2_actions() if a.type is not ActionType.DELETION]
    scored = score_comments(actions, StubScorer())
    assert all(c.deleted_at is None for c in scored)


def test_deletion_joined_through_modification_chain():
    from wikitalk.synth import PageScript

    s = PageScript("71", "Talk:Chains")
    t = s.new_thread("Chained then deleted")
    s.commit()
    c = s.add_comment(t, "Original phrasing of the comment at issue.")
    s.commit(user="author")
    s.modify_comment(c, "Adjusted phrasing of the comment at issue.")
    s.commit(user="author")
    s.delete_comment(c)
    s.commit(user="moderator")
    scored = score_comments(list(reconstruct_page(revision_records(s))), StubScorer())
    by_id = {x.action_id: x for x in scored}
    target = by_id[c.first_id]
    assert target.deleted_by == "moderator"


def test_failed_scoring_tallied_and_absent():
    scored = score_comments(fig2_actions(), FailingScorer())
    assert sum(c.toxicity is None for c in scored) == len(scored) > 0
    assert all(c.toxicity is None for c in scored)


def test_eer_separable_case():
    assert equal_error_threshold([0.1, 0.9], [False, True]) == pytest.approx(0.9)


def test_eer_single_class_errors():
    with pytest.raises(ValueError):
        equal_error_threshold([0.1, 0.9], [True, True])


@pytest.mark.parametrize(
    "scores, labels",
    [([], []), ([0.1, 0.9], [True]), ([0.1, float("nan"), 0.9, 0.5], [False, False, True, True])],
    ids=["empty", "unequal-lengths", "nan-score"],
)
def test_eer_refuses_inputs_without_a_threshold(scores, labels):
    with pytest.raises(ValueError):
        equal_error_threshold(scores, labels)


def test_eer_inverted_labels_matches_brute_force():
    rng = random.Random(3)
    scores = [rng.random() for _ in range(500)]
    labels = [s < 0.5 for s in scores]  # inverted relationship
    t = equal_error_threshold(scores, labels)
    gap, want = brute_force_eer(scores, labels)
    fp = sum(1 for s, y in zip(scores, labels) if s >= t and not y)
    fn = sum(1 for s, y in zip(scores, labels) if s < t and y)
    assert abs(fp - fn) == gap
    assert t == pytest.approx(want)


@given(
    st.lists(
        st.tuples(st.floats(0, 1, allow_nan=False), st.booleans()),
        min_size=2,
        max_size=120,
    )
)
@settings(max_examples=150)
def test_eer_matches_exhaustive_scan(pairs):
    scores = [s for s, _ in pairs]
    labels = [y for _, y in pairs]
    if all(labels) or not any(labels):
        return
    t = equal_error_threshold(scores, labels)
    gap, want = brute_force_eer(scores, labels)
    assert t == pytest.approx(want)


def test_eer_argset_invariant_under_monotone_rescale():
    rng = random.Random(9)
    scores = [rng.random() for _ in range(300)]
    labels = [rng.random() < s for s in scores]
    if all(labels) or not any(labels):
        labels[0] = not labels[0]
    t = equal_error_threshold(scores, labels)
    rescaled = [s**3 for s in scores]
    t2 = equal_error_threshold(rescaled, labels)
    set1 = {i for i, s in enumerate(scores) if s >= t}
    set2 = {i for i, s in enumerate(rescaled) if s >= t2}
    assert set1 == set2


def _comment(i, toxicity=0.0, deleted_after=None, author="a", deleter="b"):
    return ScoredComment(
        action_id=f"{i}.0.1",
        toxicity=toxicity,
        severe_toxicity=toxicity,
        author=author,
        created_at=BASE,
        deleted_at=BASE + deleted_after if deleted_after else None,
        deleted_by=deleter if deleted_after else None,
    )


def test_deletion_rate_no_deletions():
    pool = [_comment(i) for i in range(4)]
    assert deletion_rate(pool, [timedelta(hours=1)]) == [0.0]


def test_deletion_rate_excludes_self_deletion():
    pool = [
        _comment(0),
        _comment(1),
        _comment(2, deleted_after=timedelta(hours=1), author="x", deleter="x"),
        _comment(3, deleted_after=timedelta(hours=1), author="x", deleter="y"),
    ]
    assert deletion_rate(pool, [timedelta(days=1)]) == [0.25]


def test_deletion_rate_empty_subset_absent():
    pool = [_comment(0, toxicity=0.1)]
    rates = deletion_rate(pool, [timedelta(days=1)], subset="toxic", toxicity_threshold=0.9)
    assert rates == [None]


def test_deletion_rate_monotone(rng):
    pool = []
    for i in range(300):
        deleted = timedelta(minutes=rng.randrange(1, 10**5)) if rng.random() < 0.5 else None
        pool.append(_comment(i, toxicity=rng.random(), deleted_after=deleted))
    horizons = [timedelta(hours=1), timedelta(days=1), timedelta(days=7), timedelta(days=365)]
    rates = deletion_rate(pool, horizons)
    assert rates == sorted(rates)


def test_deletion_rate_requires_sorted_horizons():
    with pytest.raises(ValueError):
        deletion_rate([_comment(0)], [timedelta(days=1), timedelta(hours=1)])


def test_parse_horizon():
    assert parse_horizon("1h") == timedelta(hours=1)
    assert parse_horizon("30d") == timedelta(days=30)
    assert parse_horizon("1y") == timedelta(days=365)
    with pytest.raises(ValueError):
        parse_horizon("soon")
    with pytest.raises(ValueError, match="bad horizon"):
        parse_horizon("²h")
    assert [parse_horizon(h) for h in DEFAULT_HORIZONS] == sorted(
        parse_horizon(h) for h in DEFAULT_HORIZONS
    )


class FlakyTransport:
    def __init__(self, fail_times):
        self.fail_times = fail_times
        self.calls = 0

    def __call__(self, url, payload, timeout):
        self.calls += 1
        if self.calls <= self.fail_times:
            raise ConnectionError("transient")
        return {"toxicity": 0.5, "severe_toxicity": 0.25}


def test_http_scorer_retries_with_backoff():
    sleeps = []
    transport = FlakyTransport(fail_times=2)
    scorer = HttpScorer(
        endpoint="http://scorer.test/v1",
        rate_limit=1000.0,
        max_attempts=3,
        transport=transport,
        sleep=sleeps.append,
    )
    result = scorer.score("text")
    assert result == {"toxicity": 0.5, "severe_toxicity": 0.25}
    assert transport.calls == 3
    backoffs = [s for s in sleeps if s in (0.5, 1.0)]
    assert backoffs == [0.5, 1.0]


def test_http_scorer_gives_up_after_max_attempts():
    transport = FlakyTransport(fail_times=99)
    scorer = HttpScorer(
        endpoint="http://scorer.test/v1",
        rate_limit=1000.0,
        max_attempts=3,
        transport=transport,
        sleep=lambda s: None,
    )
    with pytest.raises(ScorerError):
        scorer.score("text")
    assert transport.calls == 3


def test_http_scorer_rate_limit_spacing():
    sleeps = []
    transport = FlakyTransport(fail_times=0)
    scorer = HttpScorer(
        endpoint="http://scorer.test/v1",
        rate_limit=100.0,
        transport=transport,
        sleep=sleeps.append,
    )
    scorer.score("one")
    scorer.score("two")
    assert any(0 < s <= 0.011 for s in sleeps)


@pytest.fixture
def scoring_server(monkeypatch):
    """A scoring endpoint on 127.0.0.1 in a thread: (url, posts,
    statuses). It records each POST's content type and JSON body in
    ``posts``, answers with the next status in ``statuses`` while any
    is left, and then with 200 and fixed scores."""
    monkeypatch.setenv("no_proxy", "*")  # never through a proxy set in the environment
    posts, statuses = [], []

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_POST(self):
            body = self.rfile.read(int(self.headers["Content-Length"]))
            posts.append((self.headers["Content-Type"], json.loads(body)))
            status = statuses.pop(0) if statuses else 200
            answer = json.dumps({"toxicity": 0.5, "severe_toxicity": 0.25} if status == 200 else {})
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(answer)))
            self.end_headers()
            self.wfile.write(answer.encode("utf-8"))

        def log_message(self, *args):
            pass

    server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/v1", posts, statuses
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


def test_http_transport_posts_json_with_the_api_key(scoring_server):
    url, posts, _ = scoring_server
    scorer = HttpScorer(endpoint=url, api_key="k3y", rate_limit=1000.0, sleep=lambda s: None)
    assert scorer.score("some comment") == {"toxicity": 0.5, "severe_toxicity": 0.25}
    assert posts == [("application/json", {"text": "some comment", "api_key": "k3y"})]


def test_http_transport_retries_an_error_status(scoring_server):
    """A 503 answer is a failure like any other: it is retried after the
    backoff, and the next answer's scores are returned."""
    url, posts, statuses = scoring_server
    statuses.append(503)
    sleeps = []
    scorer = HttpScorer(endpoint=url, rate_limit=1000.0, max_attempts=3, sleep=sleeps.append)
    assert scorer.score("text") == {"toxicity": 0.5, "severe_toxicity": 0.25}
    assert [body for _, body in posts] == [{"text": "text"}] * 2
    assert [s for s in sleeps if s in (0.5, 1.0)] == [0.5]


def test_http_transport_refused_connection_is_a_scorer_error(monkeypatch):
    monkeypatch.setenv("no_proxy", "*")
    with socket.socket() as probe:  # a port that nothing listens on once it is closed
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    sleeps = []
    scorer = HttpScorer(
        endpoint=f"http://127.0.0.1:{port}/v1", rate_limit=1000.0, max_attempts=3,
        sleep=sleeps.append,
    )
    with pytest.raises(ScorerError, match="after 3 attempts"):
        scorer.score("text")
    assert [s for s in sleeps if s in (0.5, 1.0)] == [0.5, 1.0]


def test_comments_with_deletions_matches_score_comments():
    actions = fig2_actions()
    pairs = [(a, StubScorer().score(a.content)) for a in actions]
    assert list(comments_with_deletions(pairs)) == score_comments(actions, StubScorer())


def test_moderation_study_script_runs_end_to_end(tmp_path):
    """``scripts/run_moderation_study.py``, the moderation case study from
    dump to deletion-rate curves, exits 0 and prints its rates as JSON."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_moderation_study.py"
    path = [str(Path(wikitalk.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run(
        [sys.executable, str(script), "--workdir", str(tmp_path), "--trees", "5"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    horizons = ["1h", "6h", "1d", "7d", "30d", "1y"]
    for subset in ("all", "toxic"):
        rates = result["deletion_rates"][subset]
        assert list(rates) == horizons
        assert all(0 < rate <= 1 for rate in rates.values())
        assert [rates[h] for h in horizons] == sorted(rates.values())
