"""Command-line interface.

Subcommands::

    wikitalk reconstruct --input dump.xml --output corpus.jsonl [...]
    wikitalk eval sample --corpus F --per-type N --seed S
    wikitalk eval score --corpus F --gold G --report R
    wikitalk analytics score --corpus F --output scored.jsonl [--scorer stub]
    wikitalk analytics eer --labeled labeled.jsonl
    wikitalk analytics deletion-rate --scored F --horizons 1h,1d,7d --subset toxic

Three flags can also be set through an environment variable:
``--max-mem-revisions`` (WIKITALK_MAX_MEM_REVISIONS) and ``--spill-dir``
(WIKITALK_SPILL_DIR) of ``reconstruct``, which size a run to its host, and
``--api-key`` (WIKITALK_API_KEY) of ``analytics score``, which keeps a
credential off the command line. A flag given on the command line wins.
argparse converts the variable's string like a flag value, so a malformed
one is a usage error of the subcommand that reads it, and of no other.

Every subcommand ends a run it cannot complete (a missing input, an
unwritable output, a malformed dump or input record) with one ``error:``
line and exit status 1. Every file a subcommand writes goes through
``pipeline.replacing``, opened before any input is read: an output that
resolves to one of the run's inputs, or that cannot be written, fails
before any work, and an output is replaced whole or left as it was.
``analytics score`` writes each record as it reads it, so a malformed
record ends the run after the comments before it were scored, and
``analytics deletion-rate`` holds one page of the scored corpus at a time,
so a page split in two is an error.

The program (``python -m wikitalk.cli`` and the ``wikitalk`` console
script) enters through ``entry``, which runs ``main``, flushes stdout and
stderr and leaves by ``os._exit``, skipping the interpreter's teardown, as
the forked page processes do. Nothing is left for that teardown to do:
every file a subcommand writes is closed by ``pipeline.replacing``, and
every page process reaped, before ``main`` returns. A flush that fails
(stdout is a closed pipe) ends a run that had succeeded with one
``error:`` line and exit status 1. ``main`` returns the exit status, for
callers in Python.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import nullcontext
from datetime import timedelta
from typing import NoReturn

from wikitalk import corpus
from wikitalk.extsort import DEFAULT_MAX_IN_MEMORY
from wikitalk.pipeline import PipelineConfig, replacing, run_pipeline


def _number(kind, ok, message: str):
    """An argparse type: ``kind`` applied to the value, which ``ok`` must
    accept; ``message`` says what ``ok`` asks for."""

    def convert(value: str):
        try:
            number = kind(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {value!r}") from None
        if not ok(number):
            raise argparse.ArgumentTypeError(f"{message}: {value}")
        return number

    return convert


_positive_int = _number(int, lambda n: n > 0, "must be positive")
_positive_float = _number(float, lambda n: n > 0, "must be positive")


def _horizons(value: str) -> list[tuple[str, timedelta]]:
    """Comma-separated horizons such as ``1h,1d,7d``, shortest first, as
    (label, horizon) pairs; empty items are skipped, but not all of them."""
    from wikitalk.analytics import parse_horizon

    try:
        pairs = [(h.strip(), parse_horizon(h)) for h in value.split(",") if h.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not pairs:
        raise argparse.ArgumentTypeError(f"no horizon given: {value!r}")
    if pairs != sorted(pairs, key=lambda pair: pair[1]):
        raise argparse.ArgumentTypeError(f"horizons must be sorted ascending: {value}")
    return pairs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wikitalk")
    sub = parser.add_subparsers(dest="command", required=True)

    rec = sub.add_parser("reconstruct", help="rebuild a conversation corpus from a dump")
    rec.add_argument("--input", required=True)
    rec.add_argument("--output", required=True)
    rec.add_argument(
        "--max-mem-revisions",
        type=_number(int, lambda n: n >= 2, "must be at least 2"),
        default=os.environ.get("WIKITALK_MAX_MEM_REVISIONS", DEFAULT_MAX_IN_MEMORY),
    )
    rec.add_argument("--spill-dir", default=os.environ.get("WIKITALK_SPILL_DIR"))
    rec.add_argument("--stats")
    rec.set_defaults(run=_cmd_reconstruct)

    ev = sub.add_parser("eval", help="reconstruction-quality evaluation")
    ev_sub = ev.add_subparsers(dest="eval_command", required=True)
    ev_sample = ev_sub.add_parser("sample", help="draw a review sample per action type")
    ev_sample.add_argument("--corpus", required=True)
    ev_sample.add_argument(
        "--per-type", type=_number(int, lambda n: n >= 0, "must not be negative"), default=100
    )
    ev_sample.add_argument("--seed", type=int, default=0)
    ev_sample.add_argument("--output")
    ev_sample.set_defaults(run=_cmd_eval_sample)
    ev_score = ev_sub.add_parser("score", help="score a corpus against gold annotations")
    ev_score.add_argument("--corpus", required=True)
    ev_score.add_argument("--gold", required=True)
    ev_score.add_argument("--report", required=True)
    ev_score.set_defaults(run=_cmd_eval_score)

    an = sub.add_parser("analytics", help="moderation analytics over a corpus")
    an_sub = an.add_subparsers(dest="analytics_command", required=True)
    an_score = an_sub.add_parser("score", help="attach toxicity scores to comments")
    an_score.add_argument("--corpus", required=True)
    an_score.add_argument("--output", required=True)
    an_score.add_argument("--scorer", choices=["stub", "http"], default="stub")
    an_score.add_argument("--endpoint")
    an_score.add_argument("--api-key", default=os.environ.get("WIKITALK_API_KEY"))
    an_score.add_argument("--rate-limit", type=_positive_float, default=10.0)
    an_score.add_argument("--timeout", type=_positive_float, default=10.0)
    an_score.add_argument("--max-attempts", type=_positive_int, default=3)
    an_score.set_defaults(run=_cmd_analytics_score, usage_error=an_score.error)
    an_eer = an_sub.add_parser("eer", help="equal-error-rate threshold from labeled scores")
    an_eer.add_argument("--labeled", required=True)
    an_eer.set_defaults(run=_cmd_analytics_eer)
    an_rate = an_sub.add_parser("deletion-rate", help="deletion rate per time horizon")
    an_rate.add_argument("--scored", required=True)
    an_rate.add_argument("--horizons", type=_horizons)
    an_rate.add_argument("--subset", choices=["all", "toxic", "severe"], default="all")
    finite = _number(float, math.isfinite, "must be finite")
    an_rate.add_argument("--toxicity-threshold", type=finite, default=None)
    an_rate.add_argument("--severe-threshold", type=finite, default=None)
    an_rate.add_argument("--output", default=None)
    an_rate.set_defaults(run=_cmd_analytics_deletion_rate, usage_error=an_rate.error)
    return parser


def _cmd_reconstruct(args) -> int:
    report = run_pipeline(
        PipelineConfig(
            input_path=args.input,
            output_path=args.output,
            max_in_memory_revisions=args.max_mem_revisions,
            spill_dir=args.spill_dir or None,
            stats_path=args.stats or None,
        )
    )
    if report.skipped:
        print(
            f"completed with {report.skipped} skipped dump records ({report.skip_reasons})",
            file=sys.stderr,
        )
    print(
        f"pages={report.pages} revisions={report.revisions} "
        f"actions={report.actions_written}",
        file=sys.stderr,
    )
    return 0


def _cmd_eval_sample(args) -> int:
    from collections import Counter

    from wikitalk import evalharness
    from wikitalk.actions import ActionType

    output = replacing(args.output, "the corpus", args.corpus) if args.output else None
    with output or nullcontext(sys.stdout) as out, open(args.corpus, encoding="utf-8") as fh:
        actions = list(corpus.read_actions(fh))
        population = Counter(a.type.value for a in actions)
        for name in sorted(t.value for t in ActionType):
            if population[name] < args.per_type:
                print(
                    f"note: only {population[name]} {name} actions available; sampling all of them",
                    file=sys.stderr,
                )
        sampled = evalharness.sample_for_review(actions, args.per_type, args.seed)
        for action in sampled:
            out.write(corpus.serialize_action(action) + "\n")
    print(f"sampled {len(sampled)} actions", file=sys.stderr)
    return 0


def _cmd_eval_score(args) -> int:
    from wikitalk import evalharness

    with replacing(args.report, "the corpus or the gold file", args.corpus, args.gold) as out:
        with open(args.gold, encoding="utf-8") as fh:
            gold = evalharness.read_gold(fh)
        with open(args.corpus, encoding="utf-8") as fh:
            table = evalharness.score_against_gold(corpus.read_actions(fh), gold)
        json.dump(table.to_records(), out, indent=2)
        out.write("\n")
    print(table.render())
    return 0


def _cmd_analytics_score(args) -> int:
    from wikitalk import analytics

    if args.scorer == "http":
        if not args.endpoint:
            args.usage_error("--scorer http requires --endpoint")
        scorer = analytics.HttpScorer(
            endpoint=args.endpoint,
            api_key=args.api_key,
            rate_limit=args.rate_limit,
            timeout=args.timeout,
            max_attempts=args.max_attempts,
        )
    else:
        scorer = analytics.StubScorer()
    unscored = dict.fromkeys(analytics.SCORE_ATTRIBUTES)
    comments = failed = 0
    output = replacing(args.output, "the corpus", args.corpus)
    with output as out, open(args.corpus, encoding="utf-8") as fh:
        out.write(corpus.SCORED_SCHEMA_HEADER + "\n")
        for action in corpus.read_actions(fh):
            scores = unscored
            if analytics.is_comment(action):
                scores = analytics.scores_or_none(scorer, action.content)
                comments += 1
                failed += scores["toxicity"] is None
            out.write(corpus.serialize_action(action, scores) + "\n")
    print(f"scored {comments - failed} comments ({failed} failures)", file=sys.stderr)
    return 0


def _cmd_analytics_eer(args) -> int:
    from wikitalk import analytics

    def labeled(record):
        score, label = record["score"], record["label"]
        # JSON's NaN parses as a float, and has no place in the order of scores
        if isinstance(score, bool) or not isinstance(score, (int, float)) or math.isnan(score):
            raise TypeError(f"score {score!r} is not a number")
        if not isinstance(label, bool):  # not a string that reads as one
            raise TypeError(f"label {label!r} is not true or false")
        return score, label

    with open(args.labeled, encoding="utf-8") as fh:
        pairs = list(corpus.read_records(fh, labeled))
    scores = [score for score, _ in pairs]
    labels = [label for _, label in pairs]
    threshold = analytics.equal_error_threshold(scores, labels)
    print(json.dumps({"threshold": threshold, "n": len(scores)}))
    return 0


def _cmd_analytics_deletion_rate(args) -> int:
    from wikitalk import analytics

    for subset, flag, threshold in (
        ("toxic", "--toxicity-threshold", args.toxicity_threshold),
        ("severe", "--severe-threshold", args.severe_threshold),
    ):
        if args.subset == subset and threshold is None:
            args.usage_error(f"--subset {subset} requires {flag}")
    pairs = args.horizons
    if pairs is None:
        pairs = _horizons(",".join(analytics.DEFAULT_HORIZONS))

    def with_scores(record):
        action = corpus.record_to_action(record)
        scores = {name: record.get(name) for name in analytics.SCORE_ATTRIBUTES}
        for name, score in scores.items():
            number = isinstance(score, (int, float)) and not isinstance(score, bool)
            if score is not None and not number:
                raise TypeError(f"{name} {score!r} is not a number or null")
        return action, scores

    output = replacing(args.output, "the scored corpus", args.scored) if args.output else None
    with output or nullcontext() as out, open(args.scored, encoding="utf-8") as fh:
        rates = analytics.deletion_rate(
            analytics.comments_with_deletions(corpus.read_records(fh, with_scores)),
            [horizon for _, horizon in pairs],
            subset=args.subset,
            toxicity_threshold=args.toxicity_threshold,
            severe_threshold=args.severe_threshold,
        )
        rows = [{"horizon": label, "rate": rate} for (label, _), rate in zip(pairs, rates)]
        payload = json.dumps({"subset": args.subset, "rates": rows}, indent=2)
        if out is not None:
            out.write(payload + "\n")
    print(payload)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> NoReturn:
    """The program: ``main``, then a flush of stdout and stderr, then
    ``os._exit`` with ``main``'s status (see the module docstring)."""
    code = main()
    try:
        sys.stdout.flush()
    except OSError as exc:
        if code == 0:  # a run that failed has said why
            print(f"error: {exc}", file=sys.stderr)
            code = 1
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
