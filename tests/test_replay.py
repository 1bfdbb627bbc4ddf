"""A gold-free replay oracle: random talk-page edit histories, checked
against what the emitted actions say about each revision."""

import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import make_revision
from wikitalk.actions import ActionType
from wikitalk.reconstruct import PageState, Reconstructor


def random_line(rng):
    """A wikitext-like line: a heading, a signed or unsigned comment at
    indent 0-3, a template or a blank line. The words repeat across lines,
    so a diff can match one comment's tokens to another's."""
    roll = rng.random()
    n = rng.randrange(20)
    if roll < 0.1:
        return f"== Topic {n} =="
    if roll < 0.15:
        return "{{Talk header}}"
    if roll < 0.25:
        return ""
    indent = ":" * rng.randrange(4)
    if roll < 0.7:
        return f"{indent}Deeper reply {n} text ~~~~"
    return f"{indent}Unsigned note {n} text"


def random_history(rng, moves):
    """The texts of 5-40 revisions of one page. Each edit inserts a line,
    deletes a line or a range of lines, or (with ``moves``) moves a line;
    with probability 0.1 the page instead reverts to an earlier state."""
    lines = [random_line(rng) for _ in range(rng.randrange(1, 8))]
    states = [lines]
    for _ in range(rng.randrange(4, 40)):
        lines = list(lines)
        roll = rng.random()
        if roll < 0.1:
            lines = list(rng.choice(states))
        elif roll < 0.55 or not lines:
            lines.insert(rng.randrange(len(lines) + 1), random_line(rng))
        elif roll < 0.7 or not moves:
            lo = rng.randrange(len(lines))
            del lines[lo : lo + rng.choice([1, 1, 2, 3])]
        else:
            lines.insert(rng.randrange(len(lines)), lines.pop(rng.randrange(len(lines))))
        states.append(lines)
    return ["\n".join(lines) + "\n" for lines in states]


def non_blank_lines(text):
    return Counter(line.strip() for line in text.split("\n") if line.strip())


def replay(texts):
    """Reconstruct ``texts`` as one page, check the invariants that hold on
    every history, and return the number of revisions whose live comments,
    as the actions tell them, do not tile the page's non-blank lines."""
    recon = Reconstructor()
    state = PageState(page_id="1", page_title="Talk:Replay")
    seen: set[str] = set()
    live: dict[str, str] = {}  # a live comment's last action id -> its markup
    failures = 0
    for i, text in enumerate(texts):
        rev = make_revision(i + 1, text, minutes=i, user=f"u{i % 3}")
        _, actions = recon.process_revision(state, rev)
        for a in actions:
            assert a.action_id not in seen, a.action_id
            for ref in (a.parent_id, a.replyto_id):
                assert ref is None or ref in seen, (a.action_id, ref)
            seen.add(a.action_id)
            if a.type is not ActionType.DELETION:
                assert a.raw_markup == text[slice(*a.char_span)], a.action_id
            if a.type in (ActionType.MODIFICATION, ActionType.DELETION):
                live.pop(a.parent_id, None)
            if a.type is not ActionType.DELETION:
                live[a.action_id] = a.raw_markup
        replayed = sum((non_blank_lines(markup) for markup in live.values()), Counter())
        failures += replayed != non_blank_lines(text)
    return failures


@given(st.randoms(use_true_random=False), st.booleans())
@settings(max_examples=150, deadline=None)
def test_random_histories_keep_the_action_invariants(rng, moves):
    replay(random_history(rng, moves))


# Of the 200 histories of the fixed seed set, without and with moves, how
# many have a revision whose live comments do not tile the page (66 and 97
# when pages under 4,000 tokens were aligned token by token). What is left
# comes from token alignment inside a run of changed lines, and from lines
# that join the unsigned comment or template line above them.
MAX_TILING_FAILURES = {False: 56, True: 46}


def test_line_tiling_failures_on_fixed_seeds():
    for moves, bound in MAX_TILING_FAILURES.items():
        failed = sum(
            replay(random_history(random.Random(seed), moves)) > 0 for seed in range(200)
        )
        assert failed <= bound, (moves, failed)
