"""A gold-free replay oracle: random talk-page edit histories, checked
against what the emitted actions say about each revision."""

import hashlib
import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import make_revision
from wikitalk.actions import ActionType
from wikitalk.corpus import serialize_action
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


def char_edit_history(rng):
    """The texts of 5-40 revisions of one page, edited by characters rather
    than by whole lines. Each edit changes only whitespace (a space or a
    newline inserted, dropped or doubled), inserts a word in the middle of
    a line, or appends text to a line; with probability 0.1 the page
    instead reverts to an earlier state."""
    text = "".join(random_line(rng) + "\n" for _ in range(rng.randrange(1, 8)))
    texts = [text]
    for _ in range(rng.randrange(4, 40)):
        roll = rng.random()
        if roll < 0.1:
            text = rng.choice(texts)
        elif roll < 0.4:
            gaps = [i for i, ch in enumerate(text) if ch in " \n"]
            i = rng.choice(gaps) if gaps else len(text)
            if rng.random() < 0.5:
                text = text[:i] + rng.choice([" ", "\n", "  ", " \n"]) + text[i:]
            else:
                text = text[:i] + text[i + 1 :]
        elif roll < 0.7:
            i = rng.randrange(len(text) + 1)
            text = text[:i] + rng.choice(["word ", " more", "[[Link]]", ":", "=="]) + text[i:]
        else:
            ends = [i for i, ch in enumerate(text) if ch == "\n"] or [len(text)]
            i = rng.choice(ends)
            text = text[:i] + rng.choice([" and more", " also ~~~~", " {{tl}}"]) + text[i:]
        texts.append(text)
    return texts


def non_blank_lines(text):
    return Counter(line.strip() for line in text.split("\n") if line.strip())


def replay(texts, digest=None):
    """Reconstruct ``texts`` as one page, check the invariants that hold on
    every history, and return the number of revisions whose live comments,
    as the actions tell them, do not tile the page's non-blank lines. Each
    action is serialized into ``digest``, when given, one line each."""
    recon = Reconstructor()
    state = PageState(page_id="1", page_title="Talk:Replay")
    seen: set[str] = set()
    live: dict[str, str] = {}  # a live comment's last action id -> its markup
    failures = 0
    for i, text in enumerate(texts):
        rev = make_revision(i + 1, text, minutes=i, user=f"u{i % 3}")
        _, actions = recon.process_revision(state, rev)
        for a in actions:
            if digest is not None:
                digest.update(serialize_action(a).encode() + b"\n")
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


# sha256 of the serialized actions of the fixed seed set, by history kind.
# These messy histories reach diff paths that clean synth pages do not (the
# slide of pure insert and delete runs, whitespace-only edits, edits inside
# a line), so a change to these bytes is a change to reconstruction.
PINNED_REPLAY_ACTIONS_SHA256 = {
    "lines": "82852e2b1b8848f1c72b6a9bc248eea2c31684fd2713d7829d2dbdd77af8e85d",
    "moves": "8e496bb213e0659484c07a3da01f8dc006292b3ec44ae3630fc8ebf07cb404f5",
    "chars": "6a37cd3429c9b4268ee8496c5808e17fb51843f7b1d01993cb8a1155f7edda9a",
}


def test_replayed_action_bytes_are_pinned():
    histories = {
        "lines": lambda rng: random_history(rng, False),
        "moves": lambda rng: random_history(rng, True),
        "chars": char_edit_history,
    }
    for kind, history in histories.items():
        digest = hashlib.sha256()
        for seed in range(200):
            replay(history(random.Random(seed)), digest)
        assert digest.hexdigest() == PINNED_REPLAY_ACTIONS_SHA256[kind], kind
