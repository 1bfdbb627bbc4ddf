import random
from types import SimpleNamespace

import pytest

import wikitalk.diff as diff_mod
from tests.conftest import make_revision, offsets, revision_records
from wikitalk import reconstruct, tokenizer
from wikitalk.actions import ActionType
from wikitalk.corpus import serialize_action
from wikitalk.diff import ChangeOp, lcs_diff
from wikitalk.reconstruct import (
    PageState,
    Reconstructor,
    reconstruct_page,
    segment_text,
)
from wikitalk.synth import (
    PageScript,
    figure_walkthrough_script,
    gold_fixture_suite,
    random_tree_script,
)
from wikitalk.tokenizer import tokenize


def with_ranges(live):
    """Every live comment with its token range, in document order."""
    for block in live.blocks:
        d = block.delta
        for c in block.comments:
            yield c, (c.tok_range[0] + d, c.tok_range[1] + d)


def assert_live_in_document_order(state):
    """The live comments are listed by token range, and no two overlap."""
    ranges = [tok_range for _, tok_range in with_ranges(state.live)]
    for (lo, hi), (next_lo, next_hi) in zip(ranges, ranges[1:]):
        assert lo < hi <= next_lo < next_hi, ranges


def fold(revisions, recon=None):
    recon = recon or Reconstructor()
    state = PageState(page_id=revisions[0].page_id, page_title=revisions[0].page_title)
    actions = []
    for rev in revisions:
        _, acts = recon.process_revision(state, rev)
        assert_live_in_document_order(state)
        actions.extend(acts)
    return state, actions


def test_first_revision_heading_and_comment():
    rev = make_revision(1, "== Topic ==\nFirst comment. ~~~~\n")
    state, actions = fold([rev])
    assert [a.type for a in actions] == [ActionType.CREATION, ActionType.ADDITION]
    creation, addition = actions
    assert creation.replyto_id is None and creation.parent_id is None
    assert creation.indentation == -1
    assert creation.content == "Topic"
    assert addition.replyto_id == creation.action_id
    assert addition.parent_id is None
    assert addition.conversation_id == creation.action_id
    assert addition.content == "First comment."


def test_identical_revision_no_actions():
    text = "== Topic ==\nFirst comment. ~~~~\n"
    state, actions = fold([make_revision(1, text), make_revision(2, text, minutes=5)])
    assert len(actions) == 2  # only from the first revision


def test_whitespace_only_change_no_actions_but_spans_remap():
    first = "== Topic ==\nFirst comment. ~~~~\n"
    second = "==  Topic  ==\nFirst comment.  ~~~~\n"
    state, actions = fold([make_revision(1, first), make_revision(2, second, minutes=5)])
    assert len(actions) == 2
    for _, tok_range in with_ranges(state.live):
        lo, hi = state.tokens.char_span(*tok_range)
        assert second[lo:hi] == second[lo:hi].strip("\n")


def test_modification_when_inserting_inside_comment():
    rev1 = make_revision(1, "== T ==\nthe quick fox jumps ~~~~\n")
    rev2 = make_revision(2, "== T ==\nthe quick brown fox jumps ~~~~\n", minutes=5)
    state, actions = fold([rev1, rev2])
    mods = [a for a in actions if a.type is ActionType.MODIFICATION]
    assert len(mods) == 1
    addition = next(a for a in actions if a.type is ActionType.ADDITION)
    assert mods[0].parent_id == addition.action_id
    assert mods[0].replyto_id == addition.replyto_id
    assert "brown" in mods[0].content


def test_partial_removal_below_half_is_modification():
    rev1 = make_revision(1, "== T ==\none two three four five six ~~~~\n")
    rev2 = make_revision(2, "== T ==\none two three four five ~~~~\n", minutes=5)
    _, actions = fold([rev1, rev2])
    assert [a.type for a in actions[2:]] == [ActionType.MODIFICATION]


def test_majority_removal_is_deletion():
    rev1 = make_revision(1, "== T ==\none two three four five six ~~~~\n")
    rev2 = make_revision(2, "== T ==\none ~~~~\n", minutes=5)
    _, actions = fold([rev1, rev2])
    kinds = [a.type for a in actions[2:]]
    assert ActionType.DELETION in kinds


def test_deletion_keeps_a_look_alike_comment_that_stays():
    # A whole-page token alignment matched the kept comment's tokens to its
    # neighbours' and deleted all three comments.
    base = (
        "== T ==\n:Deeper reply 11 text ~~~~\n"
        ":Deeper reply 13 text ~~~~\n::Deeper reply 13 text ~~~~\n"
    )
    revs = [
        make_revision(1, base),
        make_revision(2, "== T ==\n:Deeper reply 13 text ~~~~\n", minutes=5),
        make_revision(3, "== T ==\n:Deeper reply 13 text, amended ~~~~\n", minutes=10),
    ]
    _, actions = fold(revs)
    kept = next(a for a in actions if a.raw_markup == ":Deeper reply 13 text ~~~~")
    by_rev = {rev: [a for a in actions if a.revision_id == rev] for rev in ("2", "3")}
    assert [a.type for a in by_rev["2"]] == [ActionType.DELETION] * 2
    assert kept.action_id not in {a.parent_id for a in by_rev["2"]}
    [edit] = by_rev["3"]
    assert edit.type is ActionType.MODIFICATION
    assert edit.parent_id == kept.action_id


def test_long_deleted_comment_not_stored():
    long_comment = "word " * 320  # ~1600 chars cleaned
    rev1 = make_revision(1, f"== T ==\n{long_comment.strip()} ~~~~\n")
    rev2 = make_revision(2, "== T ==\n", minutes=5)
    state, actions = fold([rev1, rev2])
    assert [a.type for a in actions][-1] is ActionType.DELETION
    assert len(state.store) == 0


def test_offsets_shift_with_prefix_insertion():
    base = "== Topic ==\nFirst comment goes here. ~~~~\n"
    intro = "an intro note up top.\n"
    state, actions = fold(
        [make_revision(1, base), make_revision(2, intro + base, minutes=5)]
    )
    spans = sorted(state.tokens.char_span(*tok_range) for _, tok_range in with_ranges(state.live))
    text = intro + base
    # heading and comment shifted by the intro length exactly
    assert (len(intro), len(intro) + len("== Topic ==")) in spans
    for _, tok_range in with_ranges(state.live):
        lo, hi = state.tokens.char_span(*tok_range)
        extracted = text[lo:hi]
        assert extracted and not extracted.startswith("\n") and not extracted.endswith("\n")


def test_span_extraction_matches_block_text_through_history():
    for script in gold_fixture_suite()[:8]:
        state, _ = fold(revision_records(script))
        final = script.revisions[-1].text
        live_texts = sorted(
            final[slice(*state.tokens.char_span(*tok_range))] for _, tok_range in with_ranges(state.live)
        )
        expected = sorted(b.text for b in script.blocks if b.alive)
        assert live_texts == expected


def test_classify_insertion_rules():
    base = "== T ==\nfirst comment line here. ~~~~\n"

    def types_after_base(text):
        _, actions = fold([make_revision(1, base), make_revision(2, text, minutes=5)])
        return [a.type for a in actions[2:]]

    assert types_after_base(base + "== New section ==\n") == [ActionType.CREATION]
    assert types_after_base(base.replace("comment", "comment words")) == [
        ActionType.MODIFICATION
    ]
    assert types_after_base(base + ":a new reply ~~~~\n") == [ActionType.ADDITION]


def test_detect_restoration_roundtrip():
    heading = "== Store lookups ==\n"
    comment = "comment text that is long enough to store ~~~~\n"
    unrelated = "unrelated text never deleted ~~~~\n"
    revisions = [
        make_revision(1, heading),
        make_revision(2, heading + comment, minutes=5),
        make_revision(3, heading, minutes=10),
        make_revision(4, heading + comment, minutes=15),
        make_revision(5, heading + comment + unrelated, minutes=20),
    ]
    _, actions = fold(revisions)
    kinds = [a.type for a in actions]
    assert kinds == [
        ActionType.CREATION,
        ActionType.ADDITION,
        ActionType.DELETION,
        ActionType.RESTORATION,
        ActionType.ADDITION,
    ]
    _, added, deleted, restored, _ = actions
    assert deleted.parent_id == added.action_id
    assert restored.parent_id == added.action_id
    assert restored.conversation_id == added.conversation_id


def store_texts(store):
    return [e.cleaned_text for e in store._entries]


def test_store_bound_invariant_through_churn():
    script = PageScript("89", "Talk:Churn")
    t = script.new_thread("Churn with store bounds")
    script.commit()
    handles = []
    for i in range(120):
        handles.append(script.add_comment(t, f"churned comment number {i} padded out"))
        script.commit(user=f"u{i % 4}")
    for h in handles:
        script.delete_comment(h)
        script.commit(user="mod")
    recon = Reconstructor()
    state = PageState(page_id="89", page_title="Talk:Churn")
    for rev in revision_records(script):
        recon.process_revision(state, rev)
        assert len(state.store) <= 100
        assert all(10 <= len(t_) <= 1000 for t_ in store_texts(state.store))


def test_determinism_byte_for_byte():
    records = revision_records(figure_walkthrough_script())
    first = [serialize_action(a) for a in reconstruct_page(records)]
    second = [serialize_action(a) for a in reconstruct_page(records)]
    assert first == second


def test_replay_reproduces_final_live_comments():
    for script in gold_fixture_suite():
        records = revision_records(script)
        actions = list(reconstruct_page(records))
        # replay: additions/creations/restorations add, deletions remove,
        # modifications replace content
        live: dict[str, str] = {}
        last_to_root: dict[str, str] = {}
        for a in actions:
            root = last_to_root.get(a.parent_id, a.parent_id) if a.parent_id else a.action_id
            if a.type is ActionType.CREATION and a.char_span[0] == a.char_span[1]:
                # synthetic page root: no presence in the text
                last_to_root[a.action_id] = a.action_id
            elif a.type in (ActionType.CREATION, ActionType.ADDITION, ActionType.RESTORATION):
                live[a.action_id if a.type is not ActionType.RESTORATION else root] = a.content
                last_to_root[a.action_id] = a.action_id if a.type is not ActionType.RESTORATION else root
            elif a.type is ActionType.MODIFICATION:
                live[root] = a.content
                last_to_root[a.action_id] = root
            else:
                live.pop(root, None)
                last_to_root[a.action_id] = root
        state, _ = fold(records)
        reconstructed = sorted(c.cleaned_text for c, _ in with_ranges(state.live))
        replayed = sorted(live.values())
        assert replayed == reconstructed


def test_insert_partition_covered_by_action_spans():
    for script in gold_fixture_suite()[:10]:
        records = revision_records(script)
        recon = Reconstructor()
        state = PageState(page_id=records[0].page_id, page_title=records[0].page_title)
        prev = tokenize("")
        for rev in records:
            new_seq = tokenize(rev.wikitext)
            script_ops = lcs_diff(prev, new_seq)
            _, actions = recon.process_revision(state, rev)
            assert_live_in_document_order(state)
            spans = [a.char_span for a in actions]
            new_offsets = offsets(new_seq)
            for op in script_ops.ops:
                if not isinstance(op, ChangeOp):
                    continue
                for tok_idx in range(op.new_lo, op.new_hi):
                    if new_seq[tok_idx] == "\n":
                        continue
                    lo, hi = new_offsets[tok_idx]
                    assert any(s <= lo and hi <= e for s, e in spans), (
                        rev.revision_id,
                        new_seq[tok_idx],
                    )
            prev = new_seq


def test_temporal_ordering_of_references():
    for script in gold_fixture_suite():
        actions = list(reconstruct_page(revision_records(script)))
        seen: dict[str, int] = {}
        for i, a in enumerate(actions):
            if a.replyto_id is not None:
                assert a.replyto_id in seen and seen[a.replyto_id] < i
            if a.parent_id is not None:
                assert a.parent_id in seen and seen[a.parent_id] < i
            seen[a.action_id] = i


def test_parent_chains_terminate_at_creation_or_addition():
    for script in gold_fixture_suite():
        actions = {a.action_id: a for a in reconstruct_page(revision_records(script))}
        for a in actions.values():
            hops = 0
            node = a
            while node.parent_id is not None:
                node = actions[node.parent_id]
                hops += 1
                assert hops < 1000, "parent cycle"
            assert node.type in (ActionType.CREATION, ActionType.ADDITION)


def random_edit_script(seed):
    """A page of 40 revisions, each adding, revising, deleting or restoring
    a comment or opening a thread at random."""
    rng = random.Random(seed)
    script = PageScript(f"rr{seed}", "Talk:Randomized")
    threads = [script.new_thread(f"Random thread {seed}")]
    script.commit()
    comments: list = []
    deleted: list = []
    for step in range(40):
        roll = rng.random()
        if roll < 0.45 or not comments:
            target = rng.choice(threads + comments)
            comments.append(
                script.add_comment(
                    target, f"random remark {step} with filler {rng.randrange(100)}"
                )
            )
        elif roll < 0.65:
            script.modify_comment(
                rng.choice(comments),
                f"revised remark {step} with filler {rng.randrange(100)}",
            )
        elif roll < 0.80 and len(comments) > 1:
            victim = comments.pop(rng.randrange(len(comments)))
            script.delete_comment(victim)
            deleted.append(victim)
        elif deleted and roll < 0.90:
            block, _ = script.reinsert_comment(deleted.pop())
            comments.append(block)
        else:
            threads.append(script.new_thread(f"Another thread {step}"))
        script.commit(user=f"u{rng.randrange(6)}")
    return script


def test_randomized_edit_sequences_spans_and_gold():
    from wikitalk.evalharness import DIMENSIONS, score_against_gold

    for seed in range(6):
        script = random_edit_script(seed)
        state, actions = fold(revision_records(script))
        final = script.revisions[-1].text
        live_texts = sorted(
            final[slice(*state.tokens.char_span(*tok_range))] for _, tok_range in with_ranges(state.live)
        )
        expected = sorted(b.text for b in script.blocks if b.alive)
        assert live_texts == expected, f"seed {seed}"
        table = score_against_gold(actions, script.gold)
        for dim in DIMENSIONS:
            assert table.accuracy(None, dim) == 1.0, (seed, table.render())


# The linear scans over character spans that the bisecting resolvers
# replaced; kept as the reference they must agree with.
def reference_resolve_thread(live, char_pos):
    best = None
    for c in live:
        if c.span[0] >= char_pos:
            break
        if c.is_heading:
            best = c
    return best


def reference_resolve_reply(live, char_pos, indent, conversation_id):
    fallback = None
    for c in reversed(live):
        if c.span[0] >= char_pos:
            continue
        if c.conversation_id != conversation_id:
            continue
        if c.indentation == indent - 1:
            return c.last_action_id
        if fallback is None and c.indentation < indent:
            fallback = c.last_action_id
    return fallback


def test_resolvers_match_linear_scans(monkeypatch):
    """At every segment emitted, the bisecting resolvers on token positions
    give what the linear scans on character spans give, with live-comment
    blocks of the default size and of two comments."""
    recon = Reconstructor()
    original = Reconstructor._emit_segment
    checked = []

    def checking(self, state, rev, seg, *args):
        new_seq = tokenize(rev.wikitext)
        spanned = [
            SimpleNamespace(**vars(c), span=new_seq.char_span(*tok_range))
            for c, tok_range in with_ranges(state.live)
        ]
        thread = recon._resolve_thread(state.live, seg.tok_lo)
        want = reference_resolve_thread(spanned, seg.char_lo)
        assert (thread and thread.comment_id) == (want and want.comment_id)
        for conversation_id in {c.conversation_id for c, _ in with_ranges(state.live)}:
            for indent in range(seg.indentation + 2):
                got = recon._resolve_reply(state.live, seg.tok_lo, indent, conversation_id)
                assert got == reference_resolve_reply(spanned, seg.char_lo, indent, conversation_id)
        checked.append(thread is not None)
        return original(self, state, rev, seg, *args)

    monkeypatch.setattr(Reconstructor, "_emit_segment", checking)
    scripts = gold_fixture_suite() + [random_tree_script(seed)[0] for seed in range(10)]
    for block_size in (reconstruct.BLOCK_SIZE, 2):
        monkeypatch.setattr(reconstruct, "BLOCK_SIZE", block_size)
        checked.clear()
        for script in scripts:
            fold(revision_records(script), recon)
        assert len(checked) > 200 and any(checked) and not all(checked)


def fold_observed(records):
    """Every action serialized, and every live comment's id and token range
    after each revision."""
    recon = Reconstructor()
    state = PageState(page_id=records[0].page_id, page_title=records[0].page_title)
    lines, ranges = [], []
    for rev in records:
        _, actions = recon.process_revision(state, rev)
        lines.extend(serialize_action(a) for a in actions)
        ranges.append([(c.comment_id, tok_range) for c, tok_range in with_ranges(state.live)])
    return lines, ranges


@pytest.mark.parametrize("size", [2, 3])
def test_block_and_chunk_sizes_do_not_change_output(monkeypatch, size):
    """Live-comment blocks and token-offset chunks are storage only: tiny
    ones give the same actions and the same live ranges as the defaults.
    Every third revision of the random edit pages makes revisions with
    several changes each."""
    scripts = gold_fixture_suite() + [random_tree_script(0, n_comments=200)[0]]
    pages = [revision_records(script) for script in scripts]
    for seed in range(6):
        records = revision_records(random_edit_script(seed))
        pages += [records, records[::3]]
    want = [fold_observed(records) for records in pages]
    monkeypatch.setattr(reconstruct, "BLOCK_SIZE", size)
    monkeypatch.setattr(tokenizer, "CHUNK_SIZE", size)
    for records, expected in zip(pages, want):
        assert fold_observed(records) == expected, records[0].page_id


def test_segment_text_blank_lines_separate():
    seq = tokenize(":one comment here\n\n:another comment\n")
    segments = segment_text(seq, 0, len(seq))
    assert len(segments) == 2
    assert segments[0].indentation == 1 and segments[1].indentation == 1


def test_segment_text_signature_splits_same_indent():
    seq = tokenize(":first words 12:01, 3 May 2017 (UTC)\n:second words\n")
    segments = segment_text(seq, 0, len(seq))
    assert len(segments) == 2


def test_segment_text_unsigned_same_indent_merges():
    seq = tokenize(":first words\n:more of the same comment\n")
    segments = segment_text(seq, 0, len(seq))
    assert len(segments) == 1


def talk_page_lines(threads):
    """Threads of a heading and ten signed comments at indents 0-3, each
    line about 80 characters: 11 live comments a thread."""
    lines = []
    for t in range(threads):
        lines.append(f"== Thread {t} about the article's sourcing and neutrality ==\n")
        lines += [
            f"{':' * (c % 4)}Comment {c} in thread {t} on the lead section "
            f"[[User:U{c}|U{c}]] 12:0{c}, 3 May 2017 (UTC)\n"
            for c in range(10)
        ]
    return lines


# The tokens a reply's diff may search past the shared head and tail that
# tokenize hands over: about a line's worth, whatever the page's size.
REPLY_SEARCH_BOUND = 16


def test_appending_replies_costs_the_reply_not_the_page(monkeypatch):
    """Replies appended to a thread in the middle of a 220-comment and of a
    14,080-comment (1 MB) page: each is one ADDITION, the diff's prefix
    and suffix searches cover the same few tokens on both pages, and the
    new sequence keeps all but a few of the old token chunks."""
    searched = [0]

    def counting(search):
        def wrapper(*args):
            k = search(*args)
            searched[0] += k
            return k

        return wrapper

    monkeypatch.setattr(diff_mod, "common_prefix", counting(diff_mod.common_prefix))
    monkeypatch.setattr(diff_mod, "common_suffix", counting(diff_mod.common_suffix))
    for threads in (20, 1280):
        lines = talk_page_lines(threads)
        recon, state = Reconstructor(), PageState(page_id="1", page_title="Talk:Big")
        recon.process_revision(state, make_revision(0, "".join(lines)))
        assert len(list(with_ranges(state.live))) == threads * 11
        at = 11 * (threads // 2)  # after the last comment of a middle thread
        for k in range(1, 21):
            lines.insert(at + k - 1, f"::Reply {k} to the thread above, agreeing with the previous point ~~~~\n")
            old = state.tokens
            searched[0] = 0
            _, actions = recon.process_revision(state, make_revision(k, "".join(lines), minutes=k))
            assert [a.type for a in actions] == [ActionType.ADDITION]
            assert searched[0] <= REPLY_SEARCH_BOUND, (threads, k)
            # re-chunked: the one the reply lands in, and one or two after it
            old_chunks = {id(chunk) for chunk in old.chunk_tokens}
            kept = sum(id(chunk) in old_chunks for chunk in state.tokens.chunk_tokens)
            assert kept >= len(old.chunk_tokens) - 3, (threads, k)


# The diff once refused either side above 2,000,000 tokens and resynced the
# page without emitting an action, so this page is built above that.
def test_page_over_two_million_tokens_is_diffed():
    """A page with one comment of two million words: the first revision
    gives one action per comment, and each reply before the long comment is
    one ADDITION."""
    lines = ["== Thread ==\n"]
    lines += [f":Comment {c} on the sources ~~~~\n" for c in range(250)]
    lines.append("x " * 2_000_001 + "~~~~\n")
    lines += [f":Comment {c} on the sources ~~~~\n" for c in range(250, 501)]
    recon, state = Reconstructor(), PageState(page_id="1", page_title="Talk:Huge")
    _, actions = recon.process_revision(state, make_revision(0, "".join(lines)))
    assert len(state.tokens) > 2_000_000
    assert [a.type for a in actions] == [ActionType.CREATION] + [ActionType.ADDITION] * 502
    assert actions[251].raw_markup == "x " * 2_000_001 + "~~~~"
    for k in range(1, 4):
        lines.insert(250 + k, f"::Reply {k} ~~~~\n")
        _, actions = recon.process_revision(state, make_revision(k, "".join(lines), minutes=k))
        assert [(a.type, a.raw_markup) for a in actions] == [
            (ActionType.ADDITION, f"::Reply {k} ~~~~")
        ]
