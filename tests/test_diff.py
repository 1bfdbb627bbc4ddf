import hashlib
import json
from collections import Counter
from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wikitalk.diff as diff_mod
from tests.conftest import DiffApplyError, apply_diff, equal_token_count, revision_records
from wikitalk import tokenizer
from wikitalk.diff import ChangeOp, DiffScript, EqualOp, lcs_diff
from wikitalk.pipeline import PipelineConfig, run_pipeline
from wikitalk.synth import gold_fixture_suite, random_tree_script, write_dump
from wikitalk.tokenizer import common_prefix, common_suffix, tokenize


def dp_lcs_len(a, b):
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) - 1, -1, -1):
        for j in range(len(b) - 1, -1, -1):
            if a[i] == b[j]:
                table[i][j] = table[i + 1][j + 1] + 1
            else:
                table[i][j] = max(table[i + 1][j], table[i][j + 1])
    return table[0][0]


small_seq = st.lists(st.sampled_from(["a", "b", "c"]), max_size=12).map(" ".join)
doc = st.lists(
    st.lists(st.sampled_from(["aa", "bb", "cc", "::", "=="]), max_size=5).map(" ".join),
    max_size=20,
).map("\n".join)


def test_identical_sequences_single_equal():
    seq = tokenize("x y z\nmore text")
    script = lcs_diff(seq, seq)
    assert len(script.ops) == 1
    assert isinstance(script.ops[0], EqualOp)
    assert script.ops[0].old_hi == len(seq)


def test_empty_old_single_insert():
    new = tokenize("a b")
    script = lcs_diff(tokenize(""), new)
    assert len(script.ops) == 1
    op = script.ops[0]
    assert isinstance(op, ChangeOp)
    assert new[op.new_lo : op.new_hi] == ["a", "b"]


def test_empty_new_single_delete():
    script = lcs_diff(tokenize("a b"), tokenize(""))
    assert [type(op) for op in script.ops] == [ChangeOp]


@given(small_seq, small_seq)
def test_lcs_length_matches_dp_oracle(a, b):
    sa, sb = tokenize(a), tokenize(b)
    script = lcs_diff(sa, sb)
    assert equal_token_count(script) == dp_lcs_len(sa[:], sb[:])


@given(doc, doc)
@settings(max_examples=200)
def test_round_trip(a, b):
    sa, sb = tokenize(a), tokenize(b)
    script = lcs_diff(sa, sb)
    assert apply_diff(sa, sb, script)[:] == sb[:]


# On one line the line-anchored diff is one exact token LCS, which inserts
# as many tokens one way as it deletes the other. Across lines it is not:
# of equally long line alignments it takes the first, whatever their token
# counts ('\naa\n' to 'aa\n\n' keeps 2 tokens, the reverse keeps 1).
@given(small_seq, small_seq)
@settings(max_examples=100)
def test_insert_delete_symmetry(a, b):
    sa, sb = tokenize(a), tokenize(b)
    forward = lcs_diff(sa, sb)
    backward = lcs_diff(sb, sa)
    assert forward.inserted_token_count() == backward.deleted_token_count()
    assert forward.deleted_token_count() == backward.inserted_token_count()


@given(doc, doc)
@settings(max_examples=100)
def test_normalized_form(a, b):
    old, new = tokenize(a), tokenize(b)
    script = lcs_diff(old, new)
    kinds = [type(op) for op in script.ops]
    for k1, k2 in zip(kinds, kinds[1:]):
        assert k1 != k2, "adjacent ops of the same kind"
    # every op is non-empty, and the ops tile both token ranges in order
    old_cursor = new_cursor = 0
    for op in script.ops:
        assert op.old_hi > op.old_lo or op.new_hi > op.new_lo
        if isinstance(op, EqualOp):
            assert op.old_hi - op.old_lo == op.new_hi - op.new_lo
        assert (op.old_lo, op.new_lo) == (old_cursor, new_cursor)
        old_cursor, new_cursor = op.old_hi, op.new_hi
    assert (old_cursor, new_cursor) == (len(old), len(new))


def test_determinism():
    a = tokenize("one two three\n:four five\nsix")
    b = tokenize("one two 2 three\n:four\nsix seven")
    first = lcs_diff(a, b)
    second = lcs_diff(a, b)
    assert first == second


def test_line_boundary_slide_keeps_sibling_comments_whole():
    old = tokenize(": first remark ~~~~\n: third remark ~~~~\n")
    new = tokenize(": first remark ~~~~\n: second remark ~~~~\n: third remark ~~~~\n")
    script = lcs_diff(old, new)
    inserts = [op for op in script.ops if isinstance(op, ChangeOp)]
    assert len(inserts) == 1
    assert new.text[new.char_span(inserts[0].new_lo, inserts[0].new_hi)[0] :].startswith(
        ": second remark"
    )


@given(doc, doc)
@settings(max_examples=100)
@example("\n :", "\n : \n")  # two touching blocks
@example(": \n", ": : \n")  # an insert slid to the line start
def test_each_op_is_built_once(a, b):
    built = []

    def counted(cls):
        def build(*fields):
            built.append(cls)
            return cls(*fields)

        return build

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diff_mod, "EqualOp", counted(EqualOp))
        mp.setattr(diff_mod, "ChangeOp", counted(ChangeOp))
        script = lcs_diff(tokenize(a), tokenize(b))
    assert built == [type(op) for op in script.ops]


def test_apply_diff_empty_on_empty():
    empty = tokenize("")
    assert apply_diff(empty, empty, lcs_diff(empty, empty))[:] == []


def test_apply_diff_mismatch_names_op_index():
    old, new = tokenize("a b c"), tokenize("a b")
    script = DiffScript(ops=(EqualOp(0, 2, 0, 2), ChangeOp(4, 9, 2, 2)))
    with pytest.raises(DiffApplyError) as err:
        apply_diff(old, new, script)
    assert err.value.op_index == 1


def test_prepass_path_round_trips():
    a = tokenize("alpha beta\ngamma delta\nepsilon\n")
    b = tokenize("alpha beta\nzeta eta\nepsilon theta\n")
    script = lcs_diff(a, b)
    assert apply_diff(a, b, script)[:] == b[:]


@st.composite
def edited_doc(draw):
    """A doc and a copy with one slice (possibly empty, possibly at either
    end) replaced by another doc (possibly empty)."""
    a = draw(doc)
    lo = draw(st.integers(0, len(a)))
    hi = draw(st.integers(lo, len(a)))
    return a, a[:lo] + draw(doc) + a[hi:]


# Whole-line inserts next to lines that share their leading or trailing
# tokens (":" indents, "~~~~", a repeated line) at the start, the middle and
# the end of a page; read the other way round, each is a whole-line delete.
WHOLE_LINE_EDITS = [
    (":a ~~~~\n:b ~~~~\n", ":c ~~~~\n:a ~~~~\n:b ~~~~\n"),
    ("== h ==\n:a ~~~~\n::b ~~~~\n", "== h ==\n:a ~~~~\n:c ~~~~\n::b ~~~~\n"),
    ("== h ==\n:a ~~~~\n::b ~~~~\n", "== h ==\n:a ~~~~\n::a ~~~~\n::b ~~~~\n"),
    ("== h ==\n:a ~~~~\n", "== h ==\n:a ~~~~\n:c ~~~~\n"),
    ("== h ==\n:a ~~~~", "== h ==\n:a ~~~~\n:a ~~~~"),
    ("a b ~~~~\nc b ~~~~\n", "a b ~~~~\nd b ~~~~\nc b ~~~~\n"),
    ("x\na\ny\n", "x\na\na\ny\n"),
    ("a\na\n", "a\na\na\n"),
    ("a\na\n", "a\n"),
]


def with_examples(pairs):
    """Add each pair as an explicit hypothesis example."""

    def decorate(test):
        for pair in pairs:
            test = example(pair)(test)
        return test

    return decorate


@pytest.mark.parametrize("chunk_size", [tokenizer.CHUNK_SIZE, 2])
@given(edited_doc())
@with_examples(WHOLE_LINE_EDITS)
@settings(max_examples=150)
@example(("aa bb\ncc", "aa bb\ncc"))
@example(("aa bb\ncc", "== aa bb\ncc"))
@example(("aa bb\ncc", "aa bb\ncc ::"))
@example(("aa bb\ncc", "aa bb"))
@example(("a a", "a a a"))
@example(("aa\naa\n", "aa\naa\naa\n"))
@example(("aa\n\naa\n", "aa\n"))
@example(("a  x\nc\n", "a x\nc\nc\n"))
def test_shared_counts_give_the_fresh_diff(chunk_size, pair):
    """The diff of an incrementally tokenized pair, given the head and tail
    tokenize reports, is the diff of two fresh sequences, op for op."""
    a, b = pair
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tokenizer, "CHUNK_SIZE", chunk_size)
        for x, y in ((a, b), (b, a)):
            old = tokenize(x)
            new, head, tail = tokenize(y, old)
            assert lcs_diff(old, new, shared=(head, tail)) == lcs_diff(old, tokenize(y))


def test_line_starts_are_found_in_the_text(monkeypatch):
    """A word edited in the middle of a 28,000-word one-line paragraph (218
    chunks): the diff finds the start of the line it is on without reading
    the paragraph's tokens one at a time."""
    words = [f"w{i}" for i in range(28_000)]
    old = tokenize(" ".join(words))
    assert len(old.chunk_tokens) == 218
    reads = [0]
    getitem = tokenizer.TokenSequence.__getitem__

    def counting(self, i):
        reads[0] += 1
        return getitem(self, i)

    for k, word in enumerate(("x", "yy", "zzz")):
        words[14_000 + k] = word
        text = " ".join(words)
        new, head, tail = tokenize(text, old)
        monkeypatch.setattr(tokenizer.TokenSequence, "__getitem__", counting)
        reads[0] = 0
        script = lcs_diff(old, new, shared=(head, tail))
        monkeypatch.undo()
        assert reads[0] <= 200, k
        assert script == lcs_diff(old, tokenize(text))
        old = new


def test_reply_before_a_long_line_leaves_the_suffix_to_tokenize(monkeypatch):
    """A reply inserted directly before a line of 50,000 words: tokenize
    reports that line in the tail, so the diff never searches for a common
    suffix."""
    lines = [":first ~~~~\n", "w " * 50_000 + "~~~~\n", ":last ~~~~\n"]
    old = tokenize("".join(lines))
    lines.insert(1, "::reply ~~~~\n")
    new, head, tail = tokenize("".join(lines), old)
    searches = [0]
    suffix = diff_mod.common_suffix

    def counting(*args):
        searches[0] += 1
        return suffix(*args)

    monkeypatch.setattr(diff_mod, "common_suffix", counting)
    script = lcs_diff(old, new, shared=(head, tail))
    monkeypatch.undo()
    assert searches[0] == 0
    assert script == lcs_diff(old, tokenize("".join(lines)))
    assert [op for op in script.ops if isinstance(op, ChangeOp)] == [ChangeOp(4, 4, 4, 8)]


def test_only_the_edited_line_is_split_into_lines(monkeypatch):
    """A word edited in the first line of a page, diffed with the counts
    tokenize reports: the lines after it are the tail, so the line diff
    sees one line a side."""
    split, lines = [], diff_mod._lines

    def splitting(tokens, interned):
        split.append(tokens)
        return lines(tokens, interned)

    monkeypatch.setattr(diff_mod, "_lines", splitting)
    page = [f":comment {i} ~~~~\n" for i in range(50)]
    old = tokenize("".join(page))
    page[0] = ":comment 0 edited ~~~~\n"
    new, head, tail = tokenize("".join(page), old)
    lcs_diff(old, new, shared=(head, tail))
    assert split == [tokenize(":comment 0 ~~~~\n")[:], tokenize(page[0])[:]]


def test_whole_line_replies_skip_the_line_diff(tmp_path, monkeypatch):
    """On short tree pages every revision is a whole-line edit: the diff
    takes the lines around it as its prefix and the tail tokenize reports,
    never splits a middle into lines, searches at most once for the common
    prefix and never for the common suffix."""
    calls = Counter()

    def counting(name):
        search = getattr(diff_mod, name)

        def wrapper(*args):
            calls[name] += 1
            return search(*args)

        return wrapper

    for name in ("_lines", "common_prefix", "common_suffix"):
        monkeypatch.setattr(diff_mod, name, counting(name))
    scripts = [
        random_tree_script(seed, n_comments=8, page_id=str(seed))[0] for seed in range(1, 31)
    ]
    dump = write_dump(scripts, tmp_path / "dump.xml", shuffle_seed=3)
    run_pipeline(PipelineConfig(input_path=dump, output_path=tmp_path / "corpus.jsonl"))
    revisions = sum(len(script.revisions) for script in scripts)
    assert calls["_lines"] == 0
    assert calls["common_prefix"] <= revisions
    assert calls["common_suffix"] == 0


def test_oversized_region_falls_back_to_replace(monkeypatch):
    monkeypatch.setattr(diff_mod, "_REGION_TOKEN_CAP", 4)
    a = tokenize("p q r s t")
    b = tokenize("v w x y z")
    script = lcs_diff(a, b)
    assert apply_diff(a, b, script)[:] == b[:]
    assert equal_token_count(script) == 0


def _op_fields(op, new):
    """The op as the field lists of the Equal/Delete/Insert form it had
    when the hash below was pinned: a ChangeOp is a delete anchored at its
    new start followed by an insert anchored at its old end, whose text is
    the op's span of ``new``."""
    if isinstance(op, EqualOp):
        return [["=", op.old_lo, op.old_hi, op.new_lo, op.new_hi]]
    fields = []
    if op.old_hi > op.old_lo:
        fields.append(["-", op.old_lo, op.old_hi, op.new_lo])
    if op.new_hi > op.new_lo:
        text = new.slice_text(op.new_lo, op.new_hi)
        fields.append(["+", op.old_hi, op.new_lo, op.new_hi, text])
    return fields


def _script_fields(script, new):
    return [fields for op in script.ops for fields in _op_fields(op, new)]


# sha256 of the edit scripts below, by middle-snake search depth. At the
# default depth, as the line-anchored diff produced them when it split every
# line of both pages, before it learned to split only the changed middle
# into lines: the trim must not change a single op. At depth 0 every search
# bails out, so each changed middle left after the common prefix and suffix
# are cut off is one wholesale replace.
PINNED_GOLD_SCRIPTS_SHA256 = {
    0: "52076a606972273586c5914c11009973369da4353eabff6362e0c1c7e5592120",
    diff_mod._MAX_SEARCH_DEPTH: "3ecd8c70df6400ef8dde3b6cfabd91a9aa8261a44947f9ba80db22c9dd2611d8",
}

# The middle-snake search as it runs by default, and with every search
# bailing out at once, so each changed window becomes a wholesale replace.
search_depths = pytest.mark.parametrize("search_depth", [0, diff_mod._MAX_SEARCH_DEPTH])


@search_depths
def test_gold_suite_scripts_are_pinned(monkeypatch, search_depth):
    monkeypatch.setattr(diff_mod, "_MAX_SEARCH_DEPTH", search_depth)
    digest = hashlib.sha256()
    for script in gold_fixture_suite():
        prev = tokenize("")
        for rev in revision_records(script):
            cur = tokenize(rev.wikitext)
            ops = _script_fields(lcs_diff(prev, cur), cur)
            digest.update(json.dumps(ops).encode() + b"\n")
            prev = cur
    assert digest.hexdigest() == PINNED_GOLD_SCRIPTS_SHA256[search_depth]


# The differ as it was before it kept only matching blocks: _myers emitted
# "=", "-" and "+" tuples tiling both windows. reference_middle_snake and
# reference_myers are that code, kept as the oracle for the blocks.
def reference_middle_snake(a, alo, ahi, b, blo, bhi):
    n = ahi - alo
    m = bhi - blo
    delta = n - m
    odd = delta % 2 != 0
    vf = {1: 0}
    vb = {1: 0}
    max_d = (n + m + 1) // 2
    for d in range(min(max_d, diff_mod._MAX_SEARCH_DEPTH) + 1):
        for k in range(-d, d + 1, 2):
            if k == -d or (k != d and vf.get(k - 1, -1) < vf.get(k + 1, -1)):
                x = vf[k + 1]
            else:
                x = vf[k - 1] + 1
            y = x - k
            x0, y0 = x, y
            while x < n and y < m and a[alo + x] == b[blo + y]:
                x += 1
                y += 1
            vf[k] = x
            if odd and -(d - 1) <= k - delta <= d - 1:
                if x + vb.get(delta - k, -(n + m)) >= n:
                    return 2 * d - 1, x0, y0, x, y
        for k in range(-d, d + 1, 2):
            if k == -d or (k != d and vb.get(k - 1, -1) < vb.get(k + 1, -1)):
                x = vb[k + 1]
            else:
                x = vb[k - 1] + 1
            y = x - k
            x0, y0 = x, y
            while x < n and y < m and a[ahi - 1 - x] == b[bhi - 1 - y]:
                x += 1
                y += 1
            vb[k] = x
            if not odd and -d <= k - delta <= d:
                if x + vf.get(delta - k, -(n + m)) >= n:
                    return 2 * d, n - x, m - y, n - x0, m - y0
    return None


def reference_myers(a, alo, ahi, b, blo, bhi, out):
    pre = common_prefix(a, alo, ahi, b, blo, bhi)
    if pre:
        out.append(("=", alo, alo + pre, blo, blo + pre))
        alo += pre
        blo += pre
    suf = common_suffix(a, alo, ahi, b, blo, bhi)
    suffix = None
    if suf:
        suffix = ("=", ahi - suf, ahi, bhi - suf, bhi)
        ahi -= suf
        bhi -= suf
    n = ahi - alo
    m = bhi - blo
    if n == 0 and m == 0:
        pass
    elif n == 0:
        out.append(("+", alo, alo, blo, bhi))
    elif m == 0:
        out.append(("-", alo, ahi, blo, blo))
    elif n + m > diff_mod._REGION_TOKEN_CAP:
        out.append(("-", alo, ahi, blo, blo))
        out.append(("+", ahi, ahi, blo, bhi))
    else:
        snake = reference_middle_snake(a, alo, ahi, b, blo, bhi)
        if snake is None:
            out.append(("-", alo, ahi, blo, blo))
            out.append(("+", ahi, ahi, blo, bhi))
        else:
            d, x0, y0, x1, y1 = snake
            if d > 1:
                reference_myers(a, alo, alo + x0, b, blo, blo + y0, out)
                if x1 > x0:
                    out.append(("=", alo + x0, alo + x1, blo + y0, blo + y1))
                reference_myers(a, alo + x1, ahi, b, blo + y1, bhi, out)
            elif n > m:
                # exactly one deletion; place it leftmost
                i = common_prefix(a, alo, ahi, b, blo, bhi)
                if i:
                    out.append(("=", alo, alo + i, blo, blo + i))
                out.append(("-", alo + i, alo + i + 1, blo + i, blo + i))
                if alo + i + 1 < ahi:
                    out.append(("=", alo + i + 1, ahi, blo + i, bhi))
            else:
                # exactly one insertion; place it leftmost
                i = common_prefix(a, alo, ahi, b, blo, bhi)
                if i:
                    out.append(("=", alo, alo + i, blo, blo + i))
                out.append(("+", alo + i, alo + i, blo + i, blo + i + 1))
                if blo + i + 1 < bhi:
                    out.append(("=", alo + i, ahi, blo + i + 1, bhi))
    if suffix:
        out.append(suffix)


def blocks_of(tagged_ops):
    """The "=" tuples of a tagged script as (old_start, new_start, length)."""
    return [(alo, blo, ahi - alo) for tag, alo, ahi, blo, _ in tagged_ops if tag == "="]


def tagged_ops(blocks, n, m):
    """Matching blocks as the tagged script tiling old [0, n) and new
    [0, m): each gap is a "-" for its old tokens, then a "+" for its new."""
    out, i, j = [], 0, 0
    for alo, blo, size in [*blocks, (n, m, 0)]:
        if alo > i:
            out.append(("-", i, alo, j, j))
        if blo > j:
            out.append(("+", alo, alo, j, blo))
        if size:
            out.append(("=", alo, alo + size, blo, blo + size))
        i, j = alo + size, blo + size
    return out


diff_tokens = st.lists(st.sampled_from(["a", "b", "c", "\n"]), max_size=30)


# A region cap of 4 tokens and a search depth of 1 each leave some windows
# without a block; no other test reaches the search-depth bail-out.
@pytest.mark.parametrize("region_cap", [diff_mod._REGION_TOKEN_CAP, 4])
@pytest.mark.parametrize("search_depth", [diff_mod._MAX_SEARCH_DEPTH, 1])
@given(diff_tokens, diff_tokens)
@settings(max_examples=200)
@example(list("abcabba"), list("cbabac"))
def test_blocks_match_reference_myers(region_cap, search_depth, a, b):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diff_mod, "_REGION_TOKEN_CAP", region_cap)
        mp.setattr(diff_mod, "_MAX_SEARCH_DEPTH", search_depth)
        out = []
        reference_myers(a, 0, len(a), b, 0, len(b), out)
        assert diff_mod._diff_tokens(a, b) == blocks_of(out)


def reference_diff_with_prepass(a, b):
    """The line prepass as it was before the trim: every line of both sides
    goes through the line-level diff."""

    def line_ranges(tokens):
        ranges, lo = [], 0
        for i, tok in enumerate(tokens):
            if tok == "\n":
                ranges.append((lo, i + 1))
                lo = i + 1
        if lo < len(tokens):
            ranges.append((lo, len(tokens)))
        return ranges

    a_lines, b_lines = line_ranges(a), line_ranges(b)
    interned = {}
    a_ids = [interned.setdefault(tuple(a[lo:hi]), len(interned)) for lo, hi in a_lines]
    b_ids = [interned.setdefault(tuple(b[lo:hi]), len(interned)) for lo, hi in b_lines]
    a_lines.append((len(a), len(a)))
    b_lines.append((len(b), len(b)))

    out, i, j = [], 0, 0
    for la, lb, size in [*diff_mod._diff_tokens(a_ids, b_ids), (len(a_ids), len(b_ids), 0)]:
        alo, blo = a_lines[la][0], b_lines[lb][0]
        if (alo - i) + (blo - j) <= diff_mod._REGION_TOKEN_CAP:
            diff_mod._myers(a, i, alo, b, j, blo, out)
        if size:
            i, j = a_lines[la + size - 1][1], b_lines[lb + size - 1][1]
            out.append((alo, blo, i - alo))
    return out


line_tokens = st.lists(st.sampled_from(["a", "b", "\n"]), max_size=12)


@st.composite
def shared_middle(draw):
    """Token lists that share a long middle run, so the common prefix and
    suffix end on and off line boundaries."""
    shared = draw(st.lists(st.sampled_from(["a", "b", "\n"]), max_size=40))
    a = draw(line_tokens) + shared + draw(line_tokens)
    b = draw(line_tokens) + shared + draw(line_tokens)
    if draw(st.booleans()):
        cut = draw(st.integers(0, len(a)))
        b = a[:cut] + draw(line_tokens) + a[draw(st.integers(cut, len(a))) :]
    return a, b


def token_sequence(tokens):
    """The sequence of ``tokens``: the text with a space before every token
    but a newline."""
    return tokenize("".join(tok if tok == "\n" else f" {tok}" for tok in tokens))


@given(shared_middle())
@settings(max_examples=300)
@with_examples((tokenize(x)[:], tokenize(y)[:]) for p in WHOLE_LINE_EDITS for x, y in (p, p[::-1]))
@example((["a", "\n", "b"], ["a", "\n", "b"]))
@example((["a", "\n"], ["a", "\n", "b"]))
@example((["a", "b"], ["a", "b", "c"]))
@example((["x", "\n", "a", "\n"], ["y", "a", "\n"]))
@example((["\n", "a"], ["b", "\n", "a"]))
@example(([], ["a", "\n"]))
def test_prepass_trim_matches_full_line_prepass(pair):
    a, b = pair
    n, m = len(a), len(b)
    want = diff_mod._runs(reference_diff_with_prepass(a, b))
    # any true counts of shared head tokens, and of shared tail tokens that
    # start a line on both sides, as tokenize reports them, even overlapping
    # ones; the shared tail and a touching block of the line diff are two
    # blocks, so the blocks are compared merged into runs
    prefix = common_prefix(a, 0, n, b, 0, m)
    suffix = common_suffix(a, 0, n, b, 0, m)

    def starts_line(tokens, i):
        return i == 0 or tokens[i - 1] == "\n"

    tails = [t for t in range(suffix + 1) if t == 0 or starts_line(a, n - t) and starts_line(b, m - t)]
    for chunk_size in (tokenizer.CHUNK_SIZE, 2):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tokenizer, "CHUNK_SIZE", chunk_size)
            old, new = token_sequence(a), token_sequence(b)
        for head in {0, prefix // 2, prefix}:
            for tail in tails:
                got = diff_mod._diff_with_prepass(old, new, head, tail)
                assert diff_mod._runs(got) == want


# The normal form as it was before each changed region became one ChangeOp:
# a region was a DeleteOp followed by an InsertOp. reference_normalize and
# reference_slide_pure_runs are that code, kept as the oracle for ChangeOp.
@dataclass(frozen=True)
class RefDeleteOp:
    old_lo: int
    old_hi: int
    new_pos: int


@dataclass(frozen=True)
class RefInsertOp:
    old_pos: int
    new_lo: int
    new_hi: int
    tokens: tuple
    raw: str


def reference_normalize(raw_ops, new):
    ops = []
    i = 0
    old_cursor = 0
    new_cursor = 0
    while i < len(raw_ops):
        tag = raw_ops[i][0]
        if tag == "=":
            alo, ahi, blo, bhi = raw_ops[i][1:]
            j = i + 1
            while j < len(raw_ops) and raw_ops[j][0] == "=":
                ahi = raw_ops[j][2]
                bhi = raw_ops[j][4]
                j += 1
            ops.append(EqualOp(alo, ahi, blo, bhi))
            old_cursor, new_cursor = ahi, bhi
            i = j
        else:
            del_lo = del_hi = old_cursor
            ins_lo = ins_hi = new_cursor
            j = i
            while j < len(raw_ops) and raw_ops[j][0] != "=":
                tag2, alo, ahi, blo, bhi = raw_ops[j]
                if tag2 == "-":
                    del_hi = ahi
                else:
                    ins_hi = bhi
                j += 1
            if del_hi > del_lo:
                ops.append(RefDeleteOp(del_lo, del_hi, ins_lo))
            if ins_hi > ins_lo:
                start, end = new.char_span(ins_lo, ins_hi)
                ops.append(
                    RefInsertOp(del_hi, ins_lo, ins_hi, tuple(new[ins_lo:ins_hi]), new.text[start:end])
                )
            old_cursor, new_cursor = del_hi, ins_hi
            i = j
    return ops


def reference_slide_pure_runs(ops, a, b, new):
    def line_aligned(tokens, start):
        return start == 0 or tokens[start - 1] == "\n"

    for i, op in enumerate(ops):
        prev_op = ops[i - 1] if i > 0 else None
        next_op = ops[i + 1] if i + 1 < len(ops) else None
        prev_eq = prev_op if isinstance(prev_op, EqualOp) else None
        next_eq = next_op if isinstance(next_op, EqualOp) else None

        if isinstance(op, RefInsertOp):
            if isinstance(prev_op, RefDeleteOp):
                continue
            tokens, lo, hi = b, op.new_lo, op.new_hi
        elif isinstance(op, RefDeleteOp):
            if isinstance(next_op, RefInsertOp):
                continue
            tokens, lo, hi = a, op.old_lo, op.old_hi
        else:
            continue
        if lo >= hi or line_aligned(tokens, lo):
            continue

        max_left = 0
        if prev_eq is not None and next_eq is not None:
            prev_len = prev_eq.old_hi - prev_eq.old_lo
            keep = 0 if i - 1 == 0 else 1
            while (
                max_left < prev_len - keep
                and tokens[lo - max_left - 1] == tokens[hi - max_left - 1]
            ):
                max_left += 1
        max_right = 0
        if next_eq is not None and prev_eq is not None:
            next_len = next_eq.old_hi - next_eq.old_lo
            keep = 0 if i + 1 == len(ops) - 1 else 1
            while (
                max_right < next_len - keep
                and hi + max_right < len(tokens)
                and tokens[hi + max_right] == tokens[lo + max_right]
            ):
                max_right += 1

        shift = None
        for k in range(-max_left, max_right + 1):
            if line_aligned(tokens, lo + k):
                shift = k
                break
        if shift is None or shift == 0:
            continue

        if isinstance(op, RefInsertOp):
            n_lo, n_hi = op.new_lo + shift, op.new_hi + shift
            start, end = new.char_span(n_lo, n_hi)
            ops[i] = RefInsertOp(
                op.old_pos + shift, n_lo, n_hi, tuple(new[n_lo:n_hi]), new.text[start:end]
            )
        else:
            ops[i] = RefDeleteOp(op.old_lo + shift, op.old_hi + shift, op.new_pos + shift)
        if prev_eq is not None:
            ops[i - 1] = EqualOp(
                prev_eq.old_lo, prev_eq.old_hi + shift, prev_eq.new_lo, prev_eq.new_hi + shift
            )
            if ops[i - 1].old_hi == ops[i - 1].old_lo:
                ops[i - 1] = None
        if next_eq is not None:
            ops[i + 1] = EqualOp(
                next_eq.old_lo + shift, next_eq.old_hi, next_eq.new_lo + shift, next_eq.new_hi
            )
            if ops[i + 1].old_hi == ops[i + 1].old_lo:
                ops[i + 1] = None
    return [op for op in ops if op is not None]


def reference_fields(old, new):
    a, b = old[:], new[:]
    raw = tagged_ops(diff_mod._diff_with_prepass(old, new, 0, 0), len(a), len(b))
    ops = reference_slide_pure_runs(reference_normalize(raw, new), a, b, new)
    fields = []
    for op in ops:
        if isinstance(op, EqualOp):
            fields.append(["=", op.old_lo, op.old_hi, op.new_lo, op.new_hi])
        elif isinstance(op, RefDeleteOp):
            fields.append(["-", op.old_lo, op.old_hi, op.new_pos])
        else:
            fields.append(["+", op.old_pos, op.new_lo, op.new_hi, op.raw])
    return fields


def assert_matches_reference(old, new, search_depth):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diff_mod, "_MAX_SEARCH_DEPTH", search_depth)
        assert _script_fields(lcs_diff(old, new), new) == reference_fields(old, new)


@search_depths
@given(doc, doc)
@settings(max_examples=150)
def test_change_ops_match_reference_on_docs(search_depth, a, b):
    assert_matches_reference(tokenize(a), tokenize(b), search_depth)


@search_depths
@given(shared_middle())
@settings(max_examples=150)
@example((["a", "\n"], ["a", "a", "\n"]))  # the slide uses up the first run
@example((["a", "\n"], ["b", "a", "\n", "\n"]))  # and the last run
@example((["b", "a", ":", "\n"], ["\n", "a", "a", ":"]))  # but no run between two changes
def test_change_ops_match_reference_on_shared_middle(search_depth, pair):
    assert_matches_reference(*map(token_sequence, pair), search_depth)


@search_depths
def test_change_ops_match_reference_on_tree_pages(search_depth):
    for seed in range(10):
        prev = tokenize("")
        for rev in revision_records(random_tree_script(seed)[0]):
            cur = tokenize(rev.wikitext)
            assert_matches_reference(prev, cur, search_depth)
            prev = cur
