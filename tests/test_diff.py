import hashlib
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wikitalk.diff as diff_mod
from tests.conftest import equal_token_count
from wikitalk.diff import (
    DeleteOp,
    DiffApplyError,
    DiffScript,
    DiffTokenLimitError,
    EqualOp,
    InsertOp,
    apply_diff,
    lcs_diff,
)
from wikitalk.synth import gold_fixture_suite
from wikitalk.tokenizer import tokenize


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
    script = lcs_diff(tokenize(""), tokenize("a b"))
    assert len(script.ops) == 1
    op = script.ops[0]
    assert isinstance(op, InsertOp)
    assert list(op.tokens) == ["a", "b"]


def test_empty_new_single_delete():
    script = lcs_diff(tokenize("a b"), tokenize(""))
    assert [type(op) for op in script.ops] == [DeleteOp]


@given(small_seq, small_seq)
def test_lcs_length_matches_dp_oracle(a, b):
    sa, sb = tokenize(a), tokenize(b)
    script = lcs_diff(sa, sb)
    assert equal_token_count(script) == dp_lcs_len(sa.tokens, sb.tokens)


@given(doc, doc)
@settings(max_examples=200)
def test_round_trip(a, b):
    sa, sb = tokenize(a), tokenize(b)
    script = lcs_diff(sa, sb)
    assert apply_diff(sa, script).tokens == sb.tokens


@given(doc, doc)
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
    script = lcs_diff(tokenize(a), tokenize(b))
    kinds = [op.kind for op in script.ops]
    for k1, k2 in zip(kinds, kinds[1:]):
        assert (k1, k2) != (k1, k1), "adjacent ops of the same kind"
    # within a changed region deletes precede inserts
    for k1, k2 in zip(kinds, kinds[1:]):
        assert (k1, k2) != ("insert", "delete")


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
    inserts = [op for op in script.ops if isinstance(op, InsertOp)]
    assert len(inserts) == 1
    assert new.text[new.char_span(inserts[0].new_lo, inserts[0].new_hi)[0] :].startswith(
        ": second remark"
    )


def test_token_cap_errors_loudly(monkeypatch):
    monkeypatch.setattr(diff_mod, "MAX_DIFF_TOKENS", 5)
    with pytest.raises(DiffTokenLimitError):
        lcs_diff(tokenize("a b c d e f g"), tokenize("a"))


def test_apply_diff_empty_on_empty():
    empty = tokenize("")
    assert apply_diff(empty, lcs_diff(empty, empty)).tokens == ()


def test_apply_diff_mismatch_names_op_index():
    old = tokenize("a b c")
    script = DiffScript(
        ops=(EqualOp(0, 2, 0, 2), DeleteOp(4, 9, 2)), old_len=3, new_len=2
    )
    with pytest.raises(DiffApplyError) as err:
        apply_diff(old, script)
    assert err.value.op_index == 1


def test_prepass_path_round_trips(monkeypatch):
    monkeypatch.setattr(diff_mod, "_LINE_PREPASS_MIN_TOKENS", 4)
    a = tokenize("alpha beta\ngamma delta\nepsilon\n")
    b = tokenize("alpha beta\nzeta eta\nepsilon theta\n")
    script = lcs_diff(a, b)
    assert apply_diff(a, script).tokens == b.tokens


def test_oversized_region_falls_back_to_replace(monkeypatch):
    monkeypatch.setattr(diff_mod, "_REGION_TOKEN_CAP", 4)
    a = tokenize("p q r s t")
    b = tokenize("v w x y z")
    script = lcs_diff(a, b)
    assert apply_diff(a, script).tokens == b.tokens
    assert equal_token_count(script) == 0


def _op_fields(op):
    if isinstance(op, EqualOp):
        return ["=", op.old_lo, op.old_hi, op.new_lo, op.new_hi]
    if isinstance(op, DeleteOp):
        return ["-", op.old_lo, op.old_hi, op.new_pos]
    return ["+", op.old_pos, op.new_lo, op.new_hi, op.raw]


# sha256 of the edit scripts below as the full-page line prepass produced
# them, before the prepass learned to split only the changed middle into
# lines. The trim must not change a single op.
PINNED_GOLD_SCRIPTS_SHA256 = "3ecd8c70df6400ef8dde3b6cfabd91a9aa8261a44947f9ba80db22c9dd2611d8"


@pytest.mark.parametrize("prepass_min_tokens", [0, diff_mod._LINE_PREPASS_MIN_TOKENS])
def test_gold_suite_scripts_are_pinned(monkeypatch, prepass_min_tokens):
    monkeypatch.setattr(diff_mod, "_LINE_PREPASS_MIN_TOKENS", prepass_min_tokens)
    digest = hashlib.sha256()
    for script in gold_fixture_suite():
        prev = tokenize("")
        for rev in script.revision_records():
            cur = tokenize(rev.wikitext)
            ops = [_op_fields(op) for op in lcs_diff(prev, cur).ops]
            digest.update(json.dumps(ops).encode() + b"\n")
            prev = cur
    assert digest.hexdigest() == PINNED_GOLD_SCRIPTS_SHA256


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

    def span(lines, end, llo, lhi):
        if llo >= lhi:
            pos = lines[llo][0] if llo < len(lines) else end
            return pos, pos
        return lines[llo][0], lines[lhi - 1][1]

    out, pend_a, pend_b = [], None, None
    a_anchor = b_anchor = 0

    def flush():
        nonlocal pend_a, pend_b
        if pend_a is None and pend_b is None:
            return
        alo, ahi = pend_a or (a_anchor, a_anchor)
        blo, bhi = pend_b or (b_anchor, b_anchor)
        if (ahi - alo) + (bhi - blo) > diff_mod._REGION_TOKEN_CAP:
            if ahi > alo:
                out.append(("-", alo, ahi, blo, blo))
            if bhi > blo:
                out.append(("+", ahi, ahi, blo, bhi))
        else:
            diff_mod._myers(a, alo, ahi, b, blo, bhi, out)
        pend_a = pend_b = None

    for tag, l_alo, l_ahi, l_blo, l_bhi in diff_mod._diff_tokens(a_ids, b_ids):
        if tag == "=":
            flush()
            t_alo, t_ahi = span(a_lines, len(a), l_alo, l_ahi)
            t_blo, t_bhi = span(b_lines, len(b), l_blo, l_bhi)
            out.append(("=", t_alo, t_ahi, t_blo, t_bhi))
            a_anchor, b_anchor = t_ahi, t_bhi
        elif tag == "-":
            lo, hi = span(a_lines, len(a), l_alo, l_ahi)
            pend_a = (pend_a[0], hi) if pend_a else (lo, hi)
        else:
            lo, hi = span(b_lines, len(b), l_blo, l_bhi)
            pend_b = (pend_b[0], hi) if pend_b else (lo, hi)
    flush()
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


@given(shared_middle())
@settings(max_examples=300)
@example((["a", "\n", "b"], ["a", "\n", "b"]))
@example((["a", "\n"], ["a", "\n", "b"]))
@example((["a", "b"], ["a", "b", "c"]))
@example((["x", "\n", "a", "\n"], ["y", "a", "\n"]))
@example((["\n", "a"], ["b", "\n", "a"]))
@example(([], ["a", "\n"]))
def test_prepass_trim_matches_full_line_prepass(pair):
    a, b = pair
    assert diff_mod._diff_with_prepass(a, b) == reference_diff_with_prepass(a, b)
