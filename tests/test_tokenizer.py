from unittest import mock

from hypothesis import example, given
from hypothesis import strategies as st

from tests.conftest import join_fragments, offsets
from wikitalk import tokenizer
from wikitalk.tokenizer import common_prefix, common_suffix, tokenize

ALPHABET = list("ab =:*[]{}\n\t'~é")
wiki_text = st.text(alphabet=st.sampled_from(ALPHABET), max_size=1000)


def test_empty():
    seq = tokenize("")
    assert seq[:] == []
    assert offsets(seq) == ()


def test_heading_example():
    seq = tokenize("== Heading ==")
    assert seq[:] == ["==", "Heading", "=="]
    assert list(offsets(seq)) == [(0, 2), (3, 10), (11, 13)]


def test_newline_is_own_token():
    seq = tokenize("a\n\nb")
    assert seq[:] == ["a", "\n", "\n", "b"]


def test_punctuation_runs_group_same_char():
    seq = tokenize("[[Foo]]{{x}}::*")
    assert seq[:] == ["[[", "Foo", "]]", "{{", "x", "}}", "::", "*"]


def test_mixed_run_splits_between_different_chars():
    assert tokenize(":*:")[:] == [":", "*", ":"]


def detokenize(seq):
    """Rebuild the source text from tokens plus the gaps recorded in offsets."""
    parts = []
    pos = 0
    for tok, (start, end) in zip(seq[:], offsets(seq)):
        parts.append(seq.text[pos:start])
        parts.append(tok)
        pos = end
    parts.append(seq.text[pos:])
    return "".join(parts)


@given(wiki_text)
def test_round_trip(text):
    assert detokenize(tokenize(text)) == text


@given(wiki_text)
def test_offsets_strictly_increasing_and_match_tokens(text):
    seq = tokenize(text)
    prev_end = -1
    for tok, (start, end) in zip(seq[:], offsets(seq)):
        assert start >= prev_end + (0 if prev_end < 0 else 0)
        assert start >= prev_end
        assert end > start
        assert text[start:end] == tok
        prev_end = end


@given(st.lists(wiki_text, max_size=6))
def test_join_fragments_preserves_token_streams(fragments):
    joined = tokenize(join_fragments(fragments))
    expected = [t for frag in fragments for t in tokenize(frag)[:]]
    assert joined[:] == expected


def token_range_for_span(seq, start, end):
    """Token index range [lo, hi) of tokens fully inside chars [start, end)."""
    lo = seq.token_at_or_after(start)
    hi = lo
    seq_offsets = offsets(seq)
    while hi < len(seq) and seq_offsets[hi][1] <= end:
        hi += 1
    return lo, hi


def test_char_span_and_token_range():
    seq = tokenize(":see here\nmore")
    lo, hi = token_range_for_span(seq, 0, 9)
    assert seq[lo:hi] == [":", "see", "here"]
    assert seq.char_span(lo, hi) == (0, 9)
    assert seq.char_span(2, 2) == (5, 5)


@st.composite
def edited(draw):
    """A text and a copy with a few random splices: each replaces a random
    slice (possibly empty) with random text (possibly empty)."""
    a = draw(wiki_text)
    b = a
    for _ in range(draw(st.integers(0, 4))):
        lo = draw(st.integers(0, len(b)))
        hi = draw(st.integers(lo, len(b)))
        b = b[:lo] + draw(st.text(alphabet=st.sampled_from(ALPHABET), max_size=30)) + b[hi:]
    return a, b


def assert_same_tokens(got, want):
    assert got.text == want.text
    assert [t for chunk in got.chunk_tokens for t in chunk] == want[:]
    assert got[:] == want[:]
    assert offsets(got) == offsets(want)
    assert [got.start(i) for i in range(len(got))] == [want.start(i) for i in range(len(want))]
    assert [got.end(i) for i in range(len(got))] == [want.end(i) for i in range(len(want))]
    assert_chunked(got)


def assert_chunked(seq):
    """The chunks tile the tokens in order, and only the last one holds
    fewer than CHUNK_SIZE offsets."""
    sizes = [len(c) for c in seq.chunk_starts]
    assert [len(c) for c in seq.chunk_tokens] == sizes
    assert seq.firsts == [sum(sizes[:k]) for k in range(len(sizes))]
    assert sum(sizes) == len(seq) and all(sizes)
    assert all(n >= tokenizer.CHUNK_SIZE for n in sizes[:-1]), sizes


@given(edited())
@example(("a == b", "a === b"))
@example(("x ==", "x ==="))
@example(("== H ==\n:c", "=== H ===\n:c"))
@example(("a\nb\nc", "a\n\nb\nc"))
@example(("a\nb", "ab"))
@example(("ab cd", "ab\ncd"))
@example(("", "[[x]] y"))
@example(("[[x]] y", ""))
@example(("one two\nthree", "{{wholly}} new: text"))
@example(("aa bb", "aa bb"))
@example(("ab", "a b"))
@example(("::x", ":::x"))
@example(("a b c d e f g h", "a b d e f g h"))
@example(("B\n", "xB\n"))  # the common suffix starts a line in one text only
def test_incremental_tokenize_equals_full(pair):
    a, b = pair
    for chunk_size in (tokenizer.CHUNK_SIZE, 2):
        with mock.patch.object(tokenizer, "CHUNK_SIZE", chunk_size):
            for old, text in ((tokenize(a), b), (tokenize(b), a)):
                seq, head, tail = tokenize(text, old)
                assert_same_tokens(seq, tokenize(text))
                # the reported head and tail are old's tokens; they may
                # overlap, as a line shared after the edit may repeat text
                # before it ('x y' to 'x y\nx y')
                assert max(head, tail) <= min(len(old), len(seq))
                assert seq[:head] == old[:head]
                assert seq[len(seq) - tail :] == old[len(old) - tail :]
                # a reported tail starts a line on both sides
                for side in (old, seq):
                    assert tail in (0, len(side)) or side[len(side) - tail - 1] == "\n"


def test_incremental_tokenize_reuses_identical_text():
    prev = tokenize("== h ==\nbody")
    seq, head, tail = tokenize("== h ==\nbody", prev)
    assert seq is prev and head == tail == len(prev) == 5


def test_tail_takes_the_line_the_common_suffix_starts():
    """A reply inserted directly before a long line: the long line starts
    the common suffix in both texts, so it is in the tail."""
    long_line = "w " * 1000 + "~~~~\n"
    old = tokenize("A\n" + long_line)
    seq, head, tail = tokenize("A\nR ~~~~\n" + long_line, old)
    assert tail == len(tokenize(long_line)) == 1002
    assert head == 2


def naive_prefix(a, alo, ahi, b, blo, bhi):
    k = 0
    while k < min(ahi - alo, bhi - blo) and a[alo + k] == b[blo + k]:
        k += 1
    return k


def naive_suffix(a, alo, ahi, b, blo, bhi):
    k = 0
    while k < min(ahi - alo, bhi - blo) and a[ahi - 1 - k] == b[bhi - 1 - k]:
        k += 1
    return k


@st.composite
def windows(draw):
    """Two token lists that share a long run, and a window into each. The
    windows often start (or end) at the same place in the shared run, so
    that long common prefixes and suffixes occur."""
    tok = st.sampled_from(["a", "b", "\n"])
    shared = draw(st.lists(tok, max_size=20)) * draw(st.integers(1, 30))
    head_a, head_b = draw(st.lists(tok, max_size=5)), draw(st.lists(tok, max_size=5))
    a = head_a + shared + draw(st.lists(tok, max_size=5))
    b = head_b + shared + draw(st.lists(tok, max_size=5))
    if draw(st.booleans()):
        off = draw(st.integers(0, len(shared)))
        alo, blo = len(head_a) + off, len(head_b) + off
    else:
        alo, blo = draw(st.integers(0, len(a))), draw(st.integers(0, len(b)))
    if draw(st.booleans()):
        off = draw(st.integers(0, len(shared)))
        ahi = max(alo, len(head_a) + len(shared) - off)
        bhi = max(blo, len(head_b) + len(shared) - off)
    else:
        ahi, bhi = draw(st.integers(alo, len(a))), draw(st.integers(blo, len(b)))
    return a, alo, ahi, b, blo, bhi


@given(windows())
def test_common_prefix_and_suffix_match_naive_loop(w):
    assert common_prefix(*w) == naive_prefix(*w)
    assert common_suffix(*w) == naive_suffix(*w)
    a, alo, ahi, b, blo, bhi = w
    sa, sb = "".join(a), "".join(b)
    assert common_prefix(sa, alo, ahi, sb, blo, bhi) == naive_prefix(sa, alo, ahi, sb, blo, bhi)
    assert common_suffix(sa, alo, ahi, sb, blo, bhi) == naive_suffix(sa, alo, ahi, sb, blo, bhi)


def test_common_prefix_long_windows():
    a = ["x"] * 1000
    for cut in (0, 15, 16, 17, 500, 999):
        b = a[:cut] + ["y"] + a[cut + 1 :]
        assert common_prefix(a, 0, 1000, b, 0, 1000) == cut
        assert common_suffix(a, 0, 1000, b, 0, 1000) == 999 - cut
    assert common_prefix(a, 0, 1000, a, 0, 1000) == 1000
    assert common_suffix(a, 3, 1000, a, 0, 1000) == 997
