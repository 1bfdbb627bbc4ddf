import random
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from wikitalk import clean
from wikitalk.clean import clean_markup

MARKUP_CHARS = set("[]{}=*:#'~<>")

messy = st.text(
    alphabet=st.sampled_from(list("ab c[]{}|=*:'~<>!\n")), max_size=300
)


def test_link_and_quotes_example():
    result = clean_markup("[[Foo|bar]] is ''great''")
    assert result.text == "bar is great"
    assert not result.fallback


def test_empty():
    result = clean_markup("")
    assert result.text == ""
    assert result.fallback is False


def test_unbalanced_nesting_falls_back_verbatim():
    result = clean_markup("{{a{{b[[")
    assert result.fallback is True
    assert result.text == "{{a{{b[["


def test_plain_link_keeps_target():
    assert clean_markup("see [[Main Page]] please").text == "see Main Page please"


def test_media_links_dropped():
    assert clean_markup("x [[File:Cat.jpg|thumb]] y").text == "x  y"
    assert clean_markup("[[Category:Disputes]]").text == ""


def test_external_link_label():
    assert clean_markup("read [http://example.org/a the docs] now").text == "read the docs now"
    assert clean_markup("at [http://example.org/a]").text == "at http://example.org/a"


def test_templates_removed():
    assert clean_markup("before {{cite web|url=x}} after").text == "before  after"
    assert clean_markup("nested {{a|{{b}}}} gone").text == "nested  gone"


def test_html_removed():
    assert clean_markup("a <ref name='x'>kept text</ref> b").text == "a kept text b"
    assert clean_markup("a <!-- hidden --> b").text == "a  b"


def test_heading_markers_stripped():
    assert clean_markup("== Catchy Title ==").text == "Catchy Title"


def test_signature_and_indent_stripped():
    assert clean_markup("::I agree with this. ~~~~").text == "I agree with this."
    assert clean_markup("*bullet point here").text == "bullet point here"


def test_unclosed_comment_falls_back():
    result = clean_markup("text <!-- never closed")
    assert result.fallback


def test_idempotent_on_clean_output():
    result = clean_markup(":: quoted ''text'' with [[x|link]] ~~~~")
    assert not any(ch in MARKUP_CHARS for ch in result.text)
    again = clean_markup(result.text)
    assert again.text == result.text


@given(messy)
def test_total_never_raises(text):
    result = clean_markup(text)
    assert isinstance(result.text, str)
    if result.fallback:
        assert result.text == text


@given(messy)
def test_output_idempotence(text):
    first = clean_markup(text)
    if first.fallback or any(ch in MARKUP_CHARS for ch in first.text):
        return
    assert clean_markup(first.text).text == first.text


def test_fuzz_corpus_no_crash():
    rng = random.Random(4)
    seeds = [
        "== head ==\n:reply [[a|b]] {{tpl}} ''i'' ~~~~\n",
        "[http://x y] <b>z</b> <!-- c -->",
        "{{a|{{b|{{c}}}}}}[[d]]",
    ]
    for _ in range(5000):
        base = list(rng.choice(seeds))
        for _ in range(rng.randrange(0, 6)):
            pos = rng.randrange(0, len(base) + 1)
            base.insert(pos, rng.choice("[]{}='~:*<>ab \n"))
        text = "".join(base)
        result = clean_markup(text)
        if result.fallback:
            assert result.text == text


def test_fallback_rate_zero_on_wellformed_corpus():
    wellformed = [
        "== Title here ==",
        ":a reply with [[links|text]] and {{tpl|x}}",
        "''bold-ish'' and <i>html</i> and [http://e.org label]",
        "plain words only",
        "* bullet\n# numbered\n:: deep",
    ]
    assert all(not clean_markup(w).fallback for w in wellformed)


# The character-at-a-time scanners the find-based ones replaced; kept as
# the reference they must agree with.
def reference_strip_templates(text):
    out = []
    i = 0
    n = len(text)
    while i < n:
        if text.startswith("{{", i):
            depth = 1
            j = i + 2
            while j < n and depth > 0:
                if text.startswith("{{", j):
                    depth += 1
                    if depth > clean._MAX_NESTING:
                        raise clean._CleanFailure("template nesting too deep")
                    j += 2
                elif text.startswith("}}", j):
                    depth -= 1
                    j += 2
                else:
                    j += 1
            if depth > 0:
                raise clean._CleanFailure("unclosed template")
            i = j
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def reference_replace_internal_links(text, depth=0):
    if depth > clean._MAX_NESTING:
        raise clean._CleanFailure("link nesting too deep")
    out = []
    i = 0
    n = len(text)
    while i < n:
        if text.startswith("[[", i):
            j = i + 2
            depth_brackets = 1
            while j < n and depth_brackets > 0:
                if text.startswith("[[", j):
                    depth_brackets += 1
                    j += 2
                elif text.startswith("]]", j):
                    depth_brackets -= 1
                    j += 2
                else:
                    j += 1
            if depth_brackets > 0:
                raise clean._CleanFailure("unclosed internal link")
            inner = text[i + 2 : j - 2]
            target, _, label = inner.partition("|")
            if target.strip().lower().startswith(clean._DROPPED_LINK_PREFIXES):
                replacement = ""
            else:
                replacement = label if label else target
            out.append(reference_replace_internal_links(replacement, depth + 1))
            i = j
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def outcome(fn, text):
    try:
        return fn(text)
    except clean._CleanFailure:
        return "failed"


brackets = st.text(alphabet=st.sampled_from(list("{}[]|a: ")), max_size=120)
DEEP = 33


@given(brackets)
@example("{{{x}}}")
@example("}}{{")
@example("}}{{x}}")
@example("[[a|[[b]]]]")
@example("[[[a]]]")
@example("[[a]]]]x[[")
@example("{{unclosed")
@example("[[unclosed")
@example("{{" * DEEP + "}}" * DEEP)
@example("{{" * (DEEP - 1) + "}}" * (DEEP - 1))
@example("[[" * DEEP + "x" + "]]" * DEEP)
@example("[[" * (DEEP - 1) + "x" + "]]" * (DEEP - 1))
def test_find_scanners_match_character_scanners(text):
    assert outcome(clean._strip_templates, text) == outcome(reference_strip_templates, text)
    assert outcome(clean._replace_internal_links, text) == outcome(
        reference_replace_internal_links, text
    )


@given(messy)
@example("{{{x}}} and [[a|[[b]]]] }}{{ y")
def test_clean_markup_matches_character_scanners(text):
    fast = clean_markup(text)
    with (
        mock.patch.object(clean, "_strip_templates", reference_strip_templates),
        mock.patch.object(clean, "_replace_internal_links", reference_replace_internal_links),
    ):
        slow = clean_markup(text)
    assert fast == slow


@pytest.mark.parametrize(
    "text",
    ["{{" * DEEP + "}}" * DEEP, "[[" * DEEP + "x" + "]]" * DEEP, "{{open", "[[open", "a {{b}} {{c"],
)
def test_deep_or_unclosed_markup_falls_back(text):
    result = clean_markup(text)
    assert result.fallback and result.text == text
