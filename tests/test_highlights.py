"""Highlight extraction/merge tests (M19/M20 semantics)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from meilisearch_thai_ray.stages.highlights import (
    _TOKEN,
    FUZZY_MIN_CONFIDENCE,
    Span,
    extract_spans,
    highlight_text,
    merge_spans,
)


def test_exact_spans_thai():
    text = "สาหร่ายวากาเมะเป็นอาหารทะเล"
    spans = extract_spans(text, ["สาหร่ายวากาเมะ", "อาหารทะเล"])
    assert [(s.start, s.end) for s in spans] == [(0, 14), (18, 27)]
    assert all(s.kind == "exact" for s in spans)


def test_compound_part_spans():
    text = "ผมชอบวากาเมะมาก"
    spans = extract_spans(text, ["สาหร่ายวากาเมะ"],
                          {"สาหร่ายวากาเมะ": ["สาหร่าย", "วากาเมะ"]})
    assert any(s.kind == "compound_part" and s.term == "วากาเมะ" for s in spans)


def test_fuzzy_confidence_threshold():
    # token "computer" contained in query term "computers": 8/9 ≈ 0.89 -> fuzzy
    spans = extract_spans("a computer here", ["computers"])
    assert any(s.kind == "fuzzy" and abs(s.confidence - 8 / 9) < 1e-9 for s in spans)
    # term substring of token is covered by the exact scan instead
    spans2 = extract_spans("a computer here", ["comput"])
    assert any(s.kind == "exact" for s in spans2)
    # "ab" too short for fuzzy; "xy" not present
    assert extract_spans("abcdefgh", ["xy"]) == []


def test_overlap_merge_keeps_higher_confidence():
    spans = [Span(0, 5, "a", "fuzzy", 0.7), Span(3, 10, "b", "exact", 1.0)]
    merged = merge_spans(spans)
    assert len(merged) == 1 and merged[0].kind == "exact"


def test_highlight_markup():
    text = "hello world"
    spans = extract_spans(text, ["world"])
    assert highlight_text(text, spans) == "hello <em>world</em>"


def test_repeated_term_all_occurrences():
    spans = extract_spans("cat dog cat", ["cat"])
    assert [(s.start, s.end) for s in spans] == [(0, 3), (8, 11)]


# ---- one tokenization per text: identical to the per-character walk ----

def _walk_tokens(text: str):
    """The per-character tokenizer extract_spans used to run once per
    query term."""
    start = None
    for i, c in enumerate(text):
        if c.isspace():
            if start is not None:
                yield start, text[start:i]
                start = None
        elif start is None:
            start = i
    if start is not None:
        yield start, text[start:]


def _reference_extract_spans(text, terms, compound_parts=None):
    """extract_spans as it was before tokenizing once per text."""
    spans = []
    lowered = text.lower()
    for term in terms:
        t = term.lower()
        if not t:
            continue
        start = 0
        while True:
            i = lowered.find(t, start)
            if i < 0:
                break
            spans.append(Span(i, i + len(t), term, "exact", 1.0))
            start = i + 1
        for part in (compound_parts or {}).get(term, []):
            p = part.lower()
            start = 0
            while True:
                i = lowered.find(p, start)
                if i < 0:
                    break
                spans.append(Span(i, i + len(p), part, "compound_part", 0.8))
                start = i + 1
    for term in terms:
        t = term.lower()
        if len(t) < 3:
            continue
        for tok_start, tok in _walk_tokens(lowered):
            if t == tok:
                continue
            if t in tok:
                conf = len(t) / len(tok)
            elif tok and tok in t:
                conf = len(tok) / len(t)
            else:
                continue
            if conf >= FUZZY_MIN_CONFIDENCE:
                spans.append(Span(tok_start, tok_start + len(tok), term,
                                  "fuzzy", conf))
    return merge_spans(spans)


# Unicode whitespace beyond ASCII (NBSP, NEL, the C0 separators U+1C-U+1F,
# LINE SEPARATOR, IDEOGRAPHIC SPACE) and ZERO WIDTH SPACE, which is not
# whitespace and is the reference's Thai word separator
_ODD_SPACES = "\u00a0\u0085\u001c\u001d\u001e\u001f\u2028\u3000"
_ZWSP = "\u200b"


def _assert_same_spans(text, terms, parts=None):
    got = extract_spans(text, terms, parts)
    assert got == _reference_extract_spans(text, terms, parts), (text, terms)
    return got


def test_token_pattern_splits_exactly_at_isspace():
    """extract_spans' token pattern (\\S+) matches exactly the code points
    str.isspace() rejects."""
    for c in range(0x110000):
        ch = chr(c)
        assert (_TOKEN.fullmatch(ch) is None) == ch.isspace(), hex(c)


def test_extract_spans_identical_to_per_character_walk():
    thai = "สาหร่ายวากาเมะเป็นอาหารทะเล"
    cases = [
        (thai, ["สาหร่ายวากาเมะ", "อาหารทะเล", "วากาเมะ", "ทะเลสาบ"]),
        ("The Computers computer COMPUTE here", ["computers", "comput",
                                                 "compute", "xyz"]),
        ("naïve İstanbul STRASSE straße", ["istanbul", "straße", "naive"]),
        (_ZWSP.join(["สาหร่าย", "วากาเมะ", "ทะเล"]),
         ["สาหร่าย", "วากาเมะทะเล", "ทะเล"]),
        ("".join(f"วากาเมะ{sp}seaweeds{sp}" for sp in _ODD_SPACES + " \t\n"),
         ["วากาเมะ", "seaweed", "สาหร่ายวากาเมะ", "seaweedss"]),
        (f"  {_ODD_SPACES} lead and trail {_ODD_SPACES}  ",
         ["lead", "trailing", "and"]),
        ("", ["anything"]),
        ("abc", ["", "ab", "abcd"]),
    ]
    for text, terms in cases:
        _assert_same_spans(text, terms)
    spans = _assert_same_spans(
        f"ผมชอบวากาเมะ{_ODD_SPACES[-1]}มาก", ["สาหร่ายวากาเมะ"],
        {"สาหร่ายวากาเมะ": ["สาหร่าย", "วากาเมะ"]})
    assert any(s.kind == "compound_part" for s in spans)
    fuzzy = _assert_same_spans(f"x{_ODD_SPACES[0]}computer{_ODD_SPACES[-1]}y",
                               ["computers"])
    assert [(s.start, s.kind) for s in fuzzy] == [(2, "fuzzy")]
    assert _assert_same_spans(f"x computer{_ZWSP}s y", ["computers"]) == []


_PIECES = st.sampled_from([
    "วากาเมะ", "สาหร่าย", "ทะเล", "sea", "weed", "seaweed", "Ab", "İ",
    "ß", _ZWSP, " ", "\t", "\n", *_ODD_SPACES])


@settings(max_examples=300, deadline=None)
@given(st.lists(_PIECES, max_size=40),
       st.lists(st.lists(_PIECES, min_size=1, max_size=3), max_size=4))
def test_extract_spans_matches_walk_property(pieces, term_pieces):
    _assert_same_spans("".join(pieces), ["".join(t) for t in term_pieces])
