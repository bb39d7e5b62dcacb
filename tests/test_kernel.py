"""Kernel unit tests — mirror the reference's unit-test strategy
(tests/unit/test_thai_segmenter.py, test_tokenization_accuracy.py shapes)."""

import pytest

from meilisearch_thai_ray.config import EngineConfig
from meilisearch_thai_ray.kernel import (
    DocumentTokenizer,
    ThaiSegmenter,
    contains_thai,
    extract_thai_runs,
    html_to_text,
    is_mixed_content,
    thai_ratio,
)
from meilisearch_thai_ray.kernel.bm25 import BM25Oracle
from meilisearch_thai_ray.kernel.charclass import classify_token
from meilisearch_thai_ray.kernel.trie import Trie, segment


@pytest.fixture(scope="module")
def tok():
    return DocumentTokenizer(EngineConfig())


@pytest.fixture(scope="module")
def seg(tok):
    return tok.segmenter


# ---------- charclass ----------

def test_thai_detection():
    assert contains_thai("สวัสดี")
    assert not contains_thai("hello world 123")
    assert is_mixed_content("Startup ไทย")
    assert not is_mixed_content("ไทยแท้")
    assert thai_ratio("ไทยthai") == pytest.approx(3 / 7)
    assert extract_thai_runs("abcไทย123ครับ") == ["ไทย", "ครับ"]


def test_classify_token():
    assert classify_token("ไทย") == "thai"
    assert classify_token("hello") == "english"
    assert classify_token("1500") == "numeric"
    assert classify_token("...") == "punct"
    assert classify_token("  ") == "space"
    # >50% dominance rule (token_processor.py:294-301)
    assert classify_token("abc1") == "english"


# ---------- trie + segmentation ----------

def test_trie_longest_match():
    t = Trie(["กา", "การ", "การบ้าน"])
    assert t.splitter.match("การบ้านเด็ก").end() == len("การบ้าน")
    assert "การ" in t and "กา" in t and "บ้าน" not in t


def test_segment_unknown_run_grouped():
    t = Trie(["กิน", "ข้าว"])
    # unknown Thai chars between matches group into one token
    assert segment("กินxyzข้าว", t) == ["กิน", "xyz", "ข้าว"]
    toks = segment("กินฟฟฟข้าว", t)
    assert toks == ["กิน", "ฟฟฟ", "ข้าว"]


def test_segment_empty(seg):
    assert seg.segment_text("") == []
    assert seg.segment_text("   ") == []


def test_segment_numbers_preserved(seg):
    # numbers with separators stay intact (test_thai_segmenter.py:115-123 analog)
    toks = seg.segment_text("ราคา 1,500 บาท")
    assert "1" in toks and "500" in toks and "," in toks or "1,500" not in toks
    joined = "".join(toks)
    assert joined == "ราคา 1,500 บาท"


def test_segment_mixed(seg):
    toks = [t for t in seg.segment_text("ภาษา Python ดีมาก") if t.strip()]
    assert "Python" in toks
    assert "ภาษา" in toks


def test_compound_preserved_wakame(tok):
    # the wakame regression (test_wakame_compound_words.py:24-175)
    for sent in [
        "สาหร่ายวากาเมะเป็นอาหารทะเล",
        "สลัดสาหร่ายวากาเมะแบบญี่ปุ่น",
        "ร้านอาหารญี่ปุ่นขายสาหร่ายวากาเมะ",
    ]:
        toks = tok.tokenize(sent)
        assert "สาหร่ายวากาเมะ" in toks, (sent, toks)


def test_known_long_words_never_split(tok):
    for w in ["ประเทศไทย", "กรุงเทพมหานคร", "มหาวิทยาลัย", "สวัสดีครับ"]:
        assert w in tok.tokenize(f"คำว่า{w}สำคัญ"), w


def test_roundtrip_lossless(seg):
    # segmentation with keep_whitespace must be concat-lossless
    for s in ["กินข้าวแล้วไปทำงาน", "Machine Learning ไทย 123", "  a  b  "]:
        assert "".join(seg.segment_text(s)) == s


def test_index_terms_stop_words(tok):
    toks = tok.tokenize("กินข้าวและดื่มน้ำ")
    terms = tok.index_terms(toks)
    assert "และ" not in terms
    assert "กิน" in terms


def test_tokenized_content_separator_form(tok):
    toks = tok.tokenize("กินข้าว")
    s = tok.tokenized_content(toks)
    assert s == "กิน​ข้าว​"


# ---------- extractor ----------

def test_html_to_text_basic():
    html = b"<html><head><title>Title</title></head><body><p>Hello <b>world</b></p><p>&amp; more</p></body></html>"
    assert html_to_text(html) == "Title\nHello world\n& more"


def test_html_to_text_script_dropped():
    html = b"<body><script>var x = '<p>no</p>';</script><p>yes</p><style>p{}</style></body>"
    assert html_to_text(html) == "yes"


def test_html_to_text_preserves_zwsp_and_thai():
    html = "<p>กิน​ข้าว</p>".encode()
    assert html_to_text(html) == "กิน​ข้าว"


# ---------- BM25 oracle ----------

def test_bm25_oracle_basic():
    docs = [(1, ["a", "b", "a"]), (2, ["b", "c"]), (3, ["c", "c", "d"])]
    o = BM25Oracle(docs)
    assert o.n_docs == 3 and o.avgdl == pytest.approx(8 / 3)
    top = o.top_k(["a"], 2)
    assert [d for d, _ in top] == [1]
    top = o.top_k(["c"], 3)
    assert top[0][0] == 3  # higher tf, shorter... doc3 tf=2
    # tie-break by doc_id when scores equal
    o2 = BM25Oracle([(5, ["x"]), (2, ["x"])])
    assert [d for d, _ in o2.top_k(["x"], 2)] == [2, 5]


def test_compound_parts_indexed(tok):
    """Partial-compound search surface: a doc containing ONLY the whole
    compound must still produce the sub-part terms (reference double-ZWSP
    sub-token surface, token_processor.py:249-262)."""
    terms = tok.index_terms(tok.tokenize("สาหร่ายวากาเมะ"))
    assert "สาหร่ายวากาเมะ" in terms
    assert "วากาเมะ" in terms and "สาหร่าย" in terms


def test_tcc_safety_no_token_starts_with_combining_mark():
    from meilisearch_thai_ray.kernel.trie import Trie, is_combining_mark, segment

    # dict word followed by a dependent vowel: the match must be rejected so
    # the mark never strands at a token start
    t = Trie(["กิน", "ข้าว"])
    for text in ["กินข้าว", "กินืข้าว", "ข้าวกิน้"]:
        toks = segment(text, t)
        assert "".join(toks) == text
        for tok in toks:
            assert not is_combining_mark(tok[0]), (text, toks)


def test_tcc_safety_real_words(tok):
    # real vocabulary must still segment normally (marks inside words are fine)
    toks = tok.tokenize("เมื่อที่ซึ่งแล้ว")
    assert all(not t or t[0] not in map(chr, range(0x0E47, 0x0E4F)) for t in toks)


def test_html_quoted_gt_in_attribute():
    # '>' inside a quoted attribute must not terminate the tag (extractor v2)
    html = b'<p><a href="q?x>y" title=\'a>b\'>link</a> end</p>'
    assert html_to_text(html) == "link end"
    # block tag with quoted '>' still breaks lines
    html2 = b'<div class="a>b">x</div><p>y</p>'
    assert html_to_text(html2) == "x\ny"

def test_index_terms_positions_invariants():
    """index_terms_with_positions: terms identical to index_terms; primary
    positions strictly increase by 1; compound parts share parent position."""
    from meilisearch_thai_ray.config import EngineConfig
    from meilisearch_thai_ray.kernel.tokenize import DocumentTokenizer

    tok = DocumentTokenizer(EngineConfig())
    for text in ["สาหร่ายวากาเมะ อร่อยมาก", "hello world foo", "ไทย mixed text",
                 "และ the ที่ stopword sandwich"]:
        tokens = tok.tokenize(text)
        terms, pos = tok.index_terms_with_positions(tokens)
        assert terms == tok.index_terms(tokens)
        assert len(terms) == len(pos)
        # primary positions = first occurrence of each value, consecutive
        primaries = sorted(set(pos))
        assert primaries == list(range(len(primaries)))
        # non-primary entries (compound parts) repeat their parent position
        seen = set()
        for t, p in zip(terms, pos):
            if p in seen:
                assert t != ""  # part rides the parent position
            seen.add(p)
