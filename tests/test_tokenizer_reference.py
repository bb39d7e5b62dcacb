"""The tokenizer against a verbatim copy of its character-at-a-time form.

The reference section below is the trie, segmenter, character classes and
tokenizer as they were before segmentation moved to one compiled trie
pattern, class-code strings and per-token memos (names prefixed `_ref` /
`_Ref`, code unchanged).  `tokenize`, `index_terms_with_positions`,
`analyze`, `tokenized_content`, `tokenize_api`, `segment`, `thai_ratio` and
`classify_token` must give exactly what it gives: on fixture pages, and on
generated text that mixes Thai words and combining marks, unknown runs,
Latin, non-ASCII digits and letters, punctuation and whitespace, under the
separator settings and a custom dictionary with mixed-script words.  Pure
Python, no Ray, no index.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meilisearch_thai_ray.config import (
    KNOWN_LONG_WORDS,
    THAI_STOP_WORDS,
    THAI_WORD_SEPARATOR,
    EngineConfig,
    load_base_words,
    load_compound_dict,
)
from meilisearch_thai_ray.fixtures.pages import generate_pages
from meilisearch_thai_ray.kernel import segmenter as segmenter_mod
from meilisearch_thai_ray.kernel.charclass import (
    THAI_RUN,
    classify_token,
    contains_thai,
    is_mixed_content,
    is_thai_char,
    is_thai_text,
    thai_ratio,
)
from meilisearch_thai_ray.kernel.extract import html_to_text
from meilisearch_thai_ray.kernel.tokenize import DocumentTokenizer, tokenize_api
from meilisearch_thai_ray.kernel.trie import Trie, segment

# ----------------------------------------------------------- reference

_END = "\x00"  # terminal marker key inside trie nodes


class _RefTrie:
    __slots__ = ("root", "max_len", "size")

    def __init__(self, words: list[str] | set[str] = ()):  # type: ignore[assignment]
        self.root: dict = {}
        self.max_len = 0
        self.size = 0
        for w in words:
            self.add(w)

    def add(self, word: str) -> None:
        if not word:
            return
        node = self.root
        for ch in word:
            node = node.setdefault(ch, {})
        if _END not in node:
            node[_END] = True
            self.size += 1
            if len(word) > self.max_len:
                self.max_len = len(word)

    def __contains__(self, word: str) -> bool:
        node = self.root
        for ch in word:
            node = node.get(ch)
            if node is None:
                return False
        return _END in node

    def longest_prefix(self, text: str, start: int) -> int:
        """Length of the longest dictionary word starting at text[start]; 0 if none."""
        node = self.root
        best = 0
        i = start
        n = len(text)
        while i < n:
            node = node.get(text[i])
            if node is None:
                break
            i += 1
            if _END in node:
                best = i - start
        return best


# Thai dependent vowels / tone marks / thanthakhat — a DICTIONARY MATCH must
# never leave one of these stranded at the next token start (TCC safety;
# pythainlp's newmm guarantees the same via Thai Character Cluster rules).
# Ranges: mai han-akat U+0E31, sara am..sara uee U+0E33-0E3A (plus phinthu),
# tone marks + thanthakhat etc. U+0E47-0E4E. Malformed input that BEGINS with
# orphan marks (no base consonant anywhere before them) groups them into their
# own unknown-run token — garbage-in, lossless-garbage-out.
_REF_COMBINING = frozenset(
    chr(c) for c in [0x0E31, *range(0x0E33, 0x0E3B), *range(0x0E47, 0x0E4F)]
)


def _ref_char_class(c: str) -> int:
    """0=thai 1=space 2=alpha 3=digit 4=other — run classes for non-dictionary spans."""
    if is_thai_char(c):
        return 0
    if c.isspace():
        return 1
    if c.isalpha():
        return 2
    if c.isdigit():
        return 3
    return 4


def _ref_segment(text: str, trie: _RefTrie, keep_whitespace: bool = True) -> list[str]:
    """Segment `text` into tokens by greedy longest dictionary matching.

    Thai spans: longest trie match at each position; unmatched Thai chars are
    accumulated into one unknown-run token (flushed when a match or class change
    occurs). Non-Thai spans: grouped into maximal same-class runs (alpha, digit,
    other); whitespace runs kept iff keep_whitespace.
    """
    tokens: list[str] = []
    n = len(text)
    i = 0
    unk_start = -1  # start of current unknown-Thai run, -1 if none

    def flush_unknown(end: int) -> None:
        nonlocal unk_start
        if unk_start >= 0:
            tokens.append(text[unk_start:end])
            unk_start = -1

    while i < n:
        c = text[i]
        if is_thai_char(c):
            m = trie.longest_prefix(text, i)
            # TCC safety: a match whose NEXT char is a combining mark would
            # strand that mark at a token start — reject and treat the span as
            # part of the unknown run instead
            if m > 0 and i + m < n and text[i + m] in _REF_COMBINING:
                m = 0
            if m > 0:
                flush_unknown(i)
                tokens.append(text[i : i + m])
                i += m
            else:
                if unk_start < 0:
                    unk_start = i
                i += 1
        else:
            flush_unknown(i)
            cls = _ref_char_class(c)
            j = i + 1
            while j < n and not is_thai_char(text[j]) and _ref_char_class(text[j]) == cls:
                j += 1
            run = text[i:j]
            if cls != 1 or keep_whitespace:
                tokens.append(run)
            i = j
    flush_unknown(n)
    return tokens


def _ref_thai_ratio(text: str) -> float:
    """Thai chars / (alpha or Thai chars); document_processor.py:86-96."""
    if not text:
        return 0.0
    thai = 0
    total = 0
    for c in text:
        t = "฀" <= c <= "๿"
        if t:
            thai += 1
        if t or c.isalpha():
            total += 1
    return thai / total if total else 0.0


def _ref_classify_char(c: str) -> str:
    """One of thai/english/numeric/punct/space (token_processor.py:267-309 char
    counting categories)."""
    if c.isspace():
        return "space"
    if "฀" <= c <= "๿":
        return "thai"
    if c.isdigit():
        return "numeric"
    if c.isalpha():
        return "english"
    return "punct"


def _ref_classify_token(token: str) -> str:
    """Dominant-type classification with the >50% dominance rule
    (token_processor.py:267-309): multiple types present -> the max type if it
    exceeds half the stripped length, else 'mixed'."""
    stripped = token.strip()
    if not stripped:
        return "space"
    counts = {"thai": 0, "english": 0, "numeric": 0, "punct": 0}
    for c in token:
        k = _ref_classify_char(c)
        if k != "space":
            counts[k] += 1
    present = [(n, k) for k, n in counts.items() if n > 0]
    if not present:
        return "mixed"
    if len(present) == 1:
        return present[0][1]
    n, k = max(present)
    return k if n / len(stripped) > 0.5 else "mixed"


class _RefSegmenter:
    """Dictionary/trie segmenter. Build once (per actor), reuse across batches."""

    def __init__(self, base_words: list[str], custom_words: list[str]):
        self.custom_set = frozenset(custom_words)
        self.trie = _RefTrie(set(base_words) | set(custom_words))
        self.base_trie = _RefTrie(set(base_words))

    def segment_text(self, text: str, keep_whitespace: bool = True) -> list[str]:
        if not text or not text.strip():
            return []
        return _ref_segment(text, self.trie, keep_whitespace=keep_whitespace)

    def segment_compound_words(self, text: str, keep_whitespace: bool = True) -> list[str]:
        """First pass + compound second pass (thai_segmenter.py:157-210)."""
        tokens = self.segment_text(text, keep_whitespace=keep_whitespace)
        return self.enhance_tokens(tokens)

    def enhance_tokens(self, tokens: list[str]) -> list[str]:
        """Apply the >6-char compound second pass to an existing token list."""
        out: list[str] = []
        for tok in tokens:
            if len(tok) > 6 and is_thai_text(tok) and tok not in KNOWN_LONG_WORDS:
                if tok in self.custom_set:
                    out.append(tok)  # dictionary compound preserved whole (:186-189)
                else:
                    sub = self._alt_segment(tok)
                    if len(sub) > 1:
                        out.extend(sub)  # split applied only when it helps (:193-195)
                    else:
                        out.append(tok)
            else:
                out.append(tok)
        return out

    def _alt_segment(self, token: str) -> list[str]:
        """Alternative segmentation of one long token: base-only trie (no custom
        compounds), no whitespace keeping — stands in for the reference's
        fallback engines (thai_segmenter.py:212-239)."""
        sub = _ref_segment(token, self.base_trie, keep_whitespace=False)
        return sub if len(sub) > 1 else [token]

    @staticmethod
    def word_boundaries(text: str, tokens: list[str]) -> list[int]:
        """Running char offsets per token, find-based (thai_segmenter.py:241-259)."""
        boundaries = [0]
        pos = 0
        for tok in tokens:
            found = text.find(tok, pos)
            pos = (found + len(tok)) if found >= 0 else (pos + len(tok))
            boundaries.append(pos)
        return boundaries


class _RefTokenizer:
    def __init__(self, config: EngineConfig | None = None):
        self.config = config or EngineConfig()
        base, custom = self.config.dictionary_words()
        self.segmenter = _RefSegmenter(base, custom)
        self.stop_words = self.config.stop_words if self.config.remove_stop_words else frozenset()
        # compound sub-token table: dictionary compound -> decomposable parts.
        # The reference's searchable surface includes compound parts (the
        # double-U+200B sub-token form of token_processor.py:249-262, plus
        # Meilisearch's own sub-matching) — partial-compound queries like
        # "วากาเมะ" must hit docs containing only "สาหร่ายวากาเมะ".
        self.compound_parts: dict[str, list[str]] = {}
        if self.config.index_compound_parts:
            for w in sorted(self.segmenter.custom_set):
                if len(w) > 6:
                    parts = self.segmenter._alt_segment(w)
                    if len(parts) > 1:
                        self.compound_parts[w] = parts
        # Meilisearch separatorTokens / nonSeparatorTokens settings
        # (settings_manager.py:30-46,117-118,130-136). Both default empty —
        # the hot path pays one falsy check and tokenization is byte-identical
        # to version "3" semantics when unset.
        overlap = set(self.config.separator_tokens) & set(
            self.config.non_separator_tokens)
        if overlap:
            raise ValueError(
                f"tokens {sorted(overlap)!r} are in both separator_tokens "
                "and non_separator_tokens")
        self._sep_re = None
        if self.config.separator_tokens:
            import re
            alts = sorted(self.config.separator_tokens, key=len, reverse=True)
            self._sep_re = re.compile("|".join(re.escape(s) for s in alts))
        self._nonsep = frozenset(self.config.non_separator_tokens)
        self._nonsep_chars = frozenset("".join(self._nonsep))

    # ---------------- tokenization ----------------

    def _class_run_tokens(self, text: str) -> list[str]:
        """Non-Thai span -> filtered token list, honouring the
        nonSeparatorTokens setting: a listed token glues its immediately
        adjacent (no whitespace between) word neighbours — "e"+"-"+"mail" ->
        "e-mail", "#"+"hashtag" -> "#hashtag". The unfiltered segment stream
        covers the span contiguously, so consecutive non-whitespace tokens
        ARE adjacent in the original text."""
        toks = self.segmenter.segment_text(text)
        if not self._nonsep:
            return [t for t in toks if t.strip()]
        out: list[str] = []
        prev_ws = True      # whitespace gap precedes the current token
        pending = False     # out[-1] ends in a nonsep token: glue next word
        for t in toks:
            if not t.strip():
                prev_ws, pending = True, False
                continue
            if t in self._nonsep or (
                # punct RUNS: the segmenter emits "++" for "c++"; a run whose
                # chars are all configured nonsep chars glues the same way
                self._nonsep_chars
                and all(c in self._nonsep_chars for c in t)
            ):
                if out and not prev_ws:
                    out[-1] += t
                else:
                    out.append(t)   # leading form: "#" + word
                pending = True
            elif pending:
                out[-1] += t
                pending = False
            else:
                out.append(t)
                pending = False
            prev_ws = False
        return out

    def _split_custom_separators(self, tokens: list[str]) -> list[str]:
        """separatorTokens setting: every listed string splits tokens (the
        separator itself is dropped). No-op when unset."""
        if self._sep_re is None:
            return tokens
        out: list[str] = []
        for t in tokens:
            if self._sep_re.search(t):
                out.extend(p for p in self._sep_re.split(t) if p.strip())
            else:
                out.append(t)
        return out

    def tokenize(self, text: str) -> list[str]:
        """Full token stream of a document (whitespace tokens excluded; all
        content tokens kept, stop words included — stop filtering happens at
        index-term derivation, as in the reference where stopWords is an index
        setting, not a tokenizer behaviour)."""
        if not text:
            return []
        if not contains_thai(text):
            # Non-Thai document: plain class-run tokenization (the reference
            # SKIPs Thai processing entirely, document_processor.py:178-183;
            # terms still need to be searchable in our engine).
            return self._split_custom_separators(self._class_run_tokens(text))
        tokens: list[str] = []
        pos = 0
        for m in THAI_RUN.finditer(text):
            if m.start() > pos:
                tokens.extend(self._class_run_tokens(text[pos : m.start()]))
            run_tokens = self.segmenter.segment_text(m.group())
            tokens.extend(self.segmenter.enhance_tokens(run_tokens))
            pos = m.end()
        if pos < len(text):
            tokens.extend(self._class_run_tokens(text[pos:]))
        return self._split_custom_separators(tokens)

    def index_terms(self, tokens: list[str]) -> list[str]:
        """Tokens -> searchable terms: drop whitespace/punct-only and stop
        words; lowercase latin terms."""
        return self.index_terms_with_positions(tokens)[0]

    def index_terms_with_positions(
        self, tokens: list[str]
    ) -> tuple[list[str], list[int]]:
        """(terms, positions): position increments once per PRIMARY term;
        compound sub-parts carry their parent's position. Token-adjacency
        phrase matching then works at the primary-token level, and a phrase
        using a compound PART (e.g. "วากาเมะ X" against a doc containing
        "สาหร่ายวากาเมะX") still lines up, because the part sits at the
        parent's position."""
        out: list[str] = []
        pos: list[int] = []
        lower = self.config.lowercase_latin
        stop = self.stop_words
        parts_of = self.compound_parts
        p = 0
        nonsep_chars = self._nonsep_chars
        for t in tokens:
            ts = t.strip()
            if not ts:
                continue
            if _ref_classify_token(ts) == "punct" and not (
                # nonSeparatorTokens setting: a merge like "c++" is
                # punct-DOMINANT but must stay searchable — keep punct-class
                # tokens that mix alphanumerics with configured nonsep chars
                # (unset config: empty set, condition always False)
                nonsep_chars
                and any(c in nonsep_chars for c in ts)
                and any(c.isalnum() for c in ts)
            ):
                continue
            if ts in stop:
                continue
            out.append(ts.lower() if lower else ts)
            pos.append(p)
            parts = parts_of.get(ts)
            if parts:  # compound parts become index terms too (sub-token surface)
                out.extend(parts)
                pos.extend([p] * len(parts))
            p += 1
        return out, pos

    def analyze(self, text: str) -> dict:
        """One document -> analysis row (columns of the `docs` table)."""
        tokens = self.tokenize(text)
        terms, positions = self.index_terms_with_positions(tokens)
        return {
            "tokens": tokens,
            "terms": terms,
            "term_positions": positions,
            "token_count": len(terms),
            "thai_ratio": _ref_thai_ratio(text),
            "mixed": is_mixed_content(text),
            "has_thai": contains_thai(text),
        }

    def tokenized_content(self, tokens: list[str]) -> str:
        """U+200B separator string form (token_processor.py:196-265): Thai token
        -> token + U+200B; english/numeric token -> ' token '; others verbatim.
        Compound sub-splitting is already materialized in the token list, so the
        double-separator compound form is represented by the parts each carrying
        their own separator (the searchable term stream is identical)."""
        parts: list[str] = []
        for t in tokens:
            k = _ref_classify_token(t)
            if k == "thai":
                parts.append(t + THAI_WORD_SEPARATOR)
            elif k in ("english", "numeric"):
                parts.append(f" {t} ")
            else:
                parts.append(t)
        return "".join(parts)


def _ref_tokenize_api(text: str, tokenizer: _RefTokenizer | None = None,
                 compound: bool = True) -> dict:
    """Reference tokenize-API response shape (TokenizationResult,
    thai_segmenter.py:29-38): original_text, tokens, word_boundaries, engine.
    processing_time_ms omitted — wall clock never belongs in results."""
    tok = tokenizer or _RefTokenizer()
    seg = tok.segmenter
    tokens = (
        seg.segment_compound_words(text) if compound else seg.segment_text(text)
    )
    return {
        "original_text": text,
        "tokens": tokens,
        "word_boundaries": seg.word_boundaries(text, tokens),
        "engine": "newmm_custom" + ("_compound" if compound else ""),
    }


# --------------------------------------------------------------- inputs

_PAGES = 120  # seed-901 perfbench-shaped pages (lines_range as perfbench)


@pytest.fixture(scope="module")
def page_texts():
    pages = generate_pages(_PAGES, seed=901, lines_range=(20, 50))
    return pages, [html_to_text(h) for h in pages["html"].to_pylist()]


# custom words mixing scripts: Latin tails, and one Latin head (a word
# never matched from its first character, which is not Thai)
_MIXED_WORDS = ["ไทยlanguage", "กาแฟlatte", "ชาเขียวmatcha2", "wifiฟรี"]


def _custom_config(tmp_path_factory) -> EngineConfig:
    """Default dictionary plus the mixed-script custom words, stop words
    kept and case preserved."""
    path = tmp_path_factory.mktemp("dict") / "compounds.json"
    path.write_text(json.dumps(
        {"custom": load_compound_dict() + _MIXED_WORDS}, ensure_ascii=False),
        encoding="utf-8")
    return EngineConfig(compound_dict_path=str(path), remove_stop_words=False,
                        lowercase_latin=False)


_SETTINGS = EngineConfig(non_separator_tokens=("-", "#", "+", "@"),
                         separator_tokens=("|", "::"),
                         index_compound_parts=False)


@pytest.fixture(scope="module")
def pairs(tmp_path_factory):
    """(new, reference) tokenizers: default, separator settings, custom
    dictionary."""
    configs = [EngineConfig(), _SETTINGS, _custom_config(tmp_path_factory)]
    return [(DocumentTokenizer(c), _RefTokenizer(c)) for c in configs]


def _assert_same(new, ref, text: str) -> list[str]:
    tokens = ref.tokenize(text)
    assert new.tokenize(text) == tokens
    assert new.index_terms_with_positions(tokens) == \
        ref.index_terms_with_positions(tokens)
    assert new.analyze(text) == ref.analyze(text)
    assert new.tokenized_content(tokens) == ref.tokenized_content(tokens)
    for compound in (True, False):
        assert tokenize_api(text, new, compound) == \
            _ref_tokenize_api(text, ref, compound)
    return tokens


# ---------------------------------------------------------------- tests


def test_fixture_pages_match_reference(page_texts, pairs):
    from meilisearch_thai_ray.stages.extract_tokenize import ExtractTokenize
    from meilisearch_thai_ray.kernel.extract import html_title

    pages, texts = page_texts
    new, ref = pairs[0]
    for text in texts:
        _assert_same(new, ref, text)
        assert thai_ratio(text) == _ref_thai_ratio(text)
    # the docs stage: terms, positions, ratios and the title boundary
    docs = ExtractTokenize(EngineConfig())(pages).to_pydict()
    for i, (h, text) in enumerate(zip(pages["html"].to_pylist(), texts)):
        a = ref.analyze(text)
        assert docs["terms"][i] == a["terms"]
        assert docs["term_positions"][i] == a["term_positions"]
        title = html_title(h)
        title_tc = (len(ref.analyze(title)["tokens"])
                    if title and text.startswith(title) else 0)
        assert docs["title_tc"][i] == title_tc
    assert any(docs["title_tc"])


_DICT = (sorted(set(load_base_words()))[::7] + load_compound_dict()[::3]
         + sorted(THAI_STOP_WORDS))
_COMBINING = [chr(c) for c in sorted(map(ord, _REF_COMBINING))]
_CHARS = (list("กขคงจฉชซญดตถทนบปผพฟมยรลวศสหอฮะาเแโใไๆฯ๑๒๿")
          + _COMBINING
          + list("aZé²½٣Ⅻ0 9.,!-#+|:@'\n\t\u00a0\u3000\u200b\u2028"))
_PIECES = st.sampled_from(
    _DICT + _MIXED_WORDS + [w + "s" for w in _MIXED_WORDS]
    + ["กิน" + m for m in _COMBINING[:4]] + _COMBINING
    + ["ฟฟฟ", "ฮฮ", "Hello", "café", "naïve", "19", "1,500", "²½", "๑๒๓",
       "e-mail", "c++", "#tag", "a|b", "x::y", "...", "—", " ", "  ",
       "\n", "\u00a0", "\u200b"])
_TEXTS = st.lists(
    st.one_of(_PIECES, st.text(alphabet=_CHARS, max_size=4)), max_size=25,
).map("".join)


@settings(max_examples=200, deadline=None)
@given(text=_TEXTS, which=st.sampled_from([0, 1, 2]))
def test_generated_text_matches_reference(pairs, text, which):
    new, ref = pairs[which]
    tokens = _assert_same(new, ref, text)
    for keep in (True, False):
        assert segment(text, new.segmenter.trie, keep) == \
            _ref_segment(text, ref.segmenter.trie, keep)
    assert thai_ratio(text) == _ref_thai_ratio(text)
    assert classify_token(text) == _ref_classify_token(text)
    # tokens with whitespace around them, as a caller may pass
    padded = text.split(" ") + [f" {t}\n" for t in tokens]
    assert new.index_terms_with_positions(padded) == \
        ref.index_terms_with_positions(padded)
    assert new.tokenized_content(padded) == ref.tokenized_content(padded)


def test_trie_pattern_rejects_longest_match_before_a_mark():
    # "การบ้าน" is the longest word at 0; followed by a mark it is rejected
    # outright (no fallback to "การ"), so position 0 starts an unknown run
    words = ["กา", "การ", "การบ้าน", "ข้าว"]
    new, ref = Trie(words), _RefTrie(words)
    for text in ["การบ้านั", "การบ้านข้าว", "ักา", "การบ้านัข้าว", "xการ็"]:
        for keep in (True, False):
            assert segment(text, new, keep) == _ref_segment(text, ref, keep)
    assert segment("การบ้านัข้าว", new) == ["การบ้านั", "ข้าว"]


def test_memo_cap_and_results_after_clear(monkeypatch, page_texts):
    cap = 8
    monkeypatch.setattr(segmenter_mod, "TOKEN_MEMO_CAP", cap)
    new, ref = DocumentTokenizer(), _RefTokenizer()
    lines = [ln for t in page_texts[1][:3] for ln in t.splitlines()][:40]
    for _ in range(2):  # the second pass runs on memos cleared many times
        for line in lines:
            tokens = new.tokenize(line)
            assert tokens == ref.tokenize(line)
            assert new.index_terms_with_positions(tokens) == \
                ref.index_terms_with_positions(tokens)
            assert new.tokenized_content(tokens) == \
                ref.tokenized_content(tokens)
            assert len(new._token_info) <= cap
            assert len(new.segmenter._enhanced) <= cap
    assert len(new._token_info) > 0 and len(new.segmenter._enhanced) > 0
