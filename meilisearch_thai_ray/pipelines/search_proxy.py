"""Reference query-proxy semantics on top of the BM25 engine (SURVEY §3.2).

Faithful re-implementation (exact constants) of the reference's query side:

  * query analysis M13 (query_processor.py:161-209): thai/english char ratios
    over non-space chars, >0.1 detection thresholds, primary_language;
  * tokenization confidence M15 (:339-394) — the processing-time factor is
    pinned to 1.0 for determinism (wall-clock must never change results);
  * variant generation M14 (:436-500): ORIGINAL (preserve_original) /
    TOKENIZED / COMPOUND_SPLIT / MIXED_LANGUAGE / FALLBACK, deduped by
    lowercased text, capped at max_query_variants=5 sorted by weight;
  * variant weighting M16 (:786-952): base weights {ORIGINAL .8, TOKENIZED 1.0,
    COMPOUND_SPLIT .9, FALLBACK .6, MIXED .85} x content/length/language/
    tokenization multipliers, clamped to [0.1, 1.0]; non-Thai original x1.2;
  * execution: per-variant BM25 top-k over OUR index (stand-in for the
    parallel Meilisearch searches, search_executor.py:55-176), scores
    normalized per variant (enable_score_normalization default True);
  * relevance scoring (result_ranker.py:295-399): base x variant_boost x
    thai_boost (1.5 when thai_ratio>0.5) x exact_match_boost (2.0) x
    compound boost (1.3) x confidence boost x exp(-0.1*position) decay,
    capped at 1.0;
  * D2 dedup by doc id with full tie-breaking (result_ranker.py:487-565):
    (-score, variant priority TOKENIZED>ORIGINAL>COMPOUND_SPLIT>FALLBACK,
    engine priority, position, -weight, -content_length);
  * final sort desc, min_score_threshold=0.1, top-k;
  * D3 within-result clustering (result_ranker.py:635-712): a hit whose
    first 500 chars reach SequenceMatcher ratio 0.85 against a higher-ranked
    accepted hit is dropped, at most 100 pairs per request; exact upper
    bounds on the ratio rule most pairs out before ratio() (_near_duplicate).
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..config import EngineConfig
from ..index.search import (NOT_FAILED, _min_window_cost, match_topk,
                            per_doc, phrase_rows)
from ..kernel.charclass import is_thai_text

ORIGINAL = "original"
TOKENIZED = "tokenized"
COMPOUND_SPLIT = "compound_split"
FALLBACK = "fallback"
MIXED_LANGUAGE = "mixed_language"

BASE_WEIGHTS = {ORIGINAL: 0.8, TOKENIZED: 1.0, COMPOUND_SPLIT: 0.9,
                FALLBACK: 0.6, MIXED_LANGUAGE: 0.85}
VARIANT_PRIORITY = {TOKENIZED: 0, ORIGINAL: 1, COMPOUND_SPLIT: 2, FALLBACK: 3}
ENGINE_PRIORITY = {"newmm": 0, "attacut": 1, "deepcut": 2, "basic": 3}

BOOST_EXACT = 2.0        # settings.py:61
BOOST_THAI = 1.5         # settings.py:62
BOOST_COMPOUND = 1.3     # settings.py:63
DECAY_FACTOR = 0.1       # settings.py:64
MIN_SCORE_THRESHOLD = 0.1  # settings.py:65
MAX_RESULTS_PER_VARIANT = 100  # settings.py:66
# Meilisearch sortableAttributes analog: the non-text doc-metadata columns
# of the index's docs table (index/build.py DOCS_SCHEMA)
SORTABLE_FIELDS = frozenset({"doc_id", "url", "lang", "token_count"})
MAX_QUERY_VARIANTS = 5
TOKENIZATION_CONFIDENCE_FACTOR = 0.5  # result_ranker.py ExtendedRankingConfig

# result_ranker.py:26-32 RankingAlgorithm + ExtendedRankingConfig:69-71
RANKING_ALGORITHMS = ("weighted_score", "optimized_score", "simple_score",
                      "experimental_score")
SIMILARITY_THRESHOLD = 0.85            # result_ranker.py:70
MAX_SIMILARITY_COMPARISONS = 100       # result_ranker.py:71
EXPERIMENTAL_THAI_BOOST = 1.2          # result_ranker.py:1216


import re as _re_mod

# Meilisearch negative-keyword syntax (the engine the reference proxies to
# resolves `-word` / -"phrase" exclusions server-side; the reference forwards
# the raw q string — search_proxy_service.py request passthrough): a `-`
# at the start of the query or after whitespace, immediately followed by a
# word or a quoted phrase, excludes every document containing it. A hyphen
# inside a word (well-known) or followed by whitespace stays literal.
_NEG_RE = _re_mod.compile(r'(?:(?<=\s)|^)-(?:"([^"]+)"|([^\s"]+))')


def split_negative_terms(query: str) -> tuple[str, list[str], list[str]]:
    """-> (positive remainder, negative words, negative phrases)."""
    words: list[str] = []
    phrases: list[str] = []

    def _take(m: "_re_mod.Match[str]") -> str:
        if m.group(1) is not None:
            phrases.append(m.group(1))
        else:
            words.append(m.group(2))
        return ""

    positive = _NEG_RE.sub(_take, query)
    return _re_mod.sub(r"\s+", " ", positive).strip(), words, phrases


_PHRASE_RE = _re_mod.compile(r'"([^"]+)"')


def split_quoted_phrases(query: str) -> tuple[str, list[str]]:
    """Positive quoted phrases (Meilisearch phrase syntax: `"red fox"` must
    occur as consecutive tokens). -> (query with the quotes stripped but the
    WORDS kept — they still match and score — and the phrase constraints)."""
    phrases = [m.group(1).strip() for m in _PHRASE_RE.finditer(query)]
    stripped = _PHRASE_RE.sub(lambda m: m.group(1), query)
    return (_re_mod.sub(r"\s+", " ", stripped).strip(),
            [p for p in phrases if p])


@dataclass
class QueryVariant:
    query_text: str
    variant_type: str
    engine: str
    weight: float
    terms: list[str] = field(default_factory=list)


@dataclass
class SearchOptions:
    """Per-request options — the engine-relevant subset of the reference's
    SearchOptions (search_proxy/models/requests.py:9-48). Transport/service
    fields (search_timeout_ms, attributes_to_retrieve, index_name) stay out
    of a data engine. None = use the engine defaults."""

    limit: int = 20                      # requests.py:12 (ge=1, le=100)
    offset: int = 0                      # requests.py:13
    # dict = the reference's filter DSL; str = a Meilisearch filter-language
    # expression (kernel/filter_lang.py) — both evaluate over docs metadata
    filters: dict | str | None = None
    highlight: bool = False              # M19/M20 span markup on hits
    crop_length: int = 200               # requests.py:19 (ge=10, le=1000)
    crop_marker: str = "..."             # requests.py:20
    # Meilisearch matchingStrategy override for every variant:
    # "all" | "last" | "any" | "frequency" (v1.5 semantics: required words,
    # highest-df word dropped first when the conjunction is empty)
    matching_strategy: str | None = None
    enable_compound_search: bool = True  # requests.py:26
    boost_exact_matches: float | None = None  # requests.py:27
    boost_thai_matches: float | None = None   # requests.py:28
    max_query_variants: int | None = None     # requests.py:31 (ge=1, le=10)
    # None = reference behavior (typo matching only on fallback variants,
    # query_processor.py:671,693); True = every OR-matching variant expands
    # its terms via the engine's typo matching (Meilisearch's default-on
    # index setting); False = off everywhere
    typo_tolerance: bool | None = None
    # Meilisearch typoTolerance SETTINGS object (subset):
    #   {"minWordSizeForTypos": {"oneTypo": int, "twoTypos": int},
    #    "disableOnWords": [word, ...]}
    # minWordSizeForTypos tightens/loosens the length budgets per request
    # (expand_typo serves any thresholds from the same typo arrays);
    # disableOnWords suppresses expansion for exact listed words
    # (Meilisearch semantics). Both apply to retrieval and to the ranking
    # rules chain's typo credit alike
    typo_settings: dict | None = None
    # Meilisearch sort criteria (requests.py:15): ["field:asc"|"field:desc",
    # ...] over the sortable doc-metadata fields; relevancy rank breaks
    # ties, docs missing the field go last (Meilisearch sort semantics)
    sort: list[str] | None = None
    # Meilisearch distinct attribute: at most ONE hit per distinct value
    # of this doc-metadata field; the best-ranked survives
    distinct: str | None = None
    # Meilisearch 'proximity' ranking rule (index rankingRules; the
    # reference inherits it from Meilisearch): bucket hits by
    # (words-matched desc, minimal-token-window cost asc) computed from the
    # positional postings, proxy ranking breaking ties within a bucket.
    # Needs an index built with store_positions=True; ignored when a
    # per-request `sort` is set (explicit sort outranks proximity in the
    # rules chain)
    proximity_ranking: bool = False
    # FULL Meilisearch rules chain (settings_manager.py:140 order:
    # words -> typo -> proximity -> attribute -> sort -> exactness),
    # bucket-ordered from the positional index:
    #   words      more matched query words first
    #   typo       hits reached only via typo expansion rank below exact-
    #              term hits (1-typo below 0, 2 below 1; summed per word)
    #   proximity  minimal covering token window of the direct matches
    #   attribute  matches in the TITLE field (token positions < the doc's
    #              title_tc boundary) outrank content-only matches,
    #              per searchableAttributes order [title, content]
    #   exactness  exact in-order phrase occurrence first, then all-words-
    #              exact, then the rest
    # The proxy's boosted ranking is the final tie-break. Supersedes
    # proximity_ranking (a two-rule prefix of this chain); ignored when a
    # per-request `sort` is set (sort outranks the trailing rules here, as
    # the reference's chain places it, and Meilisearch applies it hard).
    # Needs store_positions=True; attribute needs docs_path with the v5
    # title_tc column (older docs tables rank everything as content).
    ranking_rules: bool = False
    # Meilisearch showRankingScore: every hit gains `_rankingScore`, the
    # proxy's normalized [0,1] relevancy score
    show_ranking_score: bool = False
    # Meilisearch showRankingScoreDetails: every hit gains
    # `_rankingScoreDetails` with the per-rule bucket values of the rules
    # chain (words/typo/proximity/attribute/exactness). Requires
    # ranking_rules=True — the details ARE the chain's sort key.
    show_ranking_score_details: bool = False
    # Meilisearch rankingScoreThreshold (0..1): hits whose normalized score
    # falls below it are dropped (tightens the engine's MIN_SCORE_THRESHOLD)
    ranking_score_threshold: float | None = None
    # Meilisearch showMatchesPosition: every hit gains `_matchesPosition`,
    # {"text": [{"start", "length"}, ...]} — merged exact match spans of the
    # query terms in the document text (character offsets). Needs docs_path.
    show_matches_position: bool = False
    # Meilisearch attributesToSearchOn, over searchableAttributes
    # [title, content]: a hit must have at least one direct query-term
    # occurrence inside an allowed field (token position vs the doc's
    # title_tc boundary). None = search every attribute. Needs an index
    # with store_positions=True and a docs_path with the v5 title_tc column.
    attributes_to_search_on: list[str] | None = None

    def __post_init__(self):
        if self.matching_strategy is not None and self.matching_strategy \
                not in ("all", "last", "any", "frequency"):
            raise ValueError(
                "matching_strategy must be one of "
                "'all', 'last', 'any', 'frequency'")
        if self.attributes_to_search_on is not None:
            bad = set(self.attributes_to_search_on) - {"title", "content"}
            if bad or not self.attributes_to_search_on:
                raise ValueError(
                    "attributes_to_search_on must be a non-empty subset of "
                    "['title', 'content']")
        if self.ranking_score_threshold is not None \
                and not 0.0 <= self.ranking_score_threshold <= 1.0:
            raise ValueError("ranking_score_threshold must be in [0, 1]")
        if self.show_ranking_score_details and not self.ranking_rules:
            raise ValueError(
                "show_ranking_score_details requires ranking_rules=True")
        if self.distinct is not None and self.distinct not in SORTABLE_FIELDS:
            raise ValueError(
                f"distinct must be one of {sorted(SORTABLE_FIELDS)}")
        if self.sort is not None:
            for c in self.sort:
                field, _, direction = c.partition(":")
                if direction not in ("asc", "desc") \
                        or field not in SORTABLE_FIELDS:
                    raise ValueError(
                        f"bad sort criterion {c!r}: expected "
                        f"'<field>:asc|desc' with field in "
                        f"{sorted(SORTABLE_FIELDS)}")
        if not 1 <= self.limit <= 100:
            raise ValueError("limit must be in [1, 100]")
        if self.offset < 0:
            raise ValueError("offset must be >= 0")
        if not 10 <= self.crop_length <= 1000:
            raise ValueError("crop_length must be in [10, 1000]")
        if self.typo_settings is not None:
            ts = self.typo_settings
            unknown = set(ts) - {"minWordSizeForTypos", "disableOnWords"}
            if unknown:
                raise ValueError(f"unknown typo_settings keys {unknown}")
            mws = ts.get("minWordSizeForTypos") or {}
            one = mws.get("oneTypo", 5)
            two = mws.get("twoTypos", 9)
            if not (1 <= one <= two <= 255):
                raise ValueError(
                    "minWordSizeForTypos needs 1 <= oneTypo <= twoTypos "
                    "<= 255")
        for name in ("boost_exact_matches", "boost_thai_matches"):
            v = getattr(self, name)
            if v is not None and not 0.1 <= v <= 5.0:
                raise ValueError(f"{name} must be in [0.1, 5.0]")
        if self.max_query_variants is not None and not 1 <= self.max_query_variants <= 10:
            raise ValueError("max_query_variants must be in [1, 10]")


# ------------------------------------------------ D3 near-duplicate bounds
#
# SequenceMatcher(None, a, b).ratio() is 2*M/(la+lb), where M is the total
# size of its matching blocks and b is the accepted text
# (_near_duplicate(cand, acc)).  Each bound below puts an upper bound on M
# over the same denominator with the same arithmetic as difflib, so in
# floating point too it is >= ratio(): a pair whose bound is below the
# threshold cannot be a near-duplicate, and only pairs no bound rules out
# pay for the full ratio().  Cheapest first:
#
# * length: M <= min(la, lb) (= real_quick_ratio()).
# * block: M <= S2 + NP + 1, where S2 is the number of bigram occurrences
#   a and b share (multiset intersection) and NP the shared count of the
#   characters not popular in b.  With autojunk on (the default) and
#   lb >= 200, a character is popular when its count in b exceeds
#   lb // 100 + 1; below 200 characters none is.  Proof, for the n blocks
#   of sizes s_i that get_matching_blocks() finds:
#   1. The blocks are disjoint common substrings, so they hold
#      sum(s_i - 1) = M - n distinct shared bigram occurrences: S2 >= M - n.
#   2. find_longest_match seeds each block from b2j, which holds no
#      popular character: the seed is a chain of b2j matches, and the block
#      then grows on both ends over any equal characters.  So a block with
#      a non-empty seed holds at least one matched character not popular
#      in b, and the blocks being disjoint, there are at most NP of them.
#   3. A block with an empty seed is the common prefix of its sub-range.
#      Every right sub-range starts at a mismatch and a left one where its
#      parent starts, so that prefix is empty unless the sub-range starts
#      at (0, 0).  Those sub-ranges form one chain of left sub-ranges from
#      the whole range, and a block at its sub-range's start queues no left
#      sub-range, so at most one such block is non-empty.
#   4. So n <= NP + 1 and M <= S2 + NP + 1.  get_matching_blocks() then
#      merges adjacent blocks, which keeps M and only lowers n.
#   Each text keeps three rows of counts hashed into _BINS bins: its
#   characters, its bigrams and its characters not popular in it.  It is
#   the a side through its (bigram, character) rows and the b side through
#   its (bigram, non-popular character) rows.  The minimum of two sums is
#   >= the sum of their minima, so the per-bin minimum of the two sides,
#   summed, is >= S2 + NP: one numpy min-sum.
# * LCS: the blocks are equal, ordered and non-overlapping in both texts, so
#   they form a common subsequence: M <= LCS(a, b).

_BINS = 1024  # per hashed row; a power of two for Fibonacci hashing
_BIGRAM_SHIFT = np.uint64(64 - (_BINS - 1).bit_length())  # keeps top bits
_FIBONACCI = np.uint64(0x9E3779B97F4A7C15)  # 2**64 / golden ratio, odd


class _Tally:
    """A running byte count (SearchProxy._cluster_bytes)."""

    __slots__ = ("n",)

    def __init__(self):
        self.n = 0


class _ClusterText:
    """A clustering text (at most 500 chars in the proxy, so its counts
    and their sums fit int16) with the per-text parts of the bounds: one
    (3, _BINS) count array with rows [characters, bigrams, non-popular
    characters], read as its a side (rows 1, 0) and its b side (rows 1, 2)
    so both share the bigram row, and (built on first use) the
    per-character position bitmasks the LCS bound reads on its b side.
    Building the masks adds their bytes to `tally`, if given."""

    __slots__ = ("text", "as_a", "as_b", "_masks", "tally")

    def __init__(self, text: str, tally: _Tally | None = None):
        self.text = text
        self.tally = tally
        # UTF-32 gives one code unit per str element, non-BMP characters
        # and lone surrogates included
        codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"),
                              np.uint32)
        chars, counts = np.unique(codes, return_counts=True)
        char_bin = chars % _BINS
        wide = codes.astype(np.uint64)  # a code point fits 21 bits
        bigram_bin = ((wide[:-1] << np.uint64(21) | wide[1:]) * _FIBONACCI
                      >> _BIGRAM_SHIFT).astype(np.intp)
        rows = np.empty((3, _BINS), np.int16)
        rows[0] = np.bincount(char_bin, counts, _BINS)
        rows[1] = np.bincount(bigram_bin, minlength=_BINS)
        if len(text) >= 200:  # difflib's autojunk
            counts = np.where(counts > len(text) // 100 + 1, 0, counts)
        rows[2] = np.bincount(char_bin, counts, _BINS)
        self.as_a = rows[1::-1]
        self.as_b = rows[1:]
        self._masks: dict[str, int] | None = None

    def masks(self) -> dict[str, int]:
        if self._masks is None:
            masks: dict[str, int] = {}
            for j, ch in enumerate(self.text):
                masks[ch] = masks.get(ch, 0) | 1 << j
            self._masks = masks
            if self.tally is not None:
                self.tally.n += self._masks_nbytes()
        return self._masks

    def _masks_nbytes(self) -> int:
        masks = self._masks
        if masks is None:
            return 0
        return sys.getsizeof(masks) + sum(
            sys.getsizeof(ch) + sys.getsizeof(m) for ch, m in masks.items())

    def nbytes(self) -> int:
        """Bytes it holds: its text, count rows and masks built so far."""
        return (sys.getsizeof(self) + sys.getsizeof(self.text)
                + sys.getsizeof(self.as_a.base) + sys.getsizeof(self.as_a)
                + sys.getsizeof(self.as_b) + self._masks_nbytes())


def _ratio_of(matches: int, length: int) -> float:
    # difflib._calculate_ratio, operation for operation
    return 2.0 * matches / length if length else 1.0


def _length_bound(a: _ClusterText, b: _ClusterText) -> float:
    """= SequenceMatcher.real_quick_ratio()."""
    la, lb = len(a.text), len(b.text)
    return _ratio_of(min(la, lb), la + lb)


def _block_bound(a: _ClusterText, b: _ClusterText) -> float:
    """2*(S2 + NP + 1)/(la+lb), S2 + NP from the hashed count rows."""
    shared = np.minimum(a.as_a, b.as_b).sum(dtype=np.int16)
    return _ratio_of(int(shared) + 1, len(a.text) + len(b.text))


_LCS_CHECK_ROWS = 32


def _lcs_bound(a: _ClusterText, b: _ClusterText) -> float:
    """2*LCS/(la+lb), the LCS by the bit-parallel Allison-Dix/Hyyro
    recurrence.  v holds one DP row over b as its steps: bit j is 0 where
    LCS(a-prefix read so far, b[:j+1]) exceeds LCS(.., b[:j]), so after
    the last character of a the zero bits of v count LCS(a, b).

    After i characters of a, LCS(a, b) <= (lb - popcount(v)) + (la - i):
    each character left can add at most one match.  Every
    _LCS_CHECK_ROWS rows that bound's ratio is checked, and returned as
    soon as it falls below SIMILARITY_THRESHOLD; it is still >= ratio(),
    so a pair it rules out is one the full LCS rules out too."""
    la, lb = len(a.text), len(b.text)
    full = (1 << lb) - 1
    masks = b.masks()
    v = full
    for i in range(0, la, _LCS_CHECK_ROWS):
        for ch in a.text[i:i + _LCS_CHECK_ROWS]:
            m = masks.get(ch)
            if m:
                u = v & m
                v = ((v + u) | (v - u)) & full
        left = la - i - _LCS_CHECK_ROWS
        if left > 0:
            r = _ratio_of(lb - v.bit_count() + left, la + lb)
            if r < SIMILARITY_THRESHOLD:
                return r
    return _ratio_of(lb - v.bit_count(), la + lb)


_RATIO_BOUNDS = (_length_bound, _block_bound, _lcs_bound)  # cheapest first


def _near_duplicate(a: _ClusterText, b: _ClusterText) -> bool:
    """SequenceMatcher(None, a, b).ratio() >= SIMILARITY_THRESHOLD, with the
    ratio computed only when no upper bound rules the pair out."""
    if any(bound(a, b) < SIMILARITY_THRESHOLD for bound in _RATIO_BOUNDS):
        return False
    # resolved at call time, so a patched difflib.SequenceMatcher is used
    from difflib import SequenceMatcher

    return SequenceMatcher(None, a.text, b.text).ratio() >= \
        SIMILARITY_THRESHOLD


class _DocText:
    """One doc's text with what the proxy's stages derive from it, each
    computed once per doc: the lowered text for the exact-match boost and
    the phrase check (the same object when lower() changes nothing), and
    the clustering text of its first 500 chars, which
    SearchProxy._cluster_text builds on first use."""

    __slots__ = ("text", "lower", "cluster")

    def __init__(self, text: str):
        self.text = text
        lower = text.lower()
        self.lower = text if lower == text else lower
        self.cluster: _ClusterText | None = None

    def nbytes(self) -> int:
        """Bytes of the record, its text and its lowered copy."""
        n = sys.getsizeof(self) + sys.getsizeof(self.text)
        return n + (sys.getsizeof(self.lower)
                    if self.lower is not self.text else 0)


_NO_TEXT = _DocText("")  # a doc absent from the docs table
_NO_TEXT.cluster = _ClusterText("")

# Bytes the proxy's doc cache may hold: records with their texts and
# lowered copies, their doc-id keys, the dict, and the clustering texts
# built so far (sys.getsizeof; _ClusterText.nbytes).  Past it the
# clustering texts are dropped first, as a rebuild costs microseconds and
# a text a parquet read, and the records too once they alone fill it.
# The cache this replaced held up to 50,000 bare texts: 153.5 MB with
# keys and dict at the perfbench fixture's mean of 3.0 KB a text.  There a
# record is 3.6 KB (15% of texts need a lowered copy), so about 40,000
# texts fit, and a clustering text counts 7.6 KB: 6.5 KB of count rows
# and 1.0 KB of text, plus 9.1 KB of LCS masks and their dict once the LCS
# bound builds them, which it does for few texts.  By bytes the bound holds
# for any text size.
DOC_CACHE_BYTES = 150_000_000


class _Batch(NamedTuple):
    """A request's candidates as columns, one row per (variant, hit) in
    retrieval order: variant by variant, each in its match_topk order, so a
    doc appears at most once per variant."""

    doc_id: np.ndarray          # uint64
    raw: np.ndarray             # float64, the engine's BM25 score
    score: np.ndarray           # float64, the boosted score
    variant: np.ndarray         # int64, index into the request's variants
    pos: np.ndarray             # int64, position in its variant's hits
    content_length: np.ndarray  # int64, characters of the doc's text

    def take(self, rows: np.ndarray | list[int]) -> "_Batch":
        return _Batch(*(col[rows] for col in self))


_NO_CANDIDATES = _Batch(np.empty(0, np.uint64), np.empty(0), np.empty(0),
                        *(np.empty(0, np.int64),) * 3)

# exp(-DECAY_FACTOR * position) per hit position, by math.exp: np.exp may
# differ from it in the last bit
_DECAY = np.array([math.exp(-DECAY_FACTOR * p)
                   for p in range(MAX_RESULTS_PER_VARIANT)])

# The ranking algorithms as one key table: (pick keys, order keys), most
# significant first, over the candidate batch plus its variant's priority
# (vprio), engine priority (eprio) and weight, and `idx`, the candidate's
# place in retrieval order.  SearchProxy._rank keeps each doc's first row
# under the pick keys, then orders the kept rows by the order keys.
#   weighted_score (result_ranker.py:1025-1072): the full D2 tie-break
#     (:487-565) picks and orders.
#   optimized_score (:1074-1133): the higher score, then the variant/engine/
#     weight comparison (_compare_variants_for_tie_breaking, :1135-1181).
#     Its "same variant type and lower position" disjunct never decides, as
#     each variant type is generated once and a variant lists a doc once.
#   simple_score (:1183-1205): the first highest score per doc.
#   experimental_score (:1207-1258): simple_score after an x1.2 boost of
#     Thai-dominant queries.
_D2_KEYS = ("-score", "vprio", "eprio", "pos", "-weight", "-content_length",
            "doc_id")
_BY_SCORE = ("-score", "doc_id")
_RANK_KEYS = {
    "weighted_score": (_D2_KEYS, _D2_KEYS),
    "optimized_score": (("-score", "vprio", "eprio", "-weight", "idx"),
                        _BY_SCORE),
    "simple_score": (("-score", "idx"), _BY_SCORE),
    "experimental_score": (("-score", "idx"), _BY_SCORE),
}


def _live_ids(ids, engine) -> np.ndarray:
    """`ids` as a sorted unique uint64 array, minus the engine's deleted
    docs."""
    ids = np.unique(np.asarray(ids, np.uint64))
    dead = engine._dead_arr
    if dead is None:
        return ids
    return np.setdiff1d(ids, dead, assume_unique=True)


def _attrs_on(options: SearchOptions | None) -> set[str] | None:
    """attributes_to_search_on as a set; None when it restricts nothing."""
    if not (options and options.attributes_to_search_on):
        return None
    attrs = set(options.attributes_to_search_on)
    return None if attrs == {"title", "content"} else attrs


class SearchProxy:
    """Query-side pipeline: analysis -> variants, then named stages over
    one columnar candidate batch (_Batch): _retrieve (per-variant BM25 and
    boosts) -> _rank (dedup + the algorithm's _RANK_KEYS row) -> _restrict
    (one mask) -> _cluster (distinct, D3) -> _order (sort / rules chain /
    proximity, pagination) -> _hydrate (highlight, match positions,
    ranking score).

    Every doc text and field is read through engine.doc_rows, which
    composes an index's generations: fields (filters, sort, distinct,
    title boundaries, the placeholder's doc-id universe) come from the
    engine's in-memory doc values, texts from one Parquet read of the ids
    not in the proxy's doc cache. docs_path switches on the features that
    read them (exact-match boost, clustering, highlights, match positions,
    filters, sort and distinct over fields, placeholder search, title
    boundaries); it must name the engine's own docs table, and the proxy
    never opens it."""

    def __init__(self, engine, docs_path: str | None = None,
                 config: EngineConfig | None = None,
                 synonyms: dict[str, list[str]] | None = None,
                 algorithm: str = "weighted_score",
                 enable_content_similarity_dedup: bool = True):
        self.engine = engine  # index.search.SearchEngine
        if docs_path is not None and os.path.realpath(docs_path) != \
                os.path.realpath(os.path.join(engine.index_dir, "docs")):
            raise ValueError(f"docs_path {docs_path!r} is not the engine's "
                             f"docs table under {engine.index_dir!r}")
        self.config = config or EngineConfig()
        # §2.10 extension surface: pluggable ranking algorithm registry
        # (result_ranker.py:26-32,127-132) + hash-based A/B assignment
        if algorithm not in RANKING_ALGORITHMS:
            raise ValueError(f"unknown algorithm {algorithm!r}; "
                             f"choose from {RANKING_ALGORITHMS}")
        self.algorithm = algorithm
        self.enable_content_similarity_dedup = enable_content_similarity_dedup
        self.ab_testing_enabled = False
        self.ab_test_algorithm: str | None = None
        self.ab_test_traffic_percentage = 0.0
        self.docs_path = docs_path
        # D5 synonym map (settings_manager.py:226-249 set-union semantics),
        # applied query-side like Meilisearch does: canonical -> variants,
        # symmetric closure built once
        self.synonyms: dict[str, set[str]] = {}
        for canon, alts in (synonyms or {}).items():
            group = {canon, *alts}
            for w in group:
                self.synonyms.setdefault(w, set()).update(group - {w})
        self._tok = None
        self._watcher = None  # ST6 hot reload, opt-in via enable_hot_reload()
        self._doc_cache: dict[int, _DocText] = {}
        self._text_bytes = 0  # of the records and keys, not the dict
        self._clustered: list[_DocText] = []  # records with a cluster text
        self._cluster_bytes = _Tally()  # of those cluster texts

    def _doc_texts(self, doc_ids: list[int]) -> dict[int, _DocText]:
        """Doc records (text, lowered text, clustering text) for the
        exact-match boost, clustering, highlighting and phrase checks, via
        one engine.doc_rows read of the ids not cached yet (only when
        docs_path is configured).  Cached per proxy across requests,
        evicted past DOC_CACHE_BYTES."""
        if not self.docs_path:
            return {}
        size = self._text_bytes + sys.getsizeof(self._doc_cache)
        if size + self._cluster_bytes.n > DOC_CACHE_BYTES:
            # evict BEFORE deciding what to fetch — clearing after would drop
            # already-cached entries the current request still needs
            if size > DOC_CACHE_BYTES:
                self._doc_cache.clear()
                self._text_bytes = 0
            else:
                for rec in self._clustered:
                    rec.cluster = None
            self._clustered.clear()
            # a fresh tally: the dropped texts a request still holds may
            # build masks, and those bytes are no longer the cache's
            self._cluster_bytes = _Tally()
        missing = [d for d in doc_ids if d not in self._doc_cache]
        if missing:
            t = self.engine.doc_rows(missing, ["doc_id", "text"])
            for d, text in zip(t["doc_id"].to_pylist(),
                               t["text"].to_pylist()):
                rec = self._doc_cache[d] = _DocText(text or "")
                self._text_bytes += sys.getsizeof(d) + rec.nbytes()
        return {d: self._doc_cache[d] for d in doc_ids
                if d in self._doc_cache}

    def _cluster_text(self, doc_id: int) -> _ClusterText:
        """The doc's clustering text, its first 500 chars, kept on its
        cached record and counted toward DOC_CACHE_BYTES."""
        rec = self._doc_texts([doc_id]).get(doc_id, _NO_TEXT)
        if rec.cluster is None:
            ct = rec.cluster = _ClusterText(rec.text[:500],
                                            self._cluster_bytes)
            self._clustered.append(rec)
            self._cluster_bytes.n += ct.nbytes() - (
                sys.getsizeof(ct.text) if ct.text is rec.text else 0)
        return rec.cluster

    def negative_doc_ids(self, words: list[str],
                         phrases: list[str]) -> np.ndarray:
        """Doc ids containing ANY negative keyword / phrase, as a sorted
        unique uint64 array.

        A negative word that tokenizes to one index term is a plain posting
        read (every doc in its posting list); multi-token words and quoted
        phrases use phrase_ids. At serving scale this is a per-shard
        posting traversal — the same cost class as one extra query term."""
        excl = np.empty(0, np.uint64)
        for w in words:
            seq = self.engine.phrase_seq(w)
            if len(seq) == 1:
                excl = np.union1d(excl, self.engine.word_docs(seq))
            elif seq:
                excl = np.union1d(excl, self.phrase_ids(w))
        for p in phrases:
            excl = np.union1d(excl, self.phrase_ids(p))
        return excl

    def phrase_ids(self, phrase: str) -> np.ndarray:
        """Live doc ids holding the quoted phrase, unscored, as a sorted
        unique uint64 array: what a phrase restriction keeps or drops. On a
        positional index, the engine's adjacency docs (a one-term phrase's
        posting docs); otherwise the substring-verify hits of
        search_phrase."""
        if not self.engine.has_positions:
            return _live_ids([d for d, _ in self.search_phrase(
                phrase, k=1 << 62)], self.engine)
        seq, docs = self.engine.phrase_docs(
            _re_mod.sub(r"\s+", " ", phrase).strip())
        if len(seq) == 1:
            return self.engine.word_docs(seq)
        return _live_ids(docs, self.engine)

    def _placeholder_search(self, excluded: np.ndarray, k: int,
                            offset: int) -> list[dict]:
        """Meilisearch placeholder search (empty q): the live documents in
        internal (doc_id) order, minus the sorted `excluded` ids. Used when
        a query is ONLY negative keywords; needs docs_path (the doc-id
        universe lives in the docs table). Dead-letter rows (status
        "failed", no postings) and the engine's deleted docs are not live;
        a table without a status column has no dead-letter rows."""
        if not self.docs_path:
            return []
        ids = self.engine.doc_rows(None, ["doc_id"], where=NOT_FAILED)
        ids = np.setdiff1d(_live_ids(ids["doc_id"].to_numpy(), self.engine),
                           excluded, assume_unique=True)
        return [
            {"doc_id": d, "score": 0.0, "raw_score": 0.0,
             "variant_type": "placeholder", "engine": "none",
             "algorithm": "placeholder", "dedup_count": 0}
            for d in ids[offset:offset + k].tolist()
        ]

    def expand_synonyms(self, terms: list[str]) -> list[str]:
        """Append synonym terms after the originals (original terms keep their
        position so tie-breaks stay stable)."""
        if not self.synonyms:
            return terms
        out = list(terms)
        for t in terms:
            for alt in sorted(self.synonyms.get(t, ())):
                if alt not in out:
                    out.append(alt)
        return out

    def _typo_derivations(self, terms: list[str],
                          options: SearchOptions | None,
                          memo: dict[str, list[str]]
                          ) -> dict[str, list[str]]:
        """Each distinct word's ranked typo derivations (expand_typo, 8 per
        word; retrieval takes the first 3) under the request's typoTolerance
        settings: minWordSizeForTypos thresholds, none for disableOnWords
        or under typo_tolerance=False. `memo` holds the request's words
        already expanded."""
        ts = (options.typo_settings or {}) if options else {}
        mws = ts.get("minWordSizeForTypos") or {}
        off = set(ts.get("disableOnWords") or ())
        if options is not None and options.typo_tolerance is False:
            off = set(terms)
        for t in dict.fromkeys(terms):
            if t not in memo:
                memo[t] = [] if t in off else self.engine.expand_typo(
                    t, 8, one_typo=mws.get("oneTypo"),
                    two_typos=mws.get("twoTypos"))
        return {t: memo[t] for t in dict.fromkeys(terms)}

    @property
    def tokenizer(self):
        if self._watcher is not None:
            # ST6: revalidate the dictionary content hash at every request
            # boundary; a change drops the cached tokenizer so the next line
            # rebuilds (or re-shares) one keyed by the NEW content.
            self._watcher.poll()
        if self._tok is None:
            from ..state.hot_reload import cached_tokenizer

            self._tok = cached_tokenizer(self.config)
        return self._tok

    def enable_hot_reload(self, poll_interval: float | None = None):
        """ST6 (hot_reload.py:24-211 analog): watch the dictionary files and
        swap the tokenizer when their CONTENT changes. Synchronous form —
        every search revalidates a content hash (a few KB) — plus an optional
        daemon poll thread for long-lived serving actors. Returns the
        DictionaryWatcher so callers can register callbacks / stop it. The
        on-disk index keeps its build-time dictionary hash;
        `index.maintenance.needs_reindex()` reports the staleness."""
        from ..state.hot_reload import DictionaryWatcher

        if self._watcher is None:
            self._watcher = DictionaryWatcher(self.config)
            self._watcher.register(lambda _v: setattr(self, "_tok", None))
            if poll_interval is not None:
                self._watcher.start(poll_interval)
        return self._watcher

    # ---------------- M13: query analysis ----------------

    def analyze_query(self, query: str) -> dict:
        import re

        thai_chars = sum(1 for c in query if "฀" <= c <= "๿")
        english_matches = re.findall(r"[a-zA-Z]+", query)
        english_chars = sum(len(m) for m in english_matches)
        total = len(query.replace(" ", ""))
        thai_ratio = thai_chars / total if total else 0.0
        english_ratio = english_chars / total if total else 0.0
        thai_detected = thai_ratio > 0.1
        english_detected = english_ratio > 0.1
        if thai_ratio > english_ratio:
            primary = "thai"
        elif english_ratio > thai_ratio:
            primary = "english"
        else:
            primary = "mixed"
        return {
            "thai_content_ratio": thai_ratio,
            "english_content_ratio": english_ratio,
            "thai_content_detected": thai_detected,
            "english_content_detected": english_detected,
            "mixed_content": thai_detected and english_detected,
            "primary_language": primary,
            "total_length": len(query),
        }

    # ---------------- M15: tokenization confidence ----------------

    def tokenization_confidence(self, query: str, tokens: list[str]) -> float:
        if not tokens:
            return 0.0
        factors = []
        qlen = len(query.replace(" ", ""))
        if qlen > 0:
            tpc = len(tokens) / qlen
            if 0.1 <= tpc <= 0.5:
                factors.append(1.0)
            elif tpc < 0.1:
                factors.append(tpc / 0.1)
            else:
                factors.append(max(0.1, 1.0 - (tpc - 0.5) / 0.5))
        factors.append(1.0)  # processing-time factor pinned (determinism)
        thai_tokens = [t for t in tokens if is_thai_text(t)]
        if thai_tokens:
            avg = sum(len(t) for t in thai_tokens) / len(thai_tokens)
            if 2 <= avg <= 6:
                factors.append(1.0)
            elif avg < 2:
                factors.append(avg / 2)
            else:
                factors.append(max(0.3, 1.0 - (avg - 6) / 10))
        return sum(factors) / len(factors) if factors else 0.5

    # ---------------- M16: variant weighting ----------------

    def _variant_weight(self, vtype: str, analysis: dict, confidence: float = 1.0) -> float:
        base = BASE_WEIGHTS.get(vtype, 0.5)
        thai_ratio = analysis["thai_content_ratio"]
        english_ratio = analysis["english_content_ratio"]
        mixed = analysis["mixed_content"]

        content = 1.0
        if thai_ratio > 0.7:
            if vtype in (TOKENIZED, COMPOUND_SPLIT):
                content = 1.2
            elif vtype == ORIGINAL:
                content = 0.9
        elif english_ratio > 0.7:
            if vtype == ORIGINAL:
                content = 1.1
            elif vtype in (TOKENIZED, COMPOUND_SPLIT):
                content = 0.8
        elif mixed:
            if vtype == MIXED_LANGUAGE:
                content = 1.15
            elif vtype == ORIGINAL:
                content = 1.05

        qlen = analysis["total_length"]
        length = 1.0
        if qlen <= 5:
            if vtype == ORIGINAL:
                length = 1.1
            elif vtype == FALLBACK:
                length = 0.8
        elif qlen >= 50:
            if vtype in (TOKENIZED, COMPOUND_SPLIT):
                length = 1.1
            elif vtype == ORIGINAL:
                length = 0.95

        primary = analysis["primary_language"]
        lang = 1.0
        if primary == "thai" and thai_ratio > 0.8:
            if vtype in (TOKENIZED, COMPOUND_SPLIT):
                lang = 1.1
            elif vtype == FALLBACK:
                lang = 0.7
        elif primary == "english":
            if vtype == ORIGINAL:
                lang = 1.05
            elif vtype in (TOKENIZED, COMPOUND_SPLIT):
                lang = 0.9
        elif primary in ("mixed", "unknown"):
            if vtype == FALLBACK:
                lang = 1.1

        if vtype == ORIGINAL:
            tok_q = 1.0
        elif confidence >= 0.9:
            tok_q = 1.1
        elif confidence >= 0.7:
            tok_q = 1.0
        elif confidence >= 0.5:
            tok_q = 0.9
        else:
            tok_q = 0.8

        return max(0.1, min(1.0, base * content * length * lang * tok_q))

    # ---------------- M14: variant generation ----------------

    def generate_variants(self, query: str) -> list[QueryVariant]:
        return self._prepare(query)[3]

    def _prepare(self, query: str, max_variants: int | None = None,
                 enable_compound: bool = True):
        """One pass of normalize -> analyze -> tokenize -> confidence ->
        variants (the serving hot path runs the Thai trie exactly once)."""
        import re

        query = re.sub(r"\s+", " ", query).strip()  # M12 normalization
        analysis = self.analyze_query(query)
        tok = self.tokenizer
        variants: list[QueryVariant] = []
        seen: set[str] = set()

        def add(v: QueryVariant):
            key = v.query_text.strip().lower()
            if key and key not in seen:
                seen.add(key)
                variants.append(v)

        # original (preserve_original default True; non-Thai boost x1.2, cap 1.0)
        w = self._variant_weight(ORIGINAL, analysis)
        if not analysis["thai_content_detected"]:
            w = min(1.0, w * 1.2)
        add(QueryVariant(query, ORIGINAL, "none", w,
                         terms=[t.lower() for t in query.split(" ") if t]))

        tokens = tok.tokenize(query)
        confidence = self.tokenization_confidence(query, tokens)
        terms = tok.index_terms(tokens)
        if terms:
            add(QueryVariant(" ".join(terms), TOKENIZED, "newmm",
                             self._variant_weight(TOKENIZED, analysis, confidence),
                             terms=terms))
            # compound split: force-split dictionary compounds into parts
            split_terms: list[str] = []
            for t in terms:
                sub = tok.segmenter._alt_segment(t) if len(t) > 4 and is_thai_text(t) else [t]
                split_terms.extend(sub)
            if enable_compound and split_terms != terms:
                add(QueryVariant(" ".join(split_terms), COMPOUND_SPLIT, "newmm",
                                 self._variant_weight(COMPOUND_SPLIT, analysis, confidence),
                                 terms=split_terms))
        if analysis["mixed_content"] and terms:
            # mixed-language arrangement: Thai segments first, latin segments
            # case-preserved after (distinct text => survives variant dedup
            # whenever it differs from the plain tokenized form)
            thai_terms = [t for t in terms if is_thai_text(t, 0.3)]
            latin_raw = [t for t in tokens if t.strip() and not is_thai_text(t, 0.3)]
            mixed_terms = thai_terms + [t.lower() for t in latin_raw]
            add(QueryVariant(" ".join(thai_terms + latin_raw), MIXED_LANGUAGE, "newmm",
                             self._variant_weight(MIXED_LANGUAGE, analysis, confidence),
                             terms=mixed_terms))
        if not terms:
            fb = tok.segmenter.char_fallback(query)
            fb_terms = tok.index_terms(fb)
            if fb_terms:
                add(QueryVariant(" ".join(fb_terms), FALLBACK, "basic",
                                 self._variant_weight(FALLBACK, analysis, 0.4),
                                 terms=fb_terms))

        cap = max_variants if max_variants is not None else MAX_QUERY_VARIANTS
        if len(variants) > cap:
            variants.sort(key=lambda v: v.weight, reverse=True)
            variants = variants[:cap]
        return analysis, tokens, confidence, variants

    # ---------------- execution + ranking ----------------

    def configure_ab_test(self, test_algorithm: str, traffic_percentage: float,
                          enabled: bool = True) -> None:
        """A/B test config (result_ranker.py:862-895 semantics + validation)."""
        if not 0.0 <= traffic_percentage <= 1.0:
            raise ValueError("Traffic percentage must be between 0.0 and 1.0")
        if test_algorithm not in RANKING_ALGORITHMS:
            raise ValueError(
                f"Invalid test algorithm. Must be one of: {list(RANKING_ALGORITHMS)}"
            )
        self.ab_testing_enabled = enabled
        self.ab_test_algorithm = test_algorithm
        self.ab_test_traffic_percentage = traffic_percentage

    def select_algorithm(self, query: str, session_id: str | None = None) -> str:
        """Deterministic hash-based A/B assignment (result_ranker.py:714-766):
        md5(session_id + '_' + query) % 100 buckets, test algorithm below the
        traffic percentage, control otherwise."""
        if not self.ab_testing_enabled or not session_id:
            return self.algorithm
        import hashlib

        h = int(hashlib.md5(f"{session_id}_{query}".encode()).hexdigest(), 16)
        if (h % 100) / 100.0 < self.ab_test_traffic_percentage and \
                self.ab_test_algorithm:
            return self.ab_test_algorithm
        return self.algorithm

    def search(self, query: str, k: int = 10,
               session_id: str | None = None,
               options: SearchOptions | None = None) -> list[dict]:
        return self._search(query, k, session_id, options)

    def _search(self, query: str, k: int, session_id: str | None,
                options: SearchOptions | None, prepared=None) -> list[dict]:
        """The body of search(): parse the query (negative terms, quoted
        phrases, _prepare), then run the stages in order: _retrieve,
        _rank, _restrict, _cluster, _order, _hydrate.  `prepared` is
        _prepare's tuple for `query` under `options` when the caller has it
        already; it is used unless negative terms or quoted phrases are
        stripped from the query first, as the search then prepares what is
        left."""
        self._check_options(options)
        raw = query
        if options is not None:
            k = options.limit
        offset = options.offset if options else 0
        neg_excluded: np.ndarray | None = None
        if "-" in query:
            positive, neg_w, neg_p = split_negative_terms(query)
            if neg_w or neg_p:
                neg_excluded = self.negative_doc_ids(neg_w, neg_p)
                query = positive
                if not query:
                    return self._placeholder_search(neg_excluded, k, offset)
        phrase_allowed: np.ndarray | None = None
        if '"' in query:
            # Meilisearch phrase syntax: every quoted phrase must occur as
            # consecutive tokens; its words still match and score normally
            stripped, pos_phrases = split_quoted_phrases(query)
            if pos_phrases:
                query = stripped
                for p in pos_phrases:
                    s = self.phrase_ids(p)
                    phrase_allowed = (s if phrase_allowed is None else
                                      np.intersect1d(phrase_allowed, s,
                                                     assume_unique=True))
                    if not phrase_allowed.size:
                        return []
        if prepared is None or query != raw:
            prepared = self._prepare(
                query,
                max_variants=options.max_query_variants if options else None,
                enable_compound=(options.enable_compound_search if options
                                 else True),
            )
        analysis, _tokens, confidence, variants = prepared
        typo_memo: dict[str, list[str]] = {}  # _typo_derivations per word
        batch = self._retrieve(query, variants, analysis, confidence,
                               options, typo_memo)
        algorithm = self.select_algorithm(query, session_id)
        ranked = self._rank(batch, variants, algorithm, analysis)
        ordering = self._ordering(options)
        # with an ordering, pagination applies AFTER it: keep every passing
        # hit (bounded by the per-variant candidate caps)
        target = (1 << 62) if ordering else offset + k
        keep = self._restrict(ranked, query, options, neg_excluded,
                              phrase_allowed)
        hits = ranked.take(self._cluster(ranked, keep, target, algorithm,
                                         options))
        dedup_count = len(batch.doc_id) - len(ranked.doc_id)
        out = [{"doc_id": d, "score": score, "raw_score": raw_score,
                "variant_type": variants[v].variant_type,
                "engine": variants[v].engine, "algorithm": algorithm,
                "dedup_count": dedup_count}
               for d, score, raw_score, v in zip(
                   hits.doc_id.tolist(), hits.score.tolist(),
                   hits.raw.tolist(), hits.variant.tolist())]
        out = self._order(query, out, options, typo_memo, ordering,
                          offset, k)
        return self._hydrate(query, out, options)

    def _check_options(self, options: SearchOptions | None) -> None:
        """Raise for the options this proxy's index or docs table cannot
        serve."""
        if options is None:
            return
        if options.sort and not self.docs_path and any(
                not c.startswith("doc_id:") for c in options.sort):
            raise ValueError("sort over metadata fields requires docs_path")
        if options.distinct not in (None, "doc_id") and not self.docs_path:
            raise ValueError("distinct over metadata fields requires "
                             "docs_path")
        if options.filters and not self.docs_path:
            raise ValueError("filters require docs_path")
        if _attrs_on(options) is not None:
            if not self.engine.has_positions:
                raise ValueError("attributes_to_search_on requires an index "
                                 "built with store_positions=True")
            if not self.docs_path:
                raise ValueError("attributes_to_search_on requires docs_path "
                                 "(the title_tc field boundary)")

    def _ordering(self, options: SearchOptions | None) -> str | None:
        """What _order applies after clustering: "sort", the full "rules"
        chain or "proximity" (the rules need positions; sort outranks
        them), or None for the ranked order as is."""
        if options is None:
            return None
        if options.sort:
            return "sort"
        if options.ranking_rules and self.engine.has_positions:
            return "rules"
        if options.proximity_ranking and self.engine.has_positions:
            return "proximity"
        return None

    def _retrieve(self, query: str, variants: list[QueryVariant],
                  analysis: dict, confidence: float,
                  options: SearchOptions | None,
                  typo_memo: dict[str, list[str]]) -> _Batch:
        """Each variant's BM25 top hits under its matching strategy, as
        one candidate batch with the boosted scores (result_ranker.py:
        295-399): base (the raw score over the variant's top one) x variant
        weight x Thai x exact match x compound x confidence x position
        decay, in that order, capped at 1.0.  A boost that does not apply
        multiplies by 1.0, which is exact."""
        # per-variant matchingStrategy (search_executor.py:731-753):
        # original -> "all", tokenized/compound_split -> "last",
        # fallback/mixed -> most flexible ("any"); a per-request
        # matching_strategy ("all"|"last"|"any"|"frequency") overrides all
        # variants. index.search.match_topk runs the strategy.
        strategies = {ORIGINAL: "all", TOKENIZED: "last", COMPOUND_SPLIT: "last"}
        if options and options.matching_strategy:
            strategies = {v.variant_type: options.matching_strategy
                          for v in variants}
        boost_exact = (options.boost_exact_matches
                       if options and options.boost_exact_matches is not None
                       else BOOST_EXACT)
        thai = 1.0
        if analysis["thai_content_ratio"] > 0.5:
            thai = (options.boost_thai_matches
                    if options and options.boost_thai_matches is not None
                    else BOOST_THAI)
        conf = 1.0
        if confidence > 0.8:
            conf = 1.0 + (confidence - 0.8) * TOKENIZATION_CONFIDENCE_FACTOR
        qlower = query.strip().lower()
        parts = [_NO_CANDIDATES]
        for vi, variant in enumerate(variants):
            terms = self.expand_synonyms(variant.terms)
            strat = strategies.get(variant.variant_type, "any")
            # typo matching loosens "any" and "frequency" only (requiring a
            # typo'd variant would tighten an AND strategy). Default scope
            # mirrors the reference: fallback variants only
            # (query_processor.py:671,693); typo_tolerance=True widens it
            # to every variant (Meilisearch's default-on index setting).
            use_typo = strat in ("any", "frequency") and (
                options.typo_tolerance if options is not None
                and options.typo_tolerance is not None
                else variant.variant_type == FALLBACK)
            der = ({t: ds[:3] for t, ds in self._typo_derivations(
                terms, options, typo_memo).items()} if use_typo else {})
            if strat == "frequency":
                # every word required, matching through its derivations
                words = [[t] + der.get(t, []) for t in dict.fromkeys(terms)]
            else:
                # "any": derivations join the OR term set, each once
                terms = list(terms) + list(dict.fromkeys(
                    x for ds in der.values() for x in ds if x not in terms))
                words = [[t] for t in terms]
            hits = match_topk(self.engine, words, MAX_RESULTS_PER_VARIANT,
                              strat)
            if not hits:
                continue
            ids, raw = zip(*hits)
            # the exact-match boost reads doc text (result_ranker.py:346-349)
            # when docs_path is set: this variant's hits only
            texts = self._doc_texts(list(ids))
            recs = [texts.get(d, _NO_TEXT) for d in ids]
            exact = (np.array([qlower in r.lower for r in recs])
                     if qlower else np.zeros(len(recs), bool))
            compound = (BOOST_COMPOUND
                        if variant.variant_type == COMPOUND_SPLIT else 1.0)
            raw = np.array(raw, np.float64)
            score = (raw / (hits[0][1] or 1.0) * variant.weight * thai
                     * np.where(exact, boost_exact, 1.0) * compound * conf
                     * _DECAY[:len(hits)])
            parts.append(_Batch(
                np.array(ids, np.uint64), raw, np.minimum(score, 1.0),
                np.full(len(hits), vi), np.arange(len(hits)),
                np.array([len(r.text) for r in recs], np.int64)))
        return _Batch(*map(np.concatenate, zip(*parts)))

    @staticmethod
    def _rank(batch: _Batch, variants: list[QueryVariant], algorithm: str,
              analysis: dict) -> _Batch:
        """Dedup by doc id and rank under `algorithm`'s _RANK_KEYS row: one
        lexsort by the pick keys, each doc's first row kept, one lexsort of
        the kept rows by the order keys.  -> one row per doc, ranked."""
        if algorithm == "experimental_score":
            boost = (EXPERIMENTAL_THAI_BOOST
                     if analysis["thai_content_ratio"] > 0.7 else 1.0)
            batch = batch._replace(score=batch.score * boost)
        v = batch.variant
        keys = {
            "-score": -batch.score,
            "vprio": np.array([VARIANT_PRIORITY.get(x.variant_type, 4)
                               for x in variants], np.int64)[v],
            "eprio": np.array([ENGINE_PRIORITY.get(x.engine, 4)
                               for x in variants], np.int64)[v],
            "-weight": -np.array([x.weight for x in variants], np.float64)[v],
            "pos": batch.pos,
            "-content_length": -batch.content_length,
            "doc_id": batch.doc_id,
            "idx": np.arange(len(v)),
        }
        pick, order = _RANK_KEYS[algorithm]
        rows = np.lexsort([keys[name] for name in reversed(pick)])
        kept = rows[np.unique(batch.doc_id[rows], return_index=True)[1]]
        kept = kept[np.lexsort([keys[name][kept] for name in reversed(order)])]
        return batch.take(kept)

    def _restrict(self, ranked: _Batch, query: str,
                  options: SearchOptions | None,
                  neg_excluded: np.ndarray | None,
                  phrase_allowed: np.ndarray | None) -> np.ndarray:
        """One mask over the ranked rows: the score threshold, the filter's
        allowed ids, no negative-term id, every quoted phrase, and
        attributesToSearchOn.  Each id restriction is a sorted uint64 array
        and one np.isin."""
        ids = ranked.doc_id
        min_score = MIN_SCORE_THRESHOLD
        if options and options.ranking_score_threshold is not None:
            min_score = max(min_score, options.ranking_score_threshold)
        keep = ranked.score >= min_score
        if options and options.filters:
            keep &= np.isin(ids, self._filter_allowed(ids, options.filters))
        if neg_excluded is not None:
            keep &= ~np.isin(ids, neg_excluded)
        if phrase_allowed is not None:
            keep &= np.isin(ids, phrase_allowed)
        attrs_on = _attrs_on(options)
        if attrs_on is not None and ids.size:
            # one title_tc read and one position gather for the whole
            # candidate set: a hit survives iff some direct query term
            # occurs inside an allowed field (title = positions before the
            # doc's title_tc boundary, content = at or after it)
            boundary = self.engine.doc_values(ids, ["title_tc"])[0]
            ok = np.zeros(ids.size, dtype=bool)
            for counts, flat in self.engine.doc_term_positions(
                    ids, self.engine.phrase_seq(query)).values():
                has = counts > 0
                ends = np.cumsum(counts)[has]
                if "title" in attrs_on:  # first occurrence in the title
                    ok[has] |= flat[ends - counts[has]] < boundary[has]
                if "content" in attrs_on:  # last occurrence in the content
                    ok[has] |= flat[ends - 1] >= boundary[has]
            keep &= ok
        return keep

    def _cluster(self, ranked: _Batch, keep: np.ndarray, target: int,
                 algorithm: str, options: SearchOptions | None) -> list[int]:
        """Walk the rows `keep` passes in rank order and accept up to
        `target`: one per distinct value, then (weighted_score with docs
        text) none near-identical to one accepted before.  -> the accepted
        row indices."""
        ids = ranked.doc_id.tolist()
        distinct = options.distinct if options else None
        if distinct == "doc_id":
            distinct = None  # the ranked rows hold each doc once
        dvals = self._doc_fields(ids, [distinct]) if distinct else {}
        seen_dvals: set = set()
        cluster = (
            algorithm == "weighted_score"
            and self.enable_content_similarity_dedup
            and self.docs_path is not None
        )
        if cluster and ids:
            # prefetch texts for the head of the ranking in one filtered read
            self._doc_texts(ids[: 5 * target])
        rows: list[int] = []
        accepted: list[_ClusterText] = []
        comparisons = 0
        for i in np.flatnonzero(keep).tolist():
            if len(rows) >= target:
                break
            if distinct:
                dv = dvals.get(ids[i], {}).get(distinct)
                if dv in seen_dvals:
                    continue
                seen_dvals.add(dv)
            if cluster:
                # D3 within-result-set clustering (result_ranker.py:635-712):
                # a hit near-identical (SequenceMatcher >= 0.85) to an
                # already-accepted higher-ranked hit is dropped; comparisons
                # are capped (max_similarity_comparisons) and count every
                # pair considered, including those _near_duplicate's bounds
                # rule out without a ratio()
                cand = self._cluster_text(ids[i])
                dup = False
                if cand.text:
                    for acc in accepted:
                        if comparisons >= MAX_SIMILARITY_COMPARISONS:
                            break
                        comparisons += 1
                        if _near_duplicate(cand, acc):
                            dup = True
                            break
                if dup:
                    continue
                accepted.append(cand)
            rows.append(i)
        return rows

    def _order(self, query: str, out: list[dict],
               options: SearchOptions | None,
               typo_memo: dict[str, list[str]], ordering: str | None,
               offset: int, k: int) -> list[dict]:
        """The accepted hits under _ordering's choice, then the page."""
        if ordering is None:
            return out[offset:]
        if ordering == "sort":
            out = self._apply_sort(out, options.sort)
        elif ordering == "rules":
            out = self._rules_chain_order(
                query, out, options, typo_memo,
                want_details=options.show_ranking_score_details)
        else:
            # Meilisearch rules chain: words (matched-term count) then
            # proximity (min covering window), proxy ranking as tie-break
            gathered = self.engine.doc_term_positions(
                [h["doc_id"] for h in out], self._query_terms(query))
            lists = [per_doc(g) for g in gathered.values()]
            keys = []
            for i in range(len(out)):
                held = [pl[i] for pl in lists if pl[i].size]
                keys.append((-len(held), _min_window_cost(held), i))
            out = [out[key[2]] for key in sorted(keys)]
        return out[offset:offset + k]

    def _hydrate(self, query: str, out: list[dict],
                 options: SearchOptions | None) -> list[dict]:
        """Per-hit extras: highlight, _matchesPosition, _rankingScore."""
        if options is None:
            return out
        if options.show_matches_position and not self.docs_path:
            raise ValueError("show_matches_position requires docs_path")
        qterms = (self._query_terms(query) if options.highlight
                  or options.show_matches_position else [])
        if options.highlight and self.docs_path:
            texts = self._doc_texts([h["doc_id"] for h in out])
            for h in out:
                h["highlight"] = self._highlight_snippet(
                    texts.get(h["doc_id"], _NO_TEXT).text, qterms,
                    options.crop_length, options.crop_marker,
                )
        if options.show_matches_position:
            from ..stages.highlights import extract_spans, merge_spans

            texts = self._doc_texts([h["doc_id"] for h in out])
            for h in out:
                spans = merge_spans([
                    s for s in extract_spans(
                        texts.get(h["doc_id"], _NO_TEXT).text, qterms)
                    if s.kind == "exact"])
                h["_matchesPosition"] = {"text": [
                    {"start": s.start, "length": s.end - s.start}
                    for s in spans]}
        if options.show_ranking_score:
            for h in out:
                h["_rankingScore"] = h["score"]
        return out

    def _query_terms(self, query: str) -> list[str]:
        """The query's index terms, for proximity, highlights and match
        positions."""
        return self.tokenizer.index_terms(self.tokenizer.tokenize(query))

    def search_with_info(self, query: str, k: int = 10,
                         session_id: str | None = None,
                         options: "SearchOptions | None" = None) -> dict:
        """SearchRequest.include_tokenization_info=True analog: hits plus
        the reference's TokenizationInfo block (responses.py:61-73) —
        engine, timing, tokens, fallback engines, confidence, and token
        shape stats. The info describes the _prepare pass of the whole
        query, which the search then runs on (one pass, unless negative
        terms or quoted phrases leave it a shorter query to prepare)."""
        import time as _time

        t0 = _time.perf_counter()
        prepared = self._prepare(
            query,
            max_variants=options.max_query_variants if options else None,
            enable_compound=options.enable_compound_search
            if options else True,
        )
        tok_ms = (_time.perf_counter() - t0) * 1000.0
        hits = self._search(query, k, session_id, options, prepared)
        _analysis, tokens, confidence, variants = prepared
        primary = next((v.engine for v in variants
                        if v.variant_type == TOKENIZED), "none")
        fallbacks = sorted({v.engine for v in variants
                            if v.variant_type == FALLBACK})
        return {
            "hits": hits,
            "tokenization_info": {
                "tokenization_engine": primary,
                "tokenization_time_ms": round(tok_ms, 3),
                "tokens": list(tokens),
                "fallback_engines_used": fallbacks,
                "tokenization_confidence": confidence,
                "original_text_length": len(query),
                "token_count": len(tokens),
                "average_token_length": round(
                    sum(len(t) for t in tokens) / len(tokens), 6)
                if tokens else 0.0,
            },
        }

    def _rules_chain_order(self, query: str, hits: list[dict],
                           options: SearchOptions,
                           typo_memo: dict[str, list[str]],
                           want_details: bool = False) -> list[dict]:
        """Order hits by the Meilisearch ranking-rules chain (reference
        settings_manager.py:140: words, typo, proximity, attribute,
        exactness), each rule a bucket inside the previous one; the
        incoming (proxy-boosted) order is the final tie-break.

        All buckets derive from the positional index — document text is
        never read. One doc_term_positions gather over all hits reads the
        query's words; a second reads the typo derivations of the words
        some hit lacks (_typo_derivations under the request's typo
        options, shared with retrieval through `typo_memo`). From those:
        per-word direct/typo presence,
        proximity via the min covering window of the direct matches,
        attribute (searchableAttributes order [title, content],
        settings_manager.py:81-86) via the per-doc title_tc token-prefix
        boundary, exactness via phrase_rows — in-order adjacent occurrence
        of the query's primary-term sequence."""
        from ..kernel.typo import effective_typos

        eng = self.engine
        seq = eng.phrase_seq(query)
        uniq = list(dict.fromkeys(seq))
        if not uniq or not hits:
            return hits
        ids = [h["doc_id"] for h in hits]
        boundaries = (eng.doc_values(ids, ["title_tc"])[0] if self.docs_path
                      else np.zeros(len(ids), np.int64)).tolist()
        gathered = eng.doc_term_positions(ids, uniq)
        exact_rows = phrase_rows(gathered, seq, len(ids))
        lists = {t: per_doc(g) for t, g in gathered.items()}
        # (derivation, typo count) per word some hit lacks
        lacking = [t for t in uniq if not gathered[t][0].all()]
        derivs = {t: [(x, effective_typos(t, x)) for x in ds]
                  for t, ds in self._typo_derivations(
                      lacking, options, typo_memo).items()}
        lists.update((x, per_doc(g)) for x, g in eng.doc_term_positions(
            ids, [x for c in derivs.values() for x, _ in c]).items())
        keyed = []
        for i, h in enumerate(hits):
            boundary = boundaries[i]
            words = typo = attr = 0
            direct: list[np.ndarray] = []
            for t in uniq:
                pos = lists[t][i]
                if pos.size:
                    words += 1
                    direct.append(pos)
                    attr += 0 if pos[0] < boundary else 1
                    continue
                best = None
                best_min = 0
                for x, nt in derivs.get(t, ()):
                    px = lists[x][i]
                    if px.size and (best is None or nt < best):
                        best, best_min = nt, int(px[0])
                if best is not None:
                    words += 1
                    typo += best
                    attr += 0 if best_min < boundary else 1
            pcost = _min_window_cost(direct)
            exact = 2
            if len(direct) == len(uniq):
                exact = 0 if exact_rows[i] else 1
            if want_details:
                # Meilisearch showRankingScoreDetails: the chain's per-rule
                # bucket values, in rule order (these ARE the sort key)
                h["_rankingScoreDetails"] = {
                    "words": {"matchedWords": words,
                              "maxMatchedWords": len(uniq)},
                    "typo": {"typoCount": typo},
                    "proximity": {"windowCost": pcost},
                    "attribute": {"contentOnlyMatches": attr},
                    "exactness": {"bucket": ("exactPhrase", "allWordsExact",
                                             "noExactMatch")[exact]},
                }
            keyed.append(((-words, typo, pcost, attr, exact, i), h))
        keyed.sort(key=lambda kh: kh[0])
        return [h for _, h in keyed]

    def _doc_fields(self, doc_ids: list[int],
                    fields: list[str]) -> dict[int, dict]:
        """Sortable-field values for a candidate id set via one
        engine.doc_rows read (never a corpus scan)."""
        want = [f for f in dict.fromkeys(fields) if f != "doc_id"]
        if not want or not self.docs_path or not doc_ids:
            return {d: {} for d in doc_ids}
        rows = self.engine.doc_rows(doc_ids, ["doc_id"] + want).to_pylist()
        return {r["doc_id"]: {f: r[f] for f in want} for r in rows}

    def _apply_sort(self, hits: list[dict],
                    criteria: list[str]) -> list[dict]:
        """Meilisearch `sort` semantics: order by the criteria sequence,
        relevancy rank (the incoming order) breaking ties — stable sorts
        applied in reverse criteria order; docs missing a field go last
        under either direction."""
        vals = self._doc_fields(
            [h["doc_id"] for h in hits],
            [c.partition(":")[0] for c in criteria])
        for crit in reversed(criteria):
            fieldname, _, direction = crit.partition(":")

            def val(h):
                if fieldname == "doc_id":
                    return h["doc_id"]
                return vals.get(h["doc_id"], {}).get(fieldname)

            present = [h for h in hits if val(h) is not None]
            present.sort(key=val, reverse=direction == "desc")
            hits = present + [h for h in hits if val(h) is None]
        return hits

    def _filter_allowed(self, doc_ids: np.ndarray,
                        dsl: "dict | str") -> np.ndarray:
        """Per-request metadata filter (reference SearchOptions.filters):
        the candidate ids that pass the filter — a dict-DSL object OR a
        Meilisearch filter STRING (kernel/filter_lang.py grammar) — as a
        sorted unique uint64 array, from one engine.doc_rows read over the
        engine's in-memory doc values (never a corpus scan)."""
        from ..stages.filter_dsl import compile_filter, compile_filter_str

        where = (compile_filter_str(dsl) if isinstance(dsl, str)
                 else compile_filter(dsl))
        t = self.engine.doc_rows(doc_ids, ["doc_id"], where=where)
        return np.unique(t["doc_id"].to_numpy().astype(np.uint64))

    def _highlight_snippet(self, text: str, terms: list[str],
                           crop_length: int, crop_marker: str) -> str:
        """M19/M20 highlight with cropping (result_enhancer semantics via
        stages/highlights; crop window centered on the first match)."""
        from ..stages.highlights import extract_spans, highlight_text

        if not text:
            return ""
        spans = extract_spans(text, terms,
                              self.tokenizer.compound_parts or None)
        if not spans:
            crop = text[:crop_length]
            return crop + (crop_marker if len(text) > crop_length else "")
        first = spans[0]
        lo = max(0, first.start - crop_length // 4)
        hi = min(len(text), lo + crop_length)
        kept = [s for s in spans if s.start >= lo and s.end <= hi]
        # re-base span offsets into the crop window
        from ..stages.highlights import Span

        rebased = [Span(s.start - lo, s.end - lo, s.term, s.kind, s.confidence)
                   for s in kept]
        snippet = highlight_text(text[lo:hi], rebased)
        pre = crop_marker if lo > 0 else ""
        post = crop_marker if hi < len(text) else ""
        return pre + snippet + post

    def search_phrase(self, phrase: str, k: int = 10) -> list[tuple[int, float]]:
        """Quoted-phrase search (the reference's quoted variant; Meilisearch
        resolves it with positional data).

        Positional index available (store_positions=True build): true
        token-adjacency matching via SearchEngine.phrase_topk — no document
        text is read. Otherwise: (1) candidates = docs matching ALL phrase
        terms (posting intersection), (2) literal substring verification
        against the stored doc text (requires docs_path; works for
        no-whitespace Thai phrases because the check is substring)."""
        phrase = _re_mod.sub(r"\s+", " ", phrase).strip()
        if self.engine.has_positions:
            return self.engine.phrase_topk(phrase, k=k)
        if not self.docs_path:
            raise ValueError("phrase search requires docs_path (doc text store)")
        terms = self.tokenizer.index_terms(self.tokenizer.tokenize(phrase))
        if not terms:
            return []
        # over-fetch candidates, then GROW the pool until k hits verify or
        # the AND candidate set is exhausted — a fixed cap would silently
        # miss true phrase hits that BM25 ranks below it
        p = phrase.lower()
        cap = max(k * 10, 100)
        while True:
            cands = self.engine.score_topk(terms, k=cap, match="all")
            if not cands:
                return []
            texts = self._doc_texts([d for d, _ in cands])
            out = [(d, s) for d, s in cands
                   if p in texts.get(d, _NO_TEXT).lower]
            if len(out) >= k or len(cands) < cap:
                return out[:k]  # enough hits, or every AND candidate checked
            cap *= 4


class FederatedSearch:
    """Multi-index federation — the Ray-side analog of Meilisearch's
    `POST /multi-search` with a `federation` object, which the reference's
    per-request `index_name` routing (search_proxy_service.py:174,306)
    delegates to Meilisearch for.

    A registry of named `SearchProxy` indexes answers one query (or
    per-index queries) across several indexes at once; hits merge into one
    globally-ranked list. Following Meilisearch's federated semantics, each
    index's raw BM25 scores are normalized to a [0, 1] ranking score
    (score / the index's top score for this query — BM25 magnitudes are
    corpus-dependent, so raw scores are not comparable across indexes),
    multiplied by the per-index federation `weight`, and interleaved by
    descending weightedRankingScore with deterministic tie-breaks
    (weighted score desc, index uid asc, doc_id asc). `facetsByIndex`-style
    attribution survives in `_federation.indexUid` on every hit.

    Scale shape: each member index is itself a sharded/doc-partitioned
    engine (index/serving.py); federation only merges the k-bounded heads,
    so its cost is O(n_indexes x k) regardless of corpus size."""

    def __init__(self, indexes: dict[str, "SearchProxy"]):
        if not indexes:
            raise ValueError("federation needs at least one index")
        self.indexes = dict(indexes)

    def multi_search(self, queries: list[dict], limit: int = 20,
                     offset: int = 0, fusion: str = "weighted",
                     rrf_k: int = 60) -> list[dict]:
        """`queries`: one entry per (index, query) pair, Meilisearch shape:
        {"indexUid": str, "q": str, "weight": float = 1.0,
         "options": SearchOptions | None}. Returns the federated hit list:
        each hit carries `_federation = {"indexUid", "weightedRankingScore"}`
        plus the member proxy's own hit fields.

        fusion="rrf": Reciprocal Rank Fusion (Cormack et al., SIGIR 2009)
        — the hybrid-retrieval combiner for indexes over the SAME doc
        space (e.g. a BM25 index federated with an ANN index): hits with
        one doc_id COMBINE, score = sum_i weight_i / (rrf_k + rank_i);
        scoreless-rank fusion, so per-index score magnitudes drop out
        entirely. Payload comes from the best-ranked source; every
        contributing index's rank survives in `_federation.ranks`."""
        if fusion == "rrf":
            return self._multi_search_rrf(queries, limit, offset, rrf_k)
        if fusion != "weighted":
            raise ValueError(f"unknown fusion {fusion!r}")
        merged: list[tuple] = []
        for pos, q in enumerate(queries):
            uid = q["indexUid"]
            if uid not in self.indexes:
                raise KeyError(f"unknown index {uid!r}; registered: "
                               f"{sorted(self.indexes)}")
            weight = float(q.get("weight", 1.0))
            if weight == 0.0:
                continue  # weight 0 excludes the index, Meilisearch-style
            hits = self.indexes[uid].search(
                q["q"], k=limit + offset, options=q.get("options"))
            if not hits:
                continue
            top = max(h["score"] for h in hits)
            for h in hits:
                norm = (h["score"] / top) if top > 0 else 0.0
                wscore = round(norm * weight, 9)  # stable across fp noise
                merged.append((-wscore, uid, h["doc_id"], pos, h, wscore))
        merged.sort(key=lambda t: t[:4])
        out = []
        for _neg, uid, _doc, _pos, h, wscore in merged[offset:offset + limit]:
            hit = dict(h)
            hit["_federation"] = {"indexUid": uid,
                                  "weightedRankingScore": wscore}
            out.append(hit)
        return out

    def _multi_search_rrf(self, queries: list[dict], limit: int,
                          offset: int, rrf_k: int) -> list[dict]:
        agg: dict = {}
        for pos, q in enumerate(queries):
            uid = q["indexUid"]
            if uid not in self.indexes:
                raise KeyError(f"unknown index {uid!r}; registered: "
                               f"{sorted(self.indexes)}")
            weight = float(q.get("weight", 1.0))
            if weight == 0.0:
                continue
            hits = self.indexes[uid].search(
                q["q"], k=limit + offset, options=q.get("options"))
            for rank, h in enumerate(hits, start=1):
                rec = agg.setdefault(h["doc_id"], {
                    "score": 0.0, "ranks": {}, "best": None})
                rec["score"] += weight / (rrf_k + rank)
                rec["ranks"][uid] = rank
                cand = (rank, pos, uid, h)
                if rec["best"] is None or cand[:3] < rec["best"][:3]:
                    rec["best"] = cand
        ordered = sorted(agg.items(),
                         key=lambda kv: (-kv[1]["score"], kv[0]))
        out = []
        for doc_id, rec in ordered[offset:offset + limit]:
            hit = dict(rec["best"][3])
            hit["_federation"] = {
                "indexUid": rec["best"][2],
                "rrfScore": round(rec["score"], 9),
                "ranks": dict(sorted(rec["ranks"].items())),
            }
            out.append(hit)
        return out

    def search(self, query: str, limit: int = 20, offset: int = 0,
               weights: dict[str, float] | None = None,
               fusion: str = "weighted") -> list[dict]:
        """One query fanned out to EVERY registered index (the common
        federated case), with optional per-index weights."""
        weights = weights or {}
        qs = [{"indexUid": uid, "q": query,
               "weight": weights.get(uid, 1.0)}
              for uid in sorted(self.indexes)]
        return self.multi_search(qs, limit=limit, offset=offset,
                                 fusion=fusion)
