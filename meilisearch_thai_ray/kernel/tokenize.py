"""Document tokenization: extracted text -> analysis columns + index terms.

Combines the reference's document path (document_processor.py:139-259) with the
index-side settings (settings_manager.py:26-111):

  * Thai detection / ratio / mixed flags per document (:174-190);
  * Thai runs are segmented with the dictionary trie + compound second pass
    (thai_segmenter.py:84-239 semantics); non-Thai spans between runs are
    tokenized as class runs (latin words, numbers);
  * the U+200B separator string form of a document (`tokenized_content`) is
    derivable from the token list exactly as token_processor.py:196-265 builds
    it — kept as a function, not a stored column;
  * index terms = tokens minus whitespace, punctuation-only tokens and the
    index stop-word list (settings_manager.py:65-69); latin tokens lowercased.

Per character, the work is done in C: one `str.translate` gives the
document's class-code string (`charclass.class_codes`), whose regex runs are
the Thai runs, the non-Thai class runs and the Thai ratio, and the trie's one
compiled pattern segments the Thai runs.  Per token, the decisions are
memoized: the compound second pass and the index-term decision (strip, the
punct rule, stop words, lowercasing, compound parts, and the token class
`tokenized_content` reads), each in a dict of at most TOKEN_MEMO_CAP tokens.

`DocumentTokenizer` is deterministic after __init__ (the memos only cache
pure functions of the token) — safe to instantiate once per Ray actor and
call per batch, and to use directly as the single-node oracle.
"""

from __future__ import annotations

import re
from itertools import chain, count, repeat
from operator import itemgetter

from ..config import (
    THAI_COMPOUND_SEPARATOR,
    THAI_WORD_SEPARATOR,
    EngineConfig,
)
from .charclass import (
    CLASS_RUN,
    WORD_RUN,
    class_codes,
    classify_token,
    codes_thai_ratio,
    is_mixed_content,
)
from .segmenter import ThaiSegmenter, TokenMemo

_THAI_CODES = re.compile("0+")  # Thai runs of a class-code string
_TERMS = itemgetter(1)


TOKENIZER_VERSION = "3"  # bump on any index-term semantic change (cache keys)


class DocumentTokenizer:
    def __init__(self, config: EngineConfig | None = None):
        self.config = config or EngineConfig()
        base, custom = self.config.dictionary_words()
        self.segmenter = ThaiSegmenter(base, custom)
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
            alts = sorted(self.config.separator_tokens, key=len, reverse=True)
            self._sep_re = re.compile("|".join(re.escape(s) for s in alts))
        self._nonsep = frozenset(self.config.non_separator_tokens)
        self._nonsep_chars = frozenset("".join(self._nonsep))
        # token -> (its class, its index terms: none, or the term and its
        # compound parts)
        self._token_info = TokenMemo(self._decide)

    # ---------------- tokenization ----------------

    def _class_run_tokens(self, text: str, codes: str, start: int,
                          end: int) -> list[str]:
        """Non-Thai span text[start:end] -> its class runs minus whitespace
        (`codes` is `class_codes(text)`), honouring the nonSeparatorTokens
        setting: a listed token glues its immediately adjacent (no
        whitespace between) word neighbours — "e"+"-"+"mail" -> "e-mail",
        "#"+"hashtag" -> "#hashtag". The runs cover the span contiguously,
        so consecutive non-whitespace runs ARE adjacent in the text."""
        if not self._nonsep:
            return [text[m.start():m.end()]
                    for m in WORD_RUN.finditer(codes, start, end)]
        out: list[str] = []
        prev_ws = True      # whitespace gap precedes the current token
        pending = False     # out[-1] ends in a nonsep token: glue next word
        for m in CLASS_RUN.finditer(codes, start, end):
            if codes[m.start()] == "1":
                prev_ws, pending = True, False
                continue
            t = text[m.start():m.end()]
            if t in self._nonsep or (
                # punct RUNS: class runs give "++" for "c++"; a run whose
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
        return self._tokenize(text, class_codes(text)) if text else []

    def _tokenize(self, text: str, codes: str) -> list[str]:
        """`tokenize`, given `codes` = class_codes(text).  A non-Thai
        document is its class runs alone (the reference SKIPs Thai
        processing entirely, document_processor.py:178-183; terms still
        need to be searchable in our engine)."""
        seg = self.segmenter
        tokens: list[str] = []
        pos = 0
        for m in _THAI_CODES.finditer(codes):
            start, end = m.span()
            if start > pos:
                tokens.extend(self._class_run_tokens(text, codes, pos, start))
            tokens.extend(seg.segment_text(text[start:end]))
            pos = end
        if pos < len(text):
            tokens.extend(self._class_run_tokens(text, codes, pos, len(text)))
        # the compound second pass, once over the document: it leaves
        # every token of a non-Thai span as it is
        return self._split_custom_separators(seg.enhance_tokens(tokens))

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
        groups = list(filter(None, map(
            _TERMS, map(self._token_info.__getitem__, tokens))))
        terms = list(chain.from_iterable(groups))
        if len(terms) == len(groups):  # no compound parts
            return terms, list(range(len(terms)))
        return terms, list(chain.from_iterable(
            map(repeat, count(), map(len, groups))))

    def _decide(self, t: str) -> tuple[str, tuple[str, ...]]:
        """One token's (class, index terms): no terms for whitespace,
        punctuation and stop words, else the stripped token (lowercased when
        configured) followed by its compound parts."""
        ts = t.strip()
        kind = classify_token(ts)
        if not ts or ts in self.stop_words or (kind == "punct" and not (
                # nonSeparatorTokens setting: a merge like "c++" is
                # punct-DOMINANT but must stay searchable — keep punct-class
                # tokens that mix alphanumerics with configured nonsep chars
                # (unset config: empty set, condition always False)
                self._nonsep_chars
                and any(c in self._nonsep_chars for c in ts)
                and any(c.isalnum() for c in ts))):
            return kind, ()
        term = ts.lower() if self.config.lowercase_latin else ts
        return kind, (term, *self.compound_parts.get(ts, ()))

    def analyze(self, text: str) -> dict:
        """One document -> analysis row (columns of the `docs` table)."""
        text = text or ""
        codes = class_codes(text)
        tokens = self._tokenize(text, codes)
        terms, positions = self.index_terms_with_positions(tokens)
        return {
            "tokens": tokens,
            "terms": terms,
            "term_positions": positions,
            "token_count": len(terms),
            "thai_ratio": codes_thai_ratio(codes),
            "mixed": is_mixed_content(text),
            "has_thai": "0" in codes,
        }

    # ---------------- derived separator form ----------------

    def tokenized_content(self, tokens: list[str]) -> str:
        """U+200B separator string form (token_processor.py:196-265): Thai token
        -> token + U+200B; english/numeric token -> ' token '; others verbatim.
        Compound sub-splitting is already materialized in the token list, so the
        double-separator compound form is represented by the parts each carrying
        their own separator (the searchable term stream is identical)."""
        parts: list[str] = []
        for t in tokens:
            k = self._token_info[t][0]
            if k == "thai":
                parts.append(t + THAI_WORD_SEPARATOR)
            elif k in ("english", "numeric"):
                parts.append(f" {t} ")
            else:
                parts.append(t)
        return "".join(parts)


SEPARATORS = [" ", "\t", "\n", "\r", THAI_WORD_SEPARATOR, THAI_COMPOUND_SEPARATOR]


def tokenize_api(text: str, tokenizer: DocumentTokenizer | None = None,
                 compound: bool = True) -> dict:
    """Reference tokenize-API response shape (TokenizationResult,
    thai_segmenter.py:29-38): original_text, tokens, word_boundaries, engine.
    processing_time_ms omitted — wall clock never belongs in results."""
    tok = tokenizer or DocumentTokenizer()
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
