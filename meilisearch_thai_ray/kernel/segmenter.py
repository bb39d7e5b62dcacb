"""Thai word segmentation with compound-word handling (reference semantics).

Mirrors the behaviour of the reference's ThaiSegmenter
(/root/reference/src/tokenizer/thai_segmenter.py) on our own trie engine:

  * segment_text: empty/whitespace input -> no tokens (:94-100); dictionary
    tokenizer over base+custom words (:66-76, :106-116); char-class fallback on
    engine failure (:261-304).
  * segment_compound_words: second pass over tokens longer than 6 chars that are
    primarily Thai (:173-177); a candidate present in the custom dictionary is
    preserved whole (:186-189); otherwise an alternative segmentation is
    attempted and applied only if it yields >1 token (:191-197). Our
    "alternative engine" is re-segmentation with the base-only trie (custom
    compounds removed), which splits unknown agglutinations into known parts.
  * known common long words are never split (token_processor.py:380-387).
"""

from __future__ import annotations

from itertools import chain

from ..config import KNOWN_LONG_WORDS
from .charclass import is_thai_char, is_thai_text
from .trie import Trie, segment

# Tokens per TokenMemo.  Token streams are Zipfian (the perfbench fixture
# has 1,946 distinct tokens in 340,571), so a memo cleared when full keeps
# nearly every hit while bounding its memory.
TOKEN_MEMO_CAP = 1 << 15


class TokenMemo(dict):
    """token -> decide(token), computed on the first lookup of the token
    and cleared when it holds TOKEN_MEMO_CAP tokens.  Lookups through
    `map(memo.__getitem__, tokens)` run per token in C."""

    __slots__ = ("decide",)

    def __init__(self, decide):
        super().__init__()
        self.decide = decide

    def __missing__(self, token: str):
        if len(self) >= TOKEN_MEMO_CAP:
            self.clear()
        value = self[token] = self.decide(token)
        return value


class ThaiSegmenter:
    """Dictionary/trie segmenter. Build once (per actor), reuse across batches."""

    def __init__(self, base_words: list[str], custom_words: list[str]):
        self.custom_set = frozenset(custom_words)
        self.trie = Trie(set(base_words) | set(custom_words))
        self.base_trie = Trie(set(base_words))
        self._enhanced = TokenMemo(self._enhance)

    def segment_text(self, text: str, keep_whitespace: bool = True) -> list[str]:
        if not text or not text.strip():
            return []
        return segment(text, self.trie, keep_whitespace=keep_whitespace)

    def segment_compound_words(self, text: str, keep_whitespace: bool = True) -> list[str]:
        """First pass + compound second pass (thai_segmenter.py:157-210)."""
        tokens = self.segment_text(text, keep_whitespace=keep_whitespace)
        return self.enhance_tokens(tokens)

    def enhance_tokens(self, tokens: list[str]) -> list[str]:
        """Apply the >6-char compound second pass to an existing token list."""
        return list(chain.from_iterable(map(self._enhanced.__getitem__, tokens)))

    def _enhance(self, tok: str) -> tuple[str, ...]:
        """One token's second-pass outcome: itself, or its parts."""
        if len(tok) > 6 and is_thai_text(tok) and tok not in KNOWN_LONG_WORDS:
            if tok in self.custom_set:
                return (tok,)  # dictionary compound preserved whole (:186-189)
            # split applied only when it helps (:193-195); _alt_segment
            # returns the token alone otherwise
            return tuple(self._alt_segment(tok))
        return (tok,)

    def _alt_segment(self, token: str) -> list[str]:
        """Alternative segmentation of one long token: base-only trie (no custom
        compounds), no whitespace keeping — stands in for the reference's
        fallback engines (thai_segmenter.py:212-239)."""
        sub = segment(token, self.base_trie, keep_whitespace=False)
        return sub if len(sub) > 1 else [token]

    @staticmethod
    def char_fallback(text: str) -> list[str]:
        """Character-level fallback (thai_segmenter.py:261-304): Thai chars
        accumulate into runs; non-Thai non-space chars are single tokens;
        whitespace dropped."""
        tokens: list[str] = []
        cur = ""
        for c in text:
            if is_thai_char(c):
                cur += c
            else:
                if cur:
                    tokens.append(cur)
                    cur = ""
                if c.strip():
                    tokens.append(c)
        if cur:
            tokens.append(cur)
        return tokens

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
