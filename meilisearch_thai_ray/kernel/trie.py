"""Dictionary trie + newmm-style longest-matching Thai segmentation.

Built from scratch (pythainlp is not available here and the north rule forbids
porting). Semantics modeled on the reference's use of a dictionary tokenizer
built once from `thai_words() | custom_dict` (thai_segmenter.py:66-76):

  * longest dictionary match wins at each Thai position (greedy maximal
    matching — deterministic, single pass);
  * consecutive characters with no dictionary match are grouped into one
    "unknown" run token (newmm groups unknown Thai spans the same way);
  * whitespace runs are preserved as tokens (keep_whitespace=True,
    thai_segmenter.py:111-115);
  * non-Thai runs (latin / digit / punct) are emitted as per-class run tokens.

The trie is nested dicts with a terminal marker, compiled on first use into
one regular expression: the words as nested optional groups, where greedy
backtracking finds the longest word, inside an atomic group so a longest
match followed by a combining mark fails outright instead of falling back to
a shorter word.  `re.split` with it does the matching in C; the gaps between
matches are the unknown and class runs.  Built once per actor in __init__
and shared across batches.
"""

from __future__ import annotations

import re

from .charclass import CLASS_RUN, WORD_RUN, class_codes, is_thai_char

_END = "\x00"  # terminal marker key inside trie nodes


class Trie:
    __slots__ = ("root", "_splitter")

    def __init__(self, words: list[str] | set[str] = ()):  # type: ignore[assignment]
        self.root: dict = {}
        self._splitter: re.Pattern | None = None
        for w in words:
            self.add(w)

    def add(self, word: str) -> None:
        if not word:
            return
        node = self.root
        for ch in word:
            node = node.setdefault(ch, {})
        node[_END] = True
        self._splitter = None

    def __contains__(self, word: str) -> bool:
        node = self.root
        for ch in word:
            node = node.get(ch)
            if node is None:
                return False
        return _END in node

    @property
    def splitter(self) -> re.Pattern:
        """`((?>TRIE)(?!COMB))`: at a position, the longest dictionary word
        starting with a Thai character there, unless a combining mark
        follows it.  One capture group, so `split` keeps the words."""
        if self._splitter is None:
            thai_first = {ch: node for ch, node in self.root.items()
                          if ch != _END and is_thai_char(ch)}
            words = _alternation(thai_first) if thai_first else "(?!)"
            self._splitter = re.compile(f"((?>{words})(?!{_COMBINING_CLASS}))")
        return self._splitter


def _alternation(children: dict) -> str:
    """Regex for the words below a trie node, given its children: one
    branch per child character, the rest of the word after it, optional
    (greedy, so longer words are tried first) where the child ends a word."""
    branches = []
    for ch in sorted(children):
        node = children[ch]
        rest = {c: n for c, n in node.items() if c != _END}
        branch = re.escape(ch)
        if rest:
            sub = _alternation(rest)
            branch += f"(?:{sub})?" if _END in node else sub
        branches.append(branch)
    if len(branches) == 1:
        return branches[0]
    return "(?:" + "|".join(branches) + ")"


# Thai dependent vowels / tone marks / thanthakhat — a DICTIONARY MATCH must
# never leave one of these stranded at the next token start (TCC safety;
# pythainlp's newmm guarantees the same via Thai Character Cluster rules).
# Ranges: mai han-akat U+0E31, sara am..sara uee U+0E33-0E3A (plus phinthu),
# tone marks + thanthakhat etc. U+0E47-0E4E. Malformed input that BEGINS with
# orphan marks (no base consonant anywhere before them) groups them into their
# own unknown-run token — garbage-in, lossless-garbage-out.
_COMBINING = frozenset(
    chr(c) for c in [0x0E31, *range(0x0E33, 0x0E3B), *range(0x0E47, 0x0E4F)]
)
_COMBINING_CLASS = "[" + "".join(sorted(_COMBINING)) + "]"
_NON_THAI = re.compile("[^฀-๿]")


def is_combining_mark(c: str) -> bool:
    return c in _COMBINING


def segment(text: str, trie: Trie, keep_whitespace: bool = True) -> list[str]:
    """Segment `text` into tokens by greedy longest dictionary matching.

    Thai spans: the longest trie match at each position; a match followed by
    a combining mark is rejected, so that position joins the unknown run.
    Unmatched characters between matches split into maximal same-class runs
    (unknown Thai, alpha, digit, other); whitespace runs kept iff
    keep_whitespace.
    """
    parts = trie.splitter.split(text)  # [gap, word, gap, word, ..., gap]
    if _NON_THAI.search(text) is None:  # every gap is one unknown Thai run
        return list(filter(None, parts))
    tokens: list[str] = []
    runs = CLASS_RUN if keep_whitespace else WORD_RUN
    for i, part in enumerate(parts):
        if i % 2:
            tokens.append(part)
        elif part:
            codes = class_codes(part)
            tokens.extend(part[m.start():m.end()]
                          for m in runs.finditer(codes))
    return tokens
