"""Typo tolerance kernel: Damerau-Levenshtein + Meilisearch budget rules.

The reference delegates typo matching to Meilisearch itself (it only passes
`typo_tolerance` options through — query_processor.py:671,693 and
settings_manager.py:74 "typo" ranking rule); this engine replaces Meilisearch,
so the matching lives here. Rules implemented are Meilisearch's PUBLIC
documented defaults:

  * words of 1-4 chars allow 0 typos, 5-8 allow 1, >= 9 allow 2
    (typoTolerance.minWordSizeForTypos oneTypo=5 twoTypos=9)
  * swapped adjacent letters count as ONE typo
  * a typo on the FIRST letter counts as TWO typos

Distance is UNRESTRICTED Damerau-Levenshtein (Lowrance-Wagner), chosen to be
bit-identical with DuckDB's damerau_levenshtein() so the expansion operator is
SQL-hash-verifiable. The candidate generator is the SymSpell deletion
neighborhood (Garbe, public domain): if dl(a, b) <= d then a and b share a
variant obtainable by <= d deletions from each — asserted exhaustively in
tests for d <= 2, which is the maximum budget. Engines look the
neighborhood up by `variant_hash` (index/build.py:typo_arrays).
"""

from __future__ import annotations

import zlib

ONE_TYPO_MIN_LEN = 5  # Meilisearch default minWordSizeForTypos.oneTypo
TWO_TYPO_MIN_LEN = 9  # Meilisearch default minWordSizeForTypos.twoTypos
MAX_TYPOS = 2


def typo_budget(word: str, one_typo: int = ONE_TYPO_MIN_LEN,
                two_typos: int = TWO_TYPO_MIN_LEN) -> int:
    """Allowed typos for a query word of this length (Meilisearch rule)."""
    n = len(word)
    if n >= two_typos:
        return 2
    if n >= one_typo:
        return 1
    return 0


def damerau_levenshtein(a: str, b: str) -> int:
    """Unrestricted Damerau-Levenshtein (Lowrance-Wagner DP with
    last-occurrence bookkeeping) — matches DuckDB damerau_levenshtein()."""
    n, m = len(a), len(b)
    if n == 0:
        return m
    if m == 0:
        return n
    inf = n + m
    d = [[inf] * (m + 2) for _ in range(n + 2)]
    for i in range(n + 1):
        d[i + 1][1] = i
    for j in range(m + 1):
        d[1][j + 1] = j
    last_a: dict[str, int] = {}
    for i in range(1, n + 1):
        last_b = 0
        for j in range(1, m + 1):
            k = last_a.get(b[j - 1], 0)
            cost = 0 if a[i - 1] == b[j - 1] else 1
            if cost == 0:
                prev_b = last_b
                last_b = j
            else:
                prev_b = last_b
            d[i + 1][j + 1] = min(
                d[i][j] + cost,                              # sub / match
                d[i + 1][j] + 1,                             # insert
                d[i][j + 1] + 1,                             # delete
                d[k][prev_b] + (i - k - 1) + 1 + (j - prev_b - 1),  # transp.
            )
        last_a[a[i - 1]] = i
    return d[n + 1][m + 1]


def effective_typos(query: str, cand: str) -> int:
    """Typo count under Meilisearch rules: DL distance, plus one if the
    first letters differ (a first-letter typo counts as two)."""
    d = damerau_levenshtein(query, cand)
    if d > 0 and (not query or not cand or query[0] != cand[0]):
        d += 1
    return d


def deletion_variants(word: str, budget: int) -> set[str]:
    """All strings reachable by deleting <= budget characters (SymSpell
    neighborhood; includes the word itself). O(len^budget) variants."""
    out = {word}
    frontier = {word}
    for _ in range(max(0, budget)):
        nxt: set[str] = set()
        for w in frontier:
            for i in range(len(w)):
                nxt.add(w[:i] + w[i + 1:])
        out |= nxt
        frontier = nxt
    return out


def variant_hash(variant: str) -> int:
    """The 32-bit key a deletion variant is stored and looked up under
    (CRC-32 of its UTF-8 bytes, computed in C)."""
    return zlib.crc32(variant.encode())


def typo_matches(query: str, cand: str,
                 one_typo: int = ONE_TYPO_MIN_LEN,
                 two_typos: int = TWO_TYPO_MIN_LEN) -> int | None:
    """Effective typo count if `cand` is an acceptable typo-match for
    `query` under the query word's budget, else None. Exact matches
    return 0; the caller decides whether to keep them."""
    t = effective_typos(query, cand)
    return t if t <= typo_budget(query, one_typo, two_typos) else None
