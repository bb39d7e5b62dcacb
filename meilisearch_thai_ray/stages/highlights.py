"""Highlight span extraction + merge (reference M19/M20 semantics).

Re-expresses src/tokenizer/result_enhancer.py:375-543: exact spans per query
term, compound-part spans, fuzzy partial matches (substring containment with
length-ratio confidence >= 0.6, :460-487), then overlapping-span merge keeping
the higher-confidence span. Runs post-top-k over <= k rows (cheap, serial) —
a map_batches over the final hit set, never over the corpus.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

FUZZY_MIN_CONFIDENCE = 0.6  # result_enhancer.py:460-487
_TOKEN = re.compile(r"\S+")


@dataclass
class Span:
    start: int
    end: int
    term: str
    kind: str  # exact | compound_part | fuzzy
    confidence: float


def extract_spans(text: str, terms: list[str],
                  compound_parts: dict[str, list[str]] | None = None) -> list[Span]:
    """All match spans of query terms in text (exact, compound-part, fuzzy).

    Offsets index text.lower().  The fuzzy pass compares each term with the
    whitespace-separated tokens of the lowered text, split once per text:
    the \\S+ runs, which end exactly where str.isspace() does."""
    spans: list[Span] = []
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
    # fuzzy: term contained in a longer token or vice versa
    tokens = None
    for term in terms:
        t = term.lower()
        if len(t) < 3:
            continue
        if tokens is None:
            tokens = [(m.start(), m.group()) for m in _TOKEN.finditer(lowered)]
        for tok_start, tok in tokens:
            if t == tok:
                continue
            if t in tok:
                conf = len(t) / len(tok)
            elif tok in t:
                conf = len(tok) / len(t)
            else:
                continue
            if conf >= FUZZY_MIN_CONFIDENCE:
                spans.append(Span(tok_start, tok_start + len(tok), term, "fuzzy", conf))
    return merge_spans(spans)


def merge_spans(spans: list[Span]) -> list[Span]:
    """Merge overlapping spans keeping the higher-confidence one
    (result_enhancer.py overlapping-span merge semantics)."""
    if not spans:
        return []
    spans = sorted(spans, key=lambda s: (s.start, -s.confidence, s.end))
    out = [spans[0]]
    for s in spans[1:]:
        last = out[-1]
        if s.start < last.end:  # overlap
            if s.confidence > last.confidence or (
                s.confidence == last.confidence and s.end > last.end
            ):
                out[-1] = s
        else:
            out.append(s)
    return out


def highlight_text(text: str, spans: list[Span],
                   pre: str = "<em>", post: str = "</em>") -> str:
    """Render merged spans as highlight markup (the reference's <em> form)."""
    out = []
    prev = 0
    for s in spans:
        out.append(text[prev : s.start])
        out.append(pre + text[s.start : s.end] + post)
        prev = s.end
    out.append(text[prev:])
    return "".join(out)
