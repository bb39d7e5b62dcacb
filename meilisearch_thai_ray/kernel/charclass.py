"""Character-class predicates (reference semantics, values preserved).

- Thai char test '฀' <= c <= '๿': defined 6x in the reference
  (e.g. thai_segmenter.py:314-316, token_processor.py:397-399).
- Thai run pattern [฀-๿]+ and ratio over alpha chars:
  document_processor.py:77-101.
- Mixed content = has Thai AND [a-zA-Z0-9]: document_processor.py:103-112.

`class_codes` maps a text to one class digit per character with one
`str.translate`, so run finding and the Thai ratio are regex and `count`
calls over that string rather than Python loops over characters.
"""

from __future__ import annotations

import re

THAI_RUN = re.compile(r"[฀-๿]+")
_NON_THAI_ALNUM = re.compile(r"[a-zA-Z0-9]")


def is_thai_char(c: str) -> bool:
    return "฀" <= c <= "๿"


def contains_thai(text: str) -> bool:
    return bool(text) and bool(THAI_RUN.search(text))


def _char_class(c: str) -> int:
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


class _ClassCodes(dict):
    """`str.translate` table: code point -> its `_char_class` digit, filled
    the first time a character is seen, so it is exact for every Unicode
    character and holds only the characters met so far."""

    __slots__ = ()

    def __missing__(self, cp: int) -> str:
        code = self[cp] = str(_char_class(chr(cp)))
        return code


_CLASS_CODES = _ClassCodes()

# maximal same-class runs of a class-code string; WORD_RUN skips whitespace
CLASS_RUN = re.compile("0+|1+|2+|3+|4+")
WORD_RUN = re.compile("0+|2+|3+|4+")


def class_codes(text: str) -> str:
    """One class digit per character of `text` (see `_char_class`)."""
    return text.translate(_CLASS_CODES)


def codes_thai_ratio(codes: str) -> float:
    """`thai_ratio` of the text `codes` were made from."""
    thai = codes.count("0")
    total = thai + codes.count("2")
    return thai / total if total else 0.0


def thai_ratio(text: str) -> float:
    """Thai chars / (alpha or Thai chars); document_processor.py:86-96."""
    return codes_thai_ratio(class_codes(text)) if text else 0.0


def extract_thai_runs(text: str) -> list[str]:
    """All maximal Thai-character runs; document_processor.py:98-101."""
    return THAI_RUN.findall(text)


def is_mixed_content(text: str) -> bool:
    if not text:
        return False
    return contains_thai(text) and bool(_NON_THAI_ALNUM.search(text))


def is_thai_text(text: str, threshold: float = 0.5) -> bool:
    """Primarily-Thai test over *all* chars (thai_segmenter.py:306-312: docs use
    > 0.5; query_processor.py:502-507 uses > 0.3)."""
    if not text:
        return False
    thai = sum(1 for c in text if "฀" <= c <= "๿")
    return thai / len(text) > threshold


def classify_char(c: str) -> str:
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


def classify_token(token: str) -> str:
    """Dominant-type classification with the >50% dominance rule
    (token_processor.py:267-309): multiple types present -> the max type if it
    exceeds half the stripped length, else 'mixed'."""
    stripped = token.strip()
    if not stripped:
        return "space"
    counts = {"thai": 0, "english": 0, "numeric": 0, "punct": 0}
    for c in token:
        k = classify_char(c)
        if k != "space":
            counts[k] += 1
    present = [(n, k) for k, n in counts.items() if n > 0]
    if not present:
        return "mixed"
    if len(present) == 1:
        return present[0][1]
    n, k = max(present)
    return k if n / len(stripped) > 0.5 else "mixed"
