"""Text-analysis stages over a documents table (training-data pipeline ops).

All vectorized (pyarrow.compute / polars) — no per-row Python in hot paths.
The "simple" tokenizer is text.split(' ') EXACTLY (single-space split), chosen
to be bit-compatible with DuckDB's string_split for the oracle-SQL parity gate.

Operators: token counting, quality scoring (length / distinct / stop-word
ratios), document fingerprinting (hash of sorted distinct token set), n-gram
language ID heuristic.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

SIMPLE_STOP_WORDS = ("the", "a", "of", "and", "to", "in")

# tiny per-language stop-word profiles for the heuristic language-ID stage
_LANG_PROFILES = {
    "en": {"the", "a", "of", "and", "to", "in", "is", "it", "for", "on"},
    "fr": {"le", "la", "de", "et", "un", "une", "est", "les", "des", "du"},
    "es": {"el", "la", "de", "y", "un", "una", "es", "los", "las", "en"},
    "de": {"der", "die", "das", "und", "ein", "eine", "ist", "den", "von", "zu"},
    "th": set(),  # thai detected by script, not stop words
}


def token_stats(batch: pa.Table) -> pa.Table:
    """doc_id, dl — dl = len(split(text, ' ')) (DuckDB string_split parity)."""
    parts = pc.split_pattern(batch["text"], " ")
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "dl": pc.list_value_length(parts).cast(pa.int64()),
        }
    )


def quality_score(batch: pa.Table) -> pa.Table:
    """Per-doc quality metrics: n_tokens, n_distinct, stop_ratio, mean_token_len.

    Rounded to 6 decimals to be bit-comparable with the DuckDB oracle."""
    import polars as pl

    df = pl.from_arrow(batch.select(["doc_id", "text"]))
    # explode + native groupby aggregations (list.eval is 100x slower here)
    flat = df.with_columns(pl.col("text").str.split(" ").alias("tok")).drop(
        "text"
    ).explode("tok")
    out = (
        flat.group_by("doc_id", maintain_order=True)
        .agg(
            pl.len().cast(pl.Int64).alias("n_tokens"),
            pl.col("tok").n_unique().cast(pl.Int64).alias("n_distinct"),
            pl.col("tok").is_in(list(SIMPLE_STOP_WORDS)).sum().cast(pl.Float64).alias("_stops"),
            pl.col("tok").str.len_chars().cast(pl.Float64).mean().round(6).alias("mean_token_len"),
        )
        .with_columns(
            (pl.col("_stops") / pl.col("n_tokens").cast(pl.Float64)).round(6).alias("stop_ratio")
        )
        .select(["doc_id", "n_tokens", "n_distinct", "stop_ratio", "mean_token_len"])
    )
    return out.to_arrow()


def fingerprint(batch: pa.Table) -> pa.Table:
    """doc_id, fp — md5 of the space-joined sorted distinct token set
    (deterministic content fingerprint; DuckDB-expressible)."""
    texts = batch["text"].to_pylist()
    fps = [
        hashlib.md5(" ".join(sorted(set(t.split(" ")))).encode()).hexdigest()
        for t in texts
    ]
    return pa.table({"doc_id": batch["doc_id"], "fp": pa.array(fps, pa.string())})


def content_hash(batch: pa.Table) -> pa.Table:
    """doc_id, content_hash = md5(text) (exact-dedup key; D3 analog —
    reference hashes content with MD5 at result_ranker.py:474-485)."""
    hashes = [hashlib.md5(t.encode()).hexdigest() for t in batch["text"].to_pylist()]
    return pa.table(
        {"doc_id": batch["doc_id"], "content_hash": pa.array(hashes, pa.string())}
    )


class LangId:
    """Heuristic language ID: Thai by script ratio, otherwise best stop-word
    profile overlap; 'und' when nothing matches. Stateful (profiles compiled
    once per actor)."""

    def __init__(self):
        self.profiles = {k: v for k, v in _LANG_PROFILES.items() if v}

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..kernel.charclass import thai_ratio

        texts = batch["text"].to_pylist()
        langs, confs = [], []
        for t in texts:
            ratio = thai_ratio(t)
            if ratio > 0.5:
                langs.append("th")
                confs.append(round(ratio, 6))
                continue
            toks = set(t.lower().split(" "))
            best, best_hits = "und", 0
            for lang, prof in sorted(self.profiles.items()):
                hits = len(toks & prof)
                if hits > best_hits:
                    best, best_hits = lang, hits
            langs.append(best)
            confs.append(round(best_hits / max(1, len(toks)), 6))
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "pred_lang": pa.array(langs, pa.string()),
                "confidence": pa.array(np.asarray(confs, dtype=np.float64)),
            }
        )
