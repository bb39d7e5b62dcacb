"""Stage 2: docs batches -> flat posting rows (term, doc_id, tf, part).

Per-batch PARTIAL aggregation (polars explode + group_by) collapses repeated
terms to (doc, term, tf) before the all-to-all shuffle — the combiner pattern
from SURVEY.md §4 'Skew'. Routing key `part` = shard(term) * num_salts +
doc_id % num_salts: the salt splits a Zipf-head term's postings across
`num_salts` groups so no single groupby key exceeds worker memory
(north_rule: 'salted to defuse Zipfian term skew'). Segments of one term are
doc-disjoint (doc_id mod), so query-time union is concatenation, and total df
is the sum of segment dfs.

Columnar end to end: each distinct term of a batch is hashed once and its
shard mapped onto the rows by polars; term and positions leave as Arrow
columns, never as Python lists. Stateful: the term -> shard hash cache
persists across batches in a worker process.
"""

from __future__ import annotations

import numpy as np
import polars as pl
import pyarrow as pa

from ..functions.hashing import fnv1a64_batch

POSTINGS_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("doc_id", pa.int64()),
        ("tf", pa.int32()),
        ("part", pa.int32()),
    ]
)

# with store_positions: per-(term, doc) ascending occurrence positions
POSTINGS_POS_SCHEMA = POSTINGS_SCHEMA.append(
    pa.field("positions", pa.list_(pa.int32()))
)


_PROCESS_CACHE: dict = {}


def postings_flat_fn(batch: pa.Table, num_shards: int, num_salts: int,
                     positions: bool = False) -> pa.Table:
    """Stateless-task form with a per-worker-process instance cache (the term ->
    shard hash cache persists across batches in the same worker; same rationale
    as stages/extract_tokenize.extract_tokenize_fn)."""
    key = (num_shards, num_salts, positions)
    inst = _PROCESS_CACHE.get(key)
    if inst is None:
        inst = _PROCESS_CACHE[key] = PostingsFlat(num_shards, num_salts,
                                                  positions=positions)
    return inst(batch)


class PostingsFlat:
    def __init__(self, num_shards: int, num_salts: int = 1, *,
                 positions: bool = False):
        self.num_shards = num_shards
        self.num_salts = num_salts
        self.positions = positions
        self._shard_cache: dict[str, int] = {}

    def _shards_for(self, terms: pl.Series) -> pl.Series:
        """Each row's shard: every distinct term hashed once (the cache
        spans batches), mapped back onto the rows by polars."""
        cache = self._shard_cache
        uniq = terms.unique().to_list()
        miss = [t for t in uniq if t not in cache]
        cache.update(zip(miss, (fnv1a64_batch(miss)
                                % np.uint64(self.num_shards)).tolist()))
        shards = [cache[t] for t in uniq]
        if len(cache) > 2_000_000:  # bound actor memory on huge vocabularies
            cache.clear()
        return terms.replace_strict(uniq, shards, return_dtype=pl.Int64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.positions:
            df = pl.from_arrow(
                batch.select(["doc_id", "terms", "term_positions"])
            )
            agg = (
                df.explode(["terms", "term_positions"])  # parallel lists
                .drop_nulls("terms")
                .rename({"terms": "term", "term_positions": "pos"})
                .group_by(["term", "doc_id"])
                .agg(
                    pl.len().alias("tf"),
                    pl.col("pos").sort().alias("positions"),
                )
            )
        else:
            df = pl.from_arrow(batch.select(["doc_id", "terms"]))
            agg = (
                df.explode("terms")
                .drop_nulls("terms")
                .rename({"terms": "term"})
                .group_by(["term", "doc_id"])
                .agg(pl.len().alias("tf"))
            )
        schema = POSTINGS_POS_SCHEMA if self.positions else POSTINGS_SCHEMA
        if agg.height == 0:
            return schema.empty_table()
        ns = self.num_salts
        part = self._shards_for(agg["term"]) * ns + agg["doc_id"] % ns
        return agg.with_columns(part=part).select(schema.names).to_arrow().cast(schema)
