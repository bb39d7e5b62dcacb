"""meilisearch_thai_ray — a Ray-Data-native Thai full-text indexing + BM25 query engine.

A brand-new engine (NOT a port) with the query/data-processing capabilities of the
reference `certogo-tech/meilisearch-thai` proxy: HTML->text extraction, dictionary/trie
Thai word segmentation (newmm-style maximal matching with custom-dictionary compound
handling, reference semantics at src/tokenizer/thai_segmenter.py:84-239), a sharded
inverted index with delta/varint-compressed posting lists and per-block max-score
metadata, and BM25 (k1=1.2, b=0.75) top-k with MaxScore pruning.

Layout
------
kernel/     pure-Python single-node oracle (extraction, segmentation, BM25) — the
            byte-identity / rank-identity reference for every distributed stage.
fixtures/   deterministic synthetic `pages` corpus + Thai query fixture set.
sources/    Parquet readers/writers for the `pages` / `docs` / index-shard tables.
stages/     map_batches stage callables (actor pools for stateful stages).
index/      posting-list codec, distributed index build, shard reader, BM25 search.
pipelines/  end-to-end pipelines incl. the DuckDB-verifiable simple-text pipelines.
state/      partition manifest / lineage for resumable builds.
functions/  scalar/vector helpers shared by stages and kernel.
"""

__version__ = "0.1.0"
