"""Flagship pipeline: documents -> Common-Crawl-shaped pages -> Thai index -> search.

entry() contract: reads the driver's documents table, wraps each row into the
`pages` schema (html:binary built from the text plus a deterministic Thai
sentence keyed by doc_id — guarantees the Thai path and the fixture queries
are exercised on any input), runs the full distributed build (extract ->
tokenize -> salted posting shuffle -> shards), then batch-evaluates the Thai
query fixture set against the built index.

Returns: (qid, rank, doc_id, score) rows.
"""

from __future__ import annotations

import hashlib
import os
import random

import numpy as np
import pyarrow as pa

import ray.data

from ..config import EngineConfig
from ..sources.documents import read_parquet_clean
from ..fixtures.pages import _Vocab, _render_html, _thai_sentence
from ..fixtures.queries import QUERY_FIXTURES

_CACHE_ROOT = "/tmp/meili_ray_cache"


class DocsToPages:
    """documents row -> pages row (url, warc_ts, html, text, lang).

    Stateful: the Thai vocabulary loads once per actor; the Thai augmentation
    sentence depends only on doc_id (deterministic at any parallelism)."""

    def __init__(self):
        self.vocab = _Vocab()

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        urls, htmls, out_texts = [], [], []
        for d, t in zip(doc_ids, texts):
            rng = random.Random(0xA5F00000 + d)
            thai = _thai_sentence(rng, self.vocab, rng.randint(4, 9))
            title = f"doc {d}"
            body = f"{t}\n{thai}"
            urls.append(f"https://docs.example.th/d/{d:010d}")
            htmls.append(_render_html(title, body, fancy=(d % 10 == 3)).encode())
            out_texts.append(f"{title}\n{title}\n{body}")
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "warc_ts": pa.array([0] * len(urls), pa.timestamp("us")),
                "html": pa.array(htmls, pa.binary()),
                "text": pa.array(out_texts, pa.string()),
                "lang": pa.array(["mixed"] * len(urls), pa.string()),
            }
        )


def build_flagship_index(sf_dir: str, out_dir: str | None = None) -> str:
    from ..index.build import build_index
    from ..index.codec import INDEX_FORMAT

    from ..kernel.extract import EXTRACTOR_VERSION
    from ..kernel.tokenize import TOKENIZER_VERSION

    from .simple_text import input_fingerprint

    cfg_tag = (
        EngineConfig(num_shards=8).dictionary_hash()
        + EXTRACTOR_VERSION
        + TOKENIZER_VERSION
        + "pos1"  # flagship index stores positions (phrase search)
        + f"f{INDEX_FORMAT}"
    )
    key = hashlib.md5(
        (input_fingerprint(os.path.join(sf_dir, "documents.parquet"))
         + cfg_tag).encode()
    ).hexdigest()[:10]
    out = out_dir or os.path.join(_CACHE_ROOT, f"thai_index_{key}")
    pages_dir = os.path.join(out, "pages")
    if not os.path.exists(os.path.join(pages_dir, "_done")):
        if os.path.isdir(pages_dir):  # discard a crashed run's partial files
            import shutil

            shutil.rmtree(pages_dir)
        ds = read_parquet_clean(
            os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
        )
        pages = ds.map_batches(
            DocsToPages, batch_format="pyarrow", batch_size=512, concurrency=2
        )
        pages.write_parquet(pages_dir)
        open(os.path.join(pages_dir, "_done"), "w").write("ok")
    build_index(pages_dir, out,
                EngineConfig(num_shards=8, store_positions=True), num_salts=2)
    return out


class QueryEval:
    """Actor-pool batch query evaluation (SURVEY §3.2 scale form): each actor
    loads the SearchEngine (and optionally the proxy) ONCE in __init__; a
    batch of (qidx, qid, query) rows fans out across the pool. On a cluster
    the index directory lives on shared storage; per-actor shard caches warm
    with traffic exactly like the serving actors."""

    def __init__(self, index_dir: str, k: int = 10, use_proxy: bool = False):
        from ..index.search import SearchEngine

        self.engine = SearchEngine(index_dir)
        self.k = k
        self.proxy = None
        if use_proxy:
            from .search_proxy import SearchProxy

            self.proxy = SearchProxy(
                self.engine, docs_path=os.path.join(index_dir, "docs")
            )

    def __call__(self, batch: pa.Table) -> pa.Table:
        qidx, qids, ranks, doc_ids, scores, vtypes = [], [], [], [], [], []
        for i, qid, query in zip(batch["qidx"].to_pylist(),
                                 batch["qid"].to_pylist(),
                                 batch["query"].to_pylist()):
            if self.proxy is not None:
                hits = [
                    (h["doc_id"], h["score"], h["variant_type"])
                    for h in self.proxy.search(query, k=self.k)
                ]
            else:
                hits = [(d, s, "")
                        for d, s in self.engine.search(query, k=self.k)]
            for r, (d, s, vt) in enumerate(hits, 1):
                qidx.append(i)
                qids.append(qid)
                ranks.append(r)
                doc_ids.append(d)
                scores.append(s)
                vtypes.append(vt)
        return pa.table(
            {
                "qidx": pa.array(np.asarray(qidx, dtype=np.int64)),
                "qid": pa.array(qids, pa.string()),
                "rank": pa.array(np.asarray(ranks, dtype=np.int64)),
                "doc_id": pa.array(np.asarray(doc_ids, dtype=np.int64)),
                "score": pa.array(np.asarray(scores, dtype=np.float64)),
                "variant_type": pa.array(vtypes, pa.string()),
            }
        )


def _eval_fixture_queries(index_dir: str, k: int,
                          use_proxy: bool) -> pa.Table:
    """Distributed fixture-query evaluation; output rows in fixture order
    (identical to the serial loop, asserted in tests)."""
    items = [
        {"qidx": i, "qid": q["qid"], "query": q["query"]}
        for i, q in enumerate(QUERY_FIXTURES)
    ]
    ds = ray.data.from_items(items).map_batches(
        QueryEval,
        fn_constructor_kwargs={"index_dir": index_dir, "k": k,
                               "use_proxy": use_proxy},
        batch_format="pyarrow",
        batch_size=8,
        concurrency=2,
    )
    t = pa.Table.from_pylist(ds.take_all())  # <= len(fixtures) * k rows: tiny
    if t.num_rows == 0:
        t = pa.table({"qidx": pa.array([], pa.int64()),
                      "qid": pa.array([], pa.string()),
                      "rank": pa.array([], pa.int64()),
                      "doc_id": pa.array([], pa.int64()),
                      "score": pa.array([], pa.float64()),
                      "variant_type": pa.array([], pa.string())})
    order = np.lexsort((t["rank"].to_numpy(), t["qidx"].to_numpy()))
    return t.take(pa.array(order)).drop_columns(["qidx"])


def flagship_proxy_search(sf_dir: str, k: int = 10):
    """Full reference query-path semantics (variants + boosts + dedup,
    pipelines/search_proxy.py) over the flagship index, evaluated as a Ray
    actor-pool pipeline. -> (qid, rank, doc_id, score, variant_type)."""
    index_dir = build_flagship_index(sf_dir)
    return _eval_fixture_queries(index_dir, k, use_proxy=True)


def flagship_proxy_search_serial(sf_dir: str, k: int = 10):
    """Driver-side serial loop (identity oracle for the pipeline form)."""
    from ..index.search import SearchEngine
    from .search_proxy import SearchProxy

    index_dir = build_flagship_index(sf_dir)
    proxy = SearchProxy(SearchEngine(index_dir),
                        docs_path=os.path.join(index_dir, "docs"))
    qids, ranks, doc_ids, scores, vtypes = [], [], [], [], []
    for q in QUERY_FIXTURES:
        for r, hit in enumerate(proxy.search(q["query"], k=k), 1):
            qids.append(q["qid"])
            ranks.append(r)
            doc_ids.append(hit["doc_id"])
            scores.append(hit["score"])
            vtypes.append(hit["variant_type"])
    return pa.table(
        {
            "qid": pa.array(qids, pa.string()),
            "rank": pa.array(np.asarray(ranks, dtype=np.int64)),
            "doc_id": pa.array(np.asarray(doc_ids, dtype=np.int64)),
            "score": pa.array(np.asarray(scores, dtype=np.float64)),
            "variant_type": pa.array(vtypes, pa.string()),
        }
    )


def phrase_search(sf_dir: str, k: int = 5, n_queries: int = 10):
    """True token-adjacency phrase search over the positional flagship index
    (J5: the Meilisearch quoted-phrase capability, resolved with positional
    data instead of document text).

    Queries are the deterministic planted Thai sentences of the first
    n_queries doc_ids — each phrase provably occurs verbatim in exactly its
    source document, so every query must rank that doc. -> (qid, rank,
    doc_id, score, source_found)."""
    import random as _random

    import pyarrow.parquet as pq

    from ..functions.hashing import doc_id_from_url
    from ..index.search import SearchEngine

    index_dir = build_flagship_index(sf_dir)
    eng = SearchEngine(index_dir)
    vocab = _Vocab()
    t = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    )
    src_ids = sorted(t["doc_id"].to_pylist())[:n_queries]
    qids, ranks, doc_ids, scores, found = [], [], [], [], []
    for d in src_ids:
        rng = _random.Random(0xA5F00000 + d)
        thai = _thai_sentence(rng, vocab, rng.randint(4, 9))
        expect = doc_id_from_url(f"https://docs.example.th/d/{d:010d}")
        hits = eng.phrase_topk(thai, k=k)
        src_hit = any(h[0] == expect for h in hits)
        for r, (hd, s) in enumerate(hits, 1):
            qids.append(int(d))
            ranks.append(r)
            doc_ids.append(hd)
            scores.append(s)
            found.append(src_hit)
    return pa.table(
        {
            "qid": pa.array(np.asarray(qids, dtype=np.int64)),
            "rank": pa.array(np.asarray(ranks, dtype=np.int64)),
            "doc_id": pa.array(np.asarray(doc_ids, dtype=np.int64)),
            "score": pa.array(np.asarray(scores, dtype=np.float64)),
            "source_found": pa.array(found, pa.bool_()),
        }
    )


def variant_distribution(sf_dir: str):
    """A2: per-variant hit distribution over the proxy results
    (search_executor.py:603-615 analog) — groupby(variant_type).count."""
    t = flagship_proxy_search(sf_dir)
    return ray.data.from_arrow(t).groupby("variant_type").count()


def build_metrics(sf_dir: str):
    """ST5/A3: per-partition build lineage/metrics from the manifest."""
    from ..state.manifest import BuildManifest

    index_dir = build_flagship_index(sf_dir)
    rows = BuildManifest(index_dir).partitions("shards")
    cols = ["partition", "shard", "salt", "n_terms", "n_postings", "bytes"]
    return pa.table(
        {c: pa.array([int(r[c]) for r in rows], pa.int64()) for c in cols}
    )


def flagship_search(sf_dir: str, k: int = 10):
    """Build (cached) + evaluate the fixture query set as a Ray actor-pool
    pipeline (engine loaded once per actor), each query through
    SearchEngine.search, the one BM25 top-k entry. -> (qid, rank, doc_id,
    score)."""
    index_dir = build_flagship_index(sf_dir)
    return _eval_fixture_queries(index_dir, k,
                                 use_proxy=False).drop_columns(["variant_type"])


def flagship_search_serial(sf_dir: str, k: int = 10):
    """Driver-side serial loop (identity oracle for the pipeline form)."""
    from ..index.search import SearchEngine

    index_dir = build_flagship_index(sf_dir)
    eng = SearchEngine(index_dir)
    qids, ranks, doc_ids, scores = [], [], [], []
    for q in QUERY_FIXTURES:
        hits = eng.search(q["query"], k=k)
        for r, (d, s) in enumerate(hits, 1):
            qids.append(q["qid"])
            ranks.append(r)
            doc_ids.append(d)
            scores.append(s)
    return pa.table(
        {
            "qid": pa.array(qids, pa.string()),
            "rank": pa.array(np.asarray(ranks, dtype=np.int64)),
            "doc_id": pa.array(np.asarray(doc_ids, dtype=np.int64)),
            "score": pa.array(np.asarray(scores, dtype=np.float64)),
        }
    )
