"""Operator-family tests: dedup, ANN, filter DSL, text stats, multimodal stubs,
and DuckDB parity of the driver-contract pipelines at sf0.001."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"
TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    return c


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _to_pandas(obj):
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    if isinstance(obj, pd.DataFrame):
        return obj
    return obj.to_pandas()


SQL_CHECKED = [
    "m1_token_stats", "m1b_token_count_bpe", "m2_json_props",
    "a6_corpus_stats", "a6_term_df", "m25_typo_expand", "j4_bm25_topk",
    "d2_exact_dedup", "d3_fingerprint", "m8_quality_score", "m17_filter_dsl",
    "k11_facet_counts",
    "k1_topk_docs", "a1_lang_stats", "a4_events_hourly", "a7_sessionize",
    "k4_suggest", "ann_cosine_topk", "ann_ivf_topk",
    "q1_lineitem_agg", "mm_feature_extract", "j1_broadcast_join",
    "d3_ngram_jaccard_pairs", "d3_cosine_pairs_exact",
    "j6_asof_join", "k2_grouped_topn", "a8_sliding_window",
    "j7_range_join", "j11_anti_join", "q3_shipping", "j12_star_join",
    "q13_order_count_dist", "j13_big_orders", "a13_distinct_suppliers",
    "k5_hash_sample",
    "a9_distinct_users", "k6_heavy_hitters", "k6b_heavy_hitters_by_lang",
    "a10_quantiles_exact", "a12_rollup_counts",
    "m8b_repetition", "m21_pii_scan", "k7_stratified_sample",
    "k12_weighted_sample",
    "j8_latest_event", "a11_bigram_pmi", "d7_curate", "j9_postings_export",
    "ann_ivf_dtrain_topk", "m22_tfidf_embed",
    "q8_market_share", "q9_profit_by_nation", "q12_priority_by_status",
    "q19_disjunctive_revenue", "q21_last_shipper", "a22_event_paths",
    "j16_grouped_mode", "a23_cohort_retention", "j17_full_outer_counts",
    "a24_source_entropy", "k19_zorder_box", "a25_percent_rank",
    "k20_copurchase_pairs",
]


@pytest.mark.parametrize("name", SQL_CHECKED)
def test_oracle_parity(ray_session, con, name):
    import __ray_entry__ as entrymod

    ours = _canon(_to_pandas(entrymod.queries()[name](SF)))
    theirs = _canon(con.execute(entrymod.oracle_sql()[name]).fetchdf())
    assert list(ours.columns) == list(theirs.columns), name
    assert len(ours) == len(theirs), name
    pd.testing.assert_frame_equal(ours, theirs, check_dtype=False)


def test_entry_contract(ray_session):
    import __ray_entry__ as entrymod

    res = entrymod.entry()
    df = _to_pandas(res)
    assert len(df) > 0
    assert sorted(df.columns) == ["doc_id", "qid", "rank", "score"]


# ---------------- dedup kernels ----------------

def test_minhash_finds_near_dups():
    """A pair at the banding's design point (J >= 0.9, where 8 rows/band
    gives >= 98% recall) must share a band; an unrelated pair must not.
    Also asserts the unbiased-estimator property (match fraction ~ J) that
    the bounded-coefficient permutation bug violated."""
    import numpy as np

    from meilisearch_thai_ray.stages.dedup import MinHasher, jaccard

    rng = np.random.default_rng(5)
    vocab = [f"w{i:02d}" for i in range(60)]
    words = [vocab[j] for j in rng.integers(0, 60, 400)]
    base = " ".join(words)
    words[200] = "REPLACED"  # one word of 400: J ~ 0.95
    near = " ".join(words)
    far = "completely different content about databases and indexes " * 8
    j_near, j_far = jaccard(base, near), jaccard(base, far)
    assert j_near > 0.9 > j_far

    mh = MinHasher()
    s_base, s_near, s_far = (mh.signature(t) for t in (base, near, far))
    assert abs(float((s_base == s_near).mean()) - j_near) < 0.15
    assert float((s_base == s_far).mean()) < 0.1
    b_base = set(map(int, mh.band_hashes(s_base)))
    b_near = set(map(int, mh.band_hashes(s_near)))
    b_far = set(map(int, mh.band_hashes(s_far)))
    assert b_base & b_near, "J>=0.9 near-dup must share at least one band"
    assert not (b_base & b_far)


def test_minhash_batch_bit_identical_to_scalar():
    """signatures_batch's buffer-reusing op sequence must be bit-identical
    to the per-doc signature() path (both are _splitmix_permute)."""
    import numpy as np

    from meilisearch_thai_ray.stages.dedup import MinHasher

    rng = np.random.default_rng(11)
    vocab = [f"w{i}" for i in range(300)]
    texts = [" ".join(vocab[j] for j in rng.integers(0, 300, n))
             for n in (1, 7, 80, 250)] + ["", "x"]
    mh = MinHasher()
    batch = mh.signatures_batch(texts)
    for i, t in enumerate(texts):
        assert (mh.signature(t) == batch[i]).all(), f"doc {i} diverged"


def test_bpe_and_shingle_whitespace_parity_unicode():
    """Python \\s is Unicode-aware, RE2 \\s is ASCII-only — the shared
    explicit ASCII class must make both sides tokenize U+00A0 (and \\v)
    identically."""
    import duckdb

    from meilisearch_thai_ray.pipelines.simple_text import (
        BPE_ISH_PATTERN,
        bpe_token_counts,
    )
    from meilisearch_thai_ray.stages.similarity_join import WS_REGEX, _WS_RE

    texts = ["hello world", "tab\tsep", "a\x0bb", "x   y", "a  b"]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": texts})
    ours = bpe_token_counts(t)["n_bpe"].to_pylist()
    con = duckdb.connect()
    con.register("d", t)
    theirs = [r[0] for r in con.execute(
        f"SELECT CAST(len(regexp_extract_all(text, '{BPE_ISH_PATTERN}')) "
        "AS BIGINT) FROM d ORDER BY doc_id"
    ).fetchall()]
    assert ours == theirs
    # split parity for the shingle tokenizer
    for s in texts:
        py = [w for w in _WS_RE.split(s) if w]
        sql = con.execute(
            "SELECT list_filter(string_split_regex(?, ?), x -> x <> '')",
            [s, WS_REGEX],
        ).fetchone()[0]
        assert py == sql, s


def test_json_props_noninteger_parity():
    """polars strict=False cast vs the oracle's string TRY_CAST: both must
    NULL out non-integer / missing k values (CAST(JSON AS BIGINT) would
    round instead)."""
    import duckdb

    from meilisearch_thai_ray.pipelines.simple_text import SQL, _json_props_batch

    t = pa.table({
        "event_id": pa.array(range(5), pa.int64()),
        "props": ['{"k": 69}', '{"k": 12.5}', '{"k": "7"}', '{}',
                  '{"k": null}'],
    })
    ours = _json_props_batch(t)["k"].to_pylist()
    con = duckdb.connect()
    con.register("events", t)
    theirs = [r[1] for r in con.execute(
        SQL["m2_json_props"] + " ORDER BY event_id").fetchall()]
    assert ours == theirs == [69, None, 7, None, None]


def test_similarity_join_block_invariance(ray_session, tmp_path):
    """The blocked all-pairs join's output is invariant to n_blocks (the
    block decomposition is pure parallelism, never semantics), and finds
    exactly the planted near-dup pairs."""
    import pyarrow.parquet as pq

    from meilisearch_thai_ray.pipelines.dedup_pipelines import (
        embed_cosine_pairs,
        ngram_jaccard_pairs,
    )

    rng = np.random.default_rng(7)
    vocab = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta",
             "theta", "iota", "kappa"]
    texts = [" ".join(rng.choice(vocab, size=40)) for _ in range(30)]
    texts[10] = texts[3] + " zeta"          # planted near-dup of 3
    texts[20] = texts[3][: len(texts[3]) - 6]  # planted near-dup of 3
    sf = str(tmp_path)
    pq.write_table(
        pa.table({"doc_id": pa.array(range(30), pa.int64()), "text": texts}),
        str(tmp_path / "documents.parquet"),
    )
    emb = rng.normal(size=(30, 16)).astype(np.float32)
    emb[17] = emb[4] + 0.01 * rng.normal(size=16).astype(np.float32)
    pq.write_table(
        pa.table({"vec_id": pa.array(range(30), pa.int64()),
                  "embedding": pa.array([list(map(float, v)) for v in emb],
                                        pa.list_(pa.float32()))}),
        str(tmp_path / "embeddings.parquet"),
    )

    def rows(t):
        return list(zip(t["a"].to_pylist(), t["b"].to_pylist(),
                        t.column(2).to_pylist()))

    j1 = rows(ngram_jaccard_pairs(sf, threshold=0.5, n_blocks=1))
    j3 = rows(ngram_jaccard_pairs(sf, threshold=0.5, n_blocks=3))
    assert j1 == j3 and {(a, b) for a, b, _ in j1} >= {(3, 10), (3, 20)}
    c1 = rows(embed_cosine_pairs(sf, threshold=0.95, n_blocks=1))
    c4 = rows(embed_cosine_pairs(sf, threshold=0.95, n_blocks=4))
    assert c1 == c4 and [(a, b) for a, b, _ in c1] == [(4, 17)]


def test_simhash_hamming():
    from meilisearch_thai_ray.stages.dedup import SimHasher, hamming64

    t = pa.table({"doc_id": [1, 2, 3], "text": [
        "alpha beta gamma delta epsilon zeta eta theta " * 5,
        "alpha beta gamma delta epsilon zeta eta iota " * 5,
        "one two three four five six seven eight " * 5,
    ]})
    out = SimHasher()(t)
    s = out["simhash"].to_pylist()
    assert hamming64(s[0], s[1]) < hamming64(s[0], s[2])


def test_lsh_candidate_pairs_cap():
    from meilisearch_thai_ray.stages.dedup import lsh_candidate_pairs

    g = pa.table({"doc_id": list(range(300)), "band": [0] * 300,
                  "band_hash": [7] * 300})
    pairs = lsh_candidate_pairs(g, max_bucket=10)
    assert pairs.num_rows == 45  # C(10,2)
    assert all(pairs["capped"].to_pylist())


def test_minhash_pipeline_on_synthetic_dups(ray_session, tmp_path):
    """End-to-end LSH pipeline over a corpus with planted near-duplicates."""
    import pyarrow.parquet as pq

    from meilisearch_thai_ray.pipelines.dedup_pipelines import minhash_pairs

    rng = np.random.default_rng(3)
    vocab = ["data", "index", "search", "thai", "engine", "ray", "batch",
             "shard", "query", "token"]
    texts, ids = [], []
    for i in range(60):
        words = [vocab[j] for j in rng.integers(0, len(vocab), 40)]
        texts.append(" ".join(words))
        ids.append(i)
    # plant 5 near-dup pairs
    for i in range(5):
        texts.append(texts[i].replace("data", "info", 1))
        ids.append(100 + i)
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(
        pa.table({"doc_id": pa.array(ids, pa.int64()),
                  "text": pa.array(texts, pa.string())}),
        str(d / "documents.parquet"),
    )
    pairs = minhash_pairs(str(d), threshold=0.6).to_pandas()
    planted = {(i, 100 + i) for i in range(5)}
    found = set(zip(pairs["a"], pairs["b"]))
    assert planted <= found, f"missing planted pairs: {planted - found}"


def test_incremental_minhash_vs_persisted_index(ray_session, tmp_path):
    """A new crawl deduped against the corpus's PERSISTED band index finds
    exactly the pairs a from-scratch sketch of the union finds (minus the
    (old, old) pairs the id contract excludes), and catches every planted
    re-crawl while ignoring fresh pages."""
    import pyarrow.parquet as pq

    import ray.data
    from meilisearch_thai_ray.pipelines.dedup_pipelines import (
        incremental_minhash_pairs, minhash_pairs_ds, write_minhash_index)

    rng = np.random.default_rng(11)
    vocab = ["data", "index", "search", "thai", "engine", "ray", "batch",
             "shard", "query", "token"]
    corpus_texts = [" ".join(vocab[j] for j in rng.integers(0, 10, 40))
                    for _ in range(50)]
    corpus_path = str(tmp_path / "corpus.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(range(50), pa.int64()),
        "text": pa.array(corpus_texts, pa.string())}), corpus_path)

    base = 1_000_000_000
    new_ids = [base + 0, base + 1, base + 2]
    # small edits: 8-rows/band LSH targets J ~0.8+ recall, so plants sit
    # well above it (J ~0.97) — a J=0.89 plant missed with this seed
    new_texts = [corpus_texts[7] + " v2",                     # re-crawl of 7
                 corpus_texts[23] + " data",                  # re-crawl of 23
                 "totally unrelated fresh page about gardens and rivers "
                 "with words shared by nothing in the corpus at all"]
    # the new crawl is a DIRECTORY of parquet parts (Ray write_parquet
    # shape) — regression: pyarrow.dataset rejects directories inside a
    # path LIST, so JaccardVerify must expand them
    new_path = str(tmp_path / "new_crawl")
    (tmp_path / "new_crawl").mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array(new_ids, pa.int64()),
        "text": pa.array(new_texts, pa.string())}),
        str(tmp_path / "new_crawl" / "part-0.parquet"))

    idx_dir = str(tmp_path / "mh_index")
    write_minhash_index(ray.data.read_parquet(corpus_path), idx_dir)
    got = incremental_minhash_pairs(
        ray.data.read_parquet(new_path), idx_dir, [corpus_path, new_path],
        new_id_min=base, threshold=0.6)
    got_pairs = set(zip(got["a"].to_pylist(), got["b"].to_pylist()))
    assert {(7, base + 0), (23, base + 1)} <= got_pairs
    assert all(b >= base for _a, b in got_pairs)
    assert not any(b == base + 2 for _a, b in got_pairs)

    # identity with a from-scratch sketch of the union, new-side pairs only
    from meilisearch_thai_ray.sources.documents import expand_parquet_paths
    union = ray.data.read_parquet(expand_parquet_paths(
        [corpus_path, new_path]))
    full = minhash_pairs_ds(union, [corpus_path, new_path], threshold=0.6)
    full_pairs = {(a, b) for a, b in zip(full["a"].to_pylist(),
                                         full["b"].to_pylist()) if b >= base}
    assert got_pairs == full_pairs


# ---------------- ANN ----------------

def test_ann_matches_numpy_bruteforce(ray_session):
    import pyarrow.parquet as pq

    import __ray_entry__ as entrymod

    ours = _to_pandas(entrymod.queries()["ann_cosine_topk"](SF))
    t = pq.read_table(f"{SF}/embeddings.parquet")
    mat = np.asarray(t["embedding"].combine_chunks().values, dtype=np.float64)
    mat = mat.reshape(t.num_rows, -1)
    ids = t["vec_id"].to_numpy()
    q = mat[list(ids).index(0)]
    sims = np.round(mat @ q / (np.linalg.norm(mat, axis=1) * np.linalg.norm(q)), 6)
    order = np.lexsort((ids, -sims))[:10]
    assert list(ours["vec_id"]) == [int(ids[i]) for i in order]


def test_lsh_bucket_recall():
    from meilisearch_thai_ray.stages.ann import LshBucketAssign

    rng = np.random.default_rng(5)
    base = rng.standard_normal(32)
    lsh = LshBucketAssign(dim=32, nbits=8)
    near = base + rng.standard_normal(32) * 0.01
    assert lsh.bucket_of(base) == lsh.bucket_of(near)


# ---------------- filter DSL ----------------

def test_filter_dsl_ops():
    from meilisearch_thai_ray.stages.filter_dsl import compile_filter, dsl_to_sql

    e = compile_filter({"lang": "en", "n": {"$gte": 3}, "x": {"$exists": True}})
    assert e is not None
    assert dsl_to_sql({"lang": {"$in": ["a", "b'c"]}}) == "lang IN ('a', 'b''c')"
    with pytest.raises(ValueError):
        compile_filter({"f": {"$regex": "x"}})


# ---------------- multimodal ----------------

def test_multimodal_stub():
    from meilisearch_thai_ray.stages.multimodal import ImageDecodeStub, attach_payload

    t = pa.table({"doc_id": [1, 2], "text": ["hello", "world!"]})
    withp = attach_payload(t)
    out = ImageDecodeStub()(withp)
    assert out.column_names == ["doc_id", "height", "width", "channels", "resized_to"]
    assert out["channels"].to_pylist() == [3, 3]
    with pytest.raises(NotImplementedError):
        ImageDecodeStub(real_codec=True)


def test_mean_pool_resize_matches_bruteforce():
    """The strided mean-pool must equal a per-cell Python mean over the REAL
    (unpadded) pixels — the edge-fraction correction is the part under test."""
    import numpy as np

    from meilisearch_thai_ray.stages.multimodal import mean_pool_resize

    img = (np.arange(7 * 9 * 3) % 251).reshape(7, 9, 3).astype(np.uint8)
    t = 4
    out = mean_pool_resize(img, t)
    assert out.shape == (t, t, 3)
    bh, bw = 2, 3  # ceil(7/4)*4=8 -> 8//4=2 ; ceil(9/4)*4=12 -> 12//4=3
    for i in range(t):
        for j in range(t):
            cell = img[i * bh:min((i + 1) * bh, 7), j * bw:min((j + 1) * bw, 9)]
            exp = cell.reshape(-1, 3).mean(axis=0) if cell.size else np.zeros(3)
            np.testing.assert_allclose(out[i, j], exp, atol=1e-9)


def test_image_features_deterministic_chain():
    import numpy as np

    from meilisearch_thai_ray.stages.multimodal import ImageFeatures, attach_payload

    t = pa.table({"doc_id": [1, 2], "text": ["hello multimodal", "ภาษาไทยจ้า"]})
    fe = ImageFeatures(embed_t=4)
    out1, out2 = fe(attach_payload(t)), fe(attach_payload(t))
    assert out1.equals(out2)  # deterministic
    assert out1.column_names == ["doc_id", "mean_r", "mean_g", "mean_b", "embedding"]
    emb = out1["embedding"].to_pylist()
    assert all(len(e) == 16 for e in emb)
    assert all(0.0 <= v <= 1.0 for e in emb for v in e)
    means = np.array([out1["mean_r"].to_pylist(), out1["mean_g"].to_pylist()])
    assert ((means >= 0) & (means <= 255)).all()
    with pytest.raises(NotImplementedError):
        ImageFeatures(real_codec=True)


def test_frame_sampler_layout():
    from meilisearch_thai_ray.stages.multimodal import FrameSampler

    batch = pa.table({
        "doc_id": pa.array([7, 8], pa.int64()),
        "payload": pa.array([b"x" * 1000, b""], pa.binary()),
    })
    out = FrameSampler(frame_bytes=100, stride=2)(batch)
    by_doc = {7: [], 8: []}
    for d, f, o in zip(out["doc_id"].to_pylist(), out["frame"].to_pylist(),
                       out["byte_offset"].to_pylist()):
        by_doc[d].append((f, o))
    assert by_doc[7] == [(0, 0), (2, 200), (4, 400), (6, 600), (8, 800)]
    assert by_doc[8] == [(0, 0)]  # empty payload still yields one frame row


def test_mm_embed_topk(ray_session):
    """MM2 end-to-end: binary payload -> ImageFeatures actor pool -> partial
    cosine top-k -> driver merge. Doc 1 (the query doc) must score 1.0."""
    from meilisearch_thai_ray.pipelines.simple_text import mm_embed_topk

    out = mm_embed_topk("/root/testdata/sf0.001", k=5)
    assert out.column_names == ["doc_id", "sim"]
    assert out.num_rows == 5
    sims = dict(zip(out["doc_id"].to_pylist(), out["sim"].to_pylist()))
    assert sims[1] == 1.0
    assert out["sim"].to_pylist() == sorted(out["sim"].to_pylist(), reverse=True)


def test_lang_id_thai_vs_english():
    from meilisearch_thai_ray.stages.text_stats import LangId

    t = pa.table({"doc_id": [1, 2], "text": [
        "ภาษาไทยล้วนทั้งประโยคเลยนะครับ",
        "the cat sat on the mat and it is good",
    ]})
    out = LangId()(t)
    assert out["pred_lang"].to_pylist() == ["th", "en"]


def test_json_document_ingest(ray_session, tmp_path):
    """S1: {id,title,content,metadata} docs -> pages-shaped rows -> full build."""
    import json as _json

    from meilisearch_thai_ray.config import EngineConfig
    from meilisearch_thai_ray.index.build import build_index
    from meilisearch_thai_ray.index.search import SearchEngine
    from meilisearch_thai_ray.sources.documents import (
        from_document_list,
        read_documents_jsonl,
    )

    docs = [
        {"id": "tech_001", "title": "ปัญญาประดิษฐ์", "content": "เทคโนโลยีปัญญาประดิษฐ์ในประเทศไทย",
         "metadata": {"category": "technology"}},
        {"id": "food_001", "title": "อาหารญี่ปุ่น", "content": "สาหร่ายวากาเมะและซูชิ",
         "metadata": {"category": "food"}},
    ]
    p = tmp_path / "docs.jsonl"
    p.write_text("\n".join(_json.dumps(d, ensure_ascii=False) for d in docs), encoding="utf-8")

    ds = read_documents_jsonl(str(p))
    # Ray Data does not preserve row order: key the rows by url
    rows = {r["url"]: r for r in ds.take_all()}
    assert sorted(rows) == ["doc://food_001", "doc://tech_001"]
    assert ds.count() == 2
    assert rows["doc://tech_001"]["text"].startswith("ปัญญาประดิษฐ์\n")

    pages_dir = tmp_path / "pages"
    ds2 = from_document_list(docs)
    ds2.write_parquet(str(pages_dir))
    out = tmp_path / "idx"
    build_index(str(pages_dir), str(out), EngineConfig(num_shards=2))
    eng = SearchEngine(str(out))
    hits = eng.search("สาหร่ายวากาเมะ")
    assert len(hits) == 1

    with pytest.raises(ValueError):
        from_document_list([{"title": "no id"}])


def test_embedding_neardup_planted(ray_session, tmp_path):
    """Embedding-cosine near-dup finds planted near-identical vectors."""
    import pyarrow.parquet as pq

    from meilisearch_thai_ray.pipelines.dedup_pipelines import embedding_neardup_pairs

    rng = np.random.default_rng(11)
    base = rng.standard_normal((50, 16)).astype(np.float32)
    # plant 5 near-dups: tiny perturbations of the first five vectors
    dups = base[:5] + rng.standard_normal((5, 16)).astype(np.float32) * 0.01
    mat = np.vstack([base, dups])
    ids = list(range(50)) + [100 + i for i in range(5)]
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(
        pa.table({"vec_id": pa.array(ids, pa.int64()),
                  "embedding": pa.array([list(map(float, v)) for v in mat],
                                        pa.list_(pa.float32()))}),
        str(d / "embeddings.parquet"),
    )
    pairs = embedding_neardup_pairs(str(d), threshold=0.95).to_pandas()
    found = set(zip(pairs["a"], pairs["b"]))
    planted = {(i, 100 + i) for i in range(5)}
    assert planted <= found, planted - found
    assert (pairs["cos"] >= 0.95).all()


def test_ivf_recall_vs_bruteforce(ray_session):
    """IVF with nprobe=4/8 lists approximates brute force; full probe == exact."""
    import pyarrow.parquet as pq

    from meilisearch_thai_ray.stages.ann import IvfAssign, ivf_search, kmeans_fit

    t = pq.read_table(f"{SF}/embeddings.parquet")
    mat = np.asarray(t["embedding"].combine_chunks().values, dtype=np.float64)
    mat = mat.reshape(t.num_rows, -1)
    ids = t["vec_id"].to_numpy()
    q = mat[list(ids).index(0)]

    cents = kmeans_fit(mat[:200], k=8)
    listed = IvfAssign(cents)(t)
    assert set(listed["ivf_list"].to_pylist()) <= set(range(8))

    # exact ground truth
    sims = np.round(mat @ (q / np.linalg.norm(q))
                    / np.linalg.norm(mat, axis=1), 6)
    exact = [int(ids[i]) for i in np.lexsort((ids, -sims))[:10]]

    full = ivf_search(listed, cents, q, k=10, nprobe=8)  # probe all lists
    assert full["vec_id"].to_pylist() == exact
    part = ivf_search(listed, cents, q, k=10, nprobe=4)
    recall = len(set(part["vec_id"].to_pylist()) & set(exact)) / 10
    assert recall >= 0.5  # approximate path finds most of the exact top-10

def test_minhash_distributed_verify_identity(ray_session, tmp_path):
    """The distributed verify stage (candidate-pair Dataset -> JaccardVerify
    actor pool) returns EXACTLY the pair set + jaccard values of a driver-side
    oracle loop (the round-1 implementation, reproduced here)."""
    import pyarrow.parquet as pq

    from meilisearch_thai_ray.pipelines.dedup_pipelines import minhash_pairs
    from meilisearch_thai_ray.stages.dedup import MinHasher, _shingle_hashes

    rng = np.random.default_rng(17)
    vocab = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta",
             "theta", "iota", "kappa"]
    texts, ids = [], []
    for i in range(80):
        texts.append(" ".join(vocab[j] for j in rng.integers(0, len(vocab), 50)))
        ids.append(i)
    for i in range(8):  # planted near-dups
        texts.append(texts[i].replace(vocab[i % len(vocab)], "changed", 1))
        ids.append(200 + i)
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(
        pa.table({"doc_id": pa.array(ids, pa.int64()),
                  "text": pa.array(texts, pa.string())}),
        str(d / "documents.parquet"),
    )

    # --- driver-side oracle (round-1 semantics) ---
    mh = MinHasher()
    buckets: dict = {}
    for doc, txt in zip(ids, texts):
        for band, h in enumerate(mh.band_hashes(mh.signature(txt))):
            buckets.setdefault((band, int(h)), []).append(doc)
    cand = set()
    for members in buckets.values():
        m = sorted(set(members))[:200]
        for i in range(len(m)):
            for j in range(i + 1, len(m)):
                cand.add((m[i], m[j]))
    shingles = {doc: set(_shingle_hashes(txt).tolist())
                for doc, txt in zip(ids, texts)}
    expected = set()
    for a, b in cand:
        sa, sb = shingles[a], shingles[b]
        union = len(sa | sb)
        j = (len(sa & sb) / union) if union else 1.0
        if j >= 0.6:
            expected.add((a, b, round(j, 6)))

    got = minhash_pairs(str(d), threshold=0.6)
    got_set = set(zip(got["a"].to_pylist(), got["b"].to_pylist(),
                      got["jaccard"].to_pylist()))
    assert got_set == expected
    assert len(expected) >= 8  # the planted pairs are actually in there


def test_embedding_bucket_pairs_capped():
    """A degenerate LSH bucket (mass-identical embeddings) is capped, reported
    via the `capped` column, and completes in bounded work."""
    from meilisearch_thai_ray.pipelines.dedup_pipelines import bucket_cosine_pairs

    n = 300
    vec = [0.5, -1.0, 2.0, 0.25]
    g = pa.table({
        "vec_id": pa.array(list(range(n)), pa.int64()),
        "embedding": pa.array([vec] * n, pa.list_(pa.float32())),
        "bucket": pa.array([7] * n, pa.int64()),
    })
    out = bucket_cosine_pairs(g, threshold=0.9, max_bucket=20)
    assert out.num_rows == 190  # C(20,2)
    assert all(out["capped"].to_pylist())
    assert all(c >= 0.999999 for c in out["cos"].to_pylist())


def test_embedding_neardup_planted_fixture_nonempty(ray_session):
    """On the driver's synthetic embeddings (no natural near-dups) the planted
    fixture guarantees nonzero output; every planted pair is recognizable."""
    from meilisearch_thai_ray.pipelines.dedup_pipelines import (
        PLANT_ID_BASE,
        embedding_neardup_pairs,
    )

    pairs = embedding_neardup_pairs(SF, plant=True).to_pandas()
    assert len(pairs) > 0
    planted = pairs[pairs["b"] >= PLANT_ID_BASE]
    assert len(planted) > 0
    assert (planted["b"] - PLANT_ID_BASE == planted["a"]).all()
    assert (planted["cos"] >= 0.999999).all()

def test_batch_query_eval_identical_to_serial(ray_session):
    """The Ray actor-pool query evaluation returns exactly the serial loop's
    rows, in the same order (engine and proxy paths)."""
    from meilisearch_thai_ray.pipelines.flagship import (
        flagship_proxy_search,
        flagship_proxy_search_serial,
        flagship_search,
        flagship_search_serial,
    )

    assert flagship_search(SF).equals(flagship_search_serial(SF))
    assert flagship_proxy_search(SF).equals(flagship_proxy_search_serial(SF))

def test_fnv_batch_vectorized_identity():
    """Column-wise FNV kernel is bit-identical to the scalar reference,
    including multi-byte UTF-8, empties, bytes input and long outliers."""
    from meilisearch_thai_ray.functions.hashing import fnv1a64, fnv1a64_batch

    cases = ["", "a", "hello world", "สาหร่ายวากาเมะ", "x" * 300, "ยาว" * 200,
             "mixed ไทย ascii", b"raw\x00bytes", "​"]
    got = fnv1a64_batch(cases)
    assert [int(x) for x in got] == [fnv1a64(c) for c in cases]
    assert len(fnv1a64_batch([])) == 0


def test_simhash_vectorized_identity():
    """Vectorized SimHasher == scalar per-token reference implementation."""
    from meilisearch_thai_ray.functions.hashing import fnv1a64
    from meilisearch_thai_ray.stages.dedup import SimHasher

    rng = np.random.default_rng(23)
    vocab = ["alpha", "beta", "gamma", "ไทย", "wakame", "x", ""]
    texts = [" ".join(vocab[j] for j in rng.integers(0, len(vocab), rng.integers(1, 30)))
             for _ in range(40)] + ["", "single"]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    out = SimHasher()(t)

    # scalar reference (round-1 implementation)
    shifts = np.arange(64, dtype=np.uint64)
    expected = []
    for txt in texts:
        hs = np.fromiter((fnv1a64(tok) for tok in txt.split(" ")), dtype=np.uint64)
        bits = (hs[:, None] >> shifts[None, :]) & np.uint64(1)
        acc = (2 * bits.astype(np.int64) - 1).sum(axis=0)
        expected.append(int(((acc > 0).astype(np.uint64) << shifts).sum(dtype=np.uint64)))
    got = [x & 0xFFFFFFFFFFFFFFFF for x in
           np.asarray(out["simhash"].to_pylist(), dtype=np.int64).astype(np.uint64).tolist()]
    assert got == expected

def test_cache_key_tracks_input_identity(ray_session, tmp_path):
    """Mutating the input parquet under the SAME path must produce a
    different cache directory (stale-index guard)."""
    import shutil
    import time as _time

    import pyarrow.parquet as pq

    from meilisearch_thai_ray.pipelines.simple_text import (
        input_fingerprint,
        simple_index_dir,
    )

    d = tmp_path / "sf"
    d.mkdir()
    shutil.copy(f"{SF}/documents.parquet", str(d / "documents.parquet"))
    fp1 = input_fingerprint(str(d / "documents.parquet"))
    out1 = simple_index_dir(str(d))
    _time.sleep(0.01)
    t = pq.read_table(str(d / "documents.parquet"))
    pq.write_table(t.slice(0, 100), str(d / "documents.parquet"))  # mutate
    fp2 = input_fingerprint(str(d / "documents.parquet"))
    assert fp1 != fp2
    out2 = simple_index_dir(str(d))
    assert out1 != out2  # rebuild triggered, no stale serve

def test_ivf_distributed_partial_probe_recall(ray_session):
    """The distributed IVF pipeline at nprobe=4/16 finds most of the exact
    top-10 (the approximate scale path); full probe is covered by the SQL
    oracle parity test."""
    from meilisearch_thai_ray.pipelines.simple_text import (
        ann_cosine_topk,
        ann_ivf_topk,
    )

    exact = set(ann_cosine_topk(SF)["vec_id"].to_pylist())
    approx = set(ann_ivf_topk(SF, nprobe=4)["vec_id"].to_pylist())
    assert len(exact & approx) / 10 >= 0.5

def test_jaccard_verify_eviction_keeps_current_batch(tmp_path):
    """Cache eviction happens BEFORE computing the fetch set: a batch whose
    docs were partly cached must still verify all its pairs after eviction."""
    import pyarrow.parquet as pq

    from meilisearch_thai_ray.stages.dedup import JaccardVerify

    text = "identical content repeated for every doc " * 5
    pq.write_table(
        pa.table({"doc_id": pa.array([1, 2, 3], pa.int64()),
                  "text": pa.array([text, text, text], pa.string())}),
        str(tmp_path / "documents.parquet"),
    )
    v = JaccardVerify(str(tmp_path / "documents.parquet"), threshold=0.9,
                      cache_cap=0)  # evict on every batch
    out1 = v(pa.table({"a": pa.array([1], pa.int64()),
                       "b": pa.array([2], pa.int64())}))
    assert out1.num_rows == 1
    # doc 1 is now cached; cap=0 forces eviction — pair (1, 3) must survive
    out2 = v(pa.table({"a": pa.array([1], pa.int64()),
                       "b": pa.array([3], pa.int64())}))
    assert out2.num_rows == 1


def test_pack_sequences_invariants(ray_session):
    """Every interior window is exactly full; spans tile the stream with no
    gaps; per-doc token mass equals the independent per-doc count."""
    import re

    from meilisearch_thai_ray.pipelines.packing import (
        SEP_TOKENS, pack_sequences)
    from meilisearch_thai_ray.pipelines.simple_text import BPE_ISH_PATTERN

    seq_len = 64
    out = pack_sequences(SF, seq_len=seq_len, bucket_size=16).to_pandas()
    assert (out["tok_in_chunk"] > 0).all()
    assert (out["start_in_chunk"] >= 0).all()
    assert (out["start_in_chunk"] + out["tok_in_chunk"] <= seq_len).all()

    per_chunk = out.groupby("chunk_id")["tok_in_chunk"].sum()
    last = per_chunk.index.max()
    assert (per_chunk.drop(last) == seq_len).all()
    assert 0 < per_chunk[last] <= seq_len

    rx = re.compile(BPE_ISH_PATTERN)
    docs = pd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    expect = {int(r.doc_id): len(rx.findall(r.text)) + SEP_TOKENS
              for r in docs.itertuples()}
    got = out.groupby("doc_id")["tok_in_chunk"].sum().to_dict()
    assert {int(k): int(v) for k, v in got.items()} == expect


def test_pack_tokens_consistent_with_pack_sequences(ray_session):
    """P2's materialized stream agrees with P1's span table: identical
    per-(doc-window) token masses per chunk, every position filled exactly
    once, no position collisions."""
    from meilisearch_thai_ray.pipelines.packing import (
        pack_sequences, pack_tokens)

    seq_len = 64
    p1 = pack_sequences(SF, seq_len=seq_len, bucket_size=32).to_pandas()
    p2 = pack_tokens(SF, seq_len=seq_len, bucket_size=32).to_pandas()
    assert len(p2) == p1["tok_in_chunk"].sum()
    assert not p2.duplicated(["chunk_id", "pos"]).any()
    m1 = p1.groupby("chunk_id")["tok_in_chunk"].sum().to_dict()
    m2 = p2.groupby("chunk_id").size().to_dict()
    assert m1 == m2


def test_big_orders_empty_tail_is_typed_empty(ray_session):
    """A threshold above the global max quantity sum yields zero qualifying
    orders: the operator must return the full 6-column schema, not raise or
    degrade to a schemaless empty."""
    from meilisearch_thai_ray.pipelines.olap import big_orders

    out = big_orders(SF, threshold=10_000)
    assert out.num_rows == 0
    assert out.column_names == ["c_name", "c_custkey", "o_orderkey",
                                "o_orderdate", "o_totalprice", "total_qty"]
    assert out.schema.field("o_orderdate").type == pa.timestamp("us")


def test_q5_star_join_boundary_merge_under_tiny_blocks(ray_session, con):
    """Force the sort to emit many tiny blocks so nearly every order lands
    in a block-boundary segment: the driver's exact boundary merge must
    still reproduce the DuckDB 6-table join cell for cell."""
    import ray.data

    from meilisearch_thai_ray.pipelines.simple_text import (
        SQL, q5_region_revenue)

    ctx = ray.data.DataContext.get_current()
    saved = ctx.target_max_block_size
    ctx.target_max_block_size = 16 * 1024  # ~a few hundred rows per block
    try:
        got = _canon(q5_region_revenue(SF).to_pandas())
    finally:
        ctx.target_max_block_size = saved
    exp = _canon(con.execute(SQL["j12_star_join"]).fetchdf())
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_weighted_sample_inclusion_tracks_weight(ray_session, tmp_path):
    """E-S keys: with weights 1000 vs 10, the heavy half must dominate the
    sample (deterministic given doc_ids, so this asserts the estimator's
    bias, not luck), and the selection is idempotent across runs."""
    import pyarrow.parquet as pq

    from meilisearch_thai_ray.pipelines.simple_text import weighted_sample

    n_each = 500
    t = pa.table({
        "doc_id": pa.array(range(2 * n_each), pa.int64()),
        "lang": pa.array(["en"] * (2 * n_each)),
        "n_chars": pa.array([1000] * n_each + [10] * n_each, pa.int64()),
    })
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(t, sf / "documents.parquet")
    s1 = weighted_sample(str(sf), n=100).to_pandas()
    s2 = weighted_sample(str(sf), n=100).to_pandas()
    pd.testing.assert_frame_equal(s1, s2)  # deterministic / resume-safe
    assert len(s1) == 100 and not s1["doc_id"].duplicated().any()
    heavy = (s1["n_chars"] == 1000).mean()
    assert heavy > 0.85, f"heavy-weight inclusion only {heavy:.2f}"


def test_embedding_neardup_bucket_runs_span_blocks(ray_session, tmp_path):
    """Two LSH buckets whose runs span MANY sorted blocks (60 identical
    vectors each over 6 input files): the interior/boundary split must
    still emit exactly every within-bucket pair once."""
    import itertools

    import pyarrow.parquet as pq

    from meilisearch_thai_ray.pipelines.dedup_pipelines import (
        embedding_neardup_pairs)

    va = np.zeros(16); va[0] = 1.0
    vb = np.zeros(16); vb[1] = 1.0
    d = tmp_path / "sf"
    d.mkdir()
    (d / "embeddings.parquet").mkdir()
    for f in range(6):
        ids, vecs = [], []
        for i in range(20):
            vid = f * 20 + i
            ids.append(vid)
            vecs.append(list(va if vid % 2 == 0 else vb))
        pq.write_table(
            pa.table({"vec_id": pa.array(ids, pa.int64()),
                      "embedding": pa.array(vecs, pa.list_(pa.float32()))}),
            str(d / "embeddings.parquet" / f"part-{f}.parquet"))
    pairs = embedding_neardup_pairs(str(d), threshold=0.99).to_pandas()
    found = set(zip(pairs["a"], pairs["b"]))
    evens = [i for i in range(120) if i % 2 == 0]
    odds = [i for i in range(120) if i % 2 == 1]
    expect = set(itertools.combinations(evens, 2)) | \
        set(itertools.combinations(odds, 2))
    assert found == expect
    assert len(pairs) == len(expect)  # each pair exactly once


def test_audio_features_dsp_kernels_are_real():
    """AudioFeatures over a synthetic square-ish tone: RMS, ZCR and the
    spectral centroid land where DSP says they must."""
    from meilisearch_thai_ray.stages.multimodal import (
        AudioFeatures, _fake_pcm)

    n, period = 4096, 16
    # alternating blocks of 255/0 -> square wave, |pcm| ~ 127/128
    wave = bytes(255 if (i // (period // 2)) % 2 == 0 else 0
                 for i in range(n))
    t = pa.table({"doc_id": pa.array([1], pa.int64()),
                  "payload": pa.array([wave], pa.binary())})
    out = AudioFeatures(bins=8)(t)
    rms = out["rms"][0].as_py()
    zcr = out["zero_cross_rate"][0].as_py()
    cent = out["spectral_centroid"][0].as_py()
    assert abs(rms - 127.5 / 128.0) < 0.01
    # a square wave of period 16 crosses zero twice per period
    assert abs(zcr - 2.0 / period) < 0.01
    # fundamental at bin n/period; harmonics push the centroid higher
    assert cent >= n / period * 0.9
    emb = out["embedding"][0].as_py()
    assert len(emb) == 8 and all(v >= 0 for v in emb)
    # empty payload is safe
    empty = AudioFeatures()(pa.table({
        "doc_id": pa.array([2], pa.int64()),
        "payload": pa.array([b""], pa.binary())}))
    assert empty["rms"][0].as_py() == 0.0


def test_audio_chunker_offsets_and_tail():
    from meilisearch_thai_ray.stages.multimodal import AudioChunker

    t = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                  "payload": pa.array([b"x" * 2500, b"y" * 100],
                                      pa.binary())})
    out = AudioChunker(chunk_bytes=1024, min_tail=128)(t).to_pandas()
    d1 = out[out["doc_id"] == 1]
    # 2500 bytes -> chunks at 0/1024/2048; tail (452 >= min_tail) kept
    assert d1["byte_offset"].tolist() == [0, 1024, 2048]
    assert d1["n_bytes"].tolist() == [1024, 1024, 452]
    d2 = out[out["doc_id"] == 2]  # short clip: one (partial) chunk
    assert d2["byte_offset"].tolist() == [0]
    assert d2["n_bytes"].tolist() == [100]
    # a 1040-byte clip's 16-byte tail is dropped (< min_tail)
    t3 = pa.table({"doc_id": pa.array([3], pa.int64()),
                   "payload": pa.array([b"z" * 1040], pa.binary())})
    o3 = AudioChunker(chunk_bytes=1024, min_tail=128)(t3).to_pandas()
    assert o3["byte_offset"].tolist() == [0]


def test_mm_audio_pipeline_rows(ray_session):
    from meilisearch_thai_ray.pipelines.simple_text import (
        mm_audio_chunks, mm_audio_features)

    feats = mm_audio_features(SF).to_pandas()
    assert len(feats) == 500
    assert set(feats.columns) == {"doc_id", "rms", "zero_cross_rate",
                                  "spectral_centroid", "embedding"}
    assert feats["embedding"].map(len).eq(8).all()
    chunks = mm_audio_chunks(SF).to_pandas()
    assert len(chunks) >= 500
    assert (chunks.groupby("doc_id")["chunk"].min() == 0).all()


def _banded_pair(p_frac, rng):
    """Two ~200-word docs sharing the first p_frac of their words — the
    byte-shingle Jaccard is a deterministic function of p_frac (see
    test_band_preset_recall_curve's measured bins)."""
    letters = list("abcdefghijklmnopqrstuvwxyz")
    words = ["".join(rng.choice(letters, size=7)) for _ in range(200)]
    keep = int(200 * p_frac)
    fresh = ["".join(rng.choice(letters, size=7)) for _ in range(200 - keep)]
    return " ".join(words), " ".join(words[:keep] + fresh)


def test_band_preset_recall_curve():
    """Measured LSH recall over planted pairs at J~{0.80, 0.85, 0.90}:
    the 'near' preset (4 rows/band, S-curve midpoint ~0.5) recalls >= 0.9
    at every bin — the J>=0.8 near-dups LLM curation targets — while the
    default 'strict' preset (8 rows/band, midpoint ~0.77) trades recall at
    J~0.8 for a far lower false-candidate rate. Deterministic (fixed
    seeds); measured values: strict 0.825/0.925/0.9625, near 1.0/1.0/1.0."""
    from meilisearch_thai_ray.stages.dedup import (
        BAND_PRESETS, MinHasher, jaccard)

    hashers = {name: MinHasher(num_perm=n, bands=b)
               for name, (n, b) in BAND_PRESETS.items()}
    recalls = {}
    for p_frac, j_bin in [(0.89, 0.80), (0.92, 0.85), (0.945, 0.90)]:
        rng = np.random.default_rng(1234)
        pairs = [_banded_pair(p_frac, rng) for _ in range(80)]
        j_mean = np.mean([jaccard(a, b) for a, b in pairs])
        assert abs(j_mean - j_bin) < 0.02  # the plant hit its bin
        for name, h in hashers.items():
            hits = sum(
                int((h.band_hashes(h.signature(a))
                     == h.band_hashes(h.signature(b))).any())
                for a, b in pairs)
            recalls[(name, j_bin)] = hits / len(pairs)
    # the preset's contract: recall >= 0.9 at J = 0.85 (and the whole bin
    # range) for 'near'
    for j_bin in (0.80, 0.85, 0.90):
        assert recalls[("near", j_bin)] >= 0.9, recalls
    # strict stays a high-precision J>~0.9 dedup: high recall there, and
    # measurably below 'near' at J~0.8 (the S-curve gap the preset exists
    # to close)
    assert recalls[("strict", 0.90)] >= 0.9, recalls
    assert recalls[("strict", 0.80)] < recalls[("near", 0.80)], recalls


def test_minhash_near_preset_pipeline(ray_session, tmp_path):
    """The preset plumbs through the distributed pipeline: a planted
    J~0.85 pair is found by preset='near' over a small corpus."""
    import pyarrow.parquet as pq

    from meilisearch_thai_ray.pipelines.dedup_pipelines import (
        minhash_pairs_ds)

    rng = np.random.default_rng(7)
    a, b = _banded_pair(0.92, rng)
    letters = list("abcdefghijklmnopqrstuvwxyz")
    fillers = [" ".join("".join(rng.choice(letters, size=7))
                        for _ in range(60)) for _ in range(40)]
    t = pa.table({
        "doc_id": pa.array(list(range(42)), pa.int64()),
        "text": pa.array([a, b] + fillers, pa.string()),
    })
    path = str(tmp_path / "docs.parquet")
    pq.write_table(t, path)
    import ray.data

    got = minhash_pairs_ds(ray.data.from_arrow(t), path, threshold=0.8,
                           preset="near")
    pairs = set(zip(got["a"].to_pylist(), got["b"].to_pylist()))
    assert (0, 1) in pairs


def test_pool_caps_follow_cluster_resources(monkeypatch):
    """pool_cap/block_count keep the tuned single-node floor on small
    sessions and scale with ray.cluster_resources() on larger clusters
    (VM-tuned constants must not starve a multi-node deployment)."""
    import ray

    from meilisearch_thai_ray.functions import resources

    # small session (the pytest fixture runs 4 CPUs): floor wins
    assert resources.pool_cap(8) == 8
    assert resources.pool_cap(12) == 12

    monkeypatch.setattr(ray, "is_initialized", lambda: True)
    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 512.0})
    assert resources.pool_cap(8) == 256  # fraction 0.5 of 512
    assert resources.pool_cap(8, ceiling=64) == 64
    assert resources.block_count(1_000_000, 750) == 128  # cluster ceiling
    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 32.0})
    assert resources.pool_cap(8) == 16
    assert resources.block_count(100_000, 750) == 32  # single-node ceiling
    assert resources.block_count(1000, 750) == 4  # floor


def test_kmeans_hash_init_beats_head_init_on_sorted_input(ray_session):
    """hash_sample_matrix draws uniformly over the WHOLE corpus regardless
    of input order: on a cluster-sorted input (head blocks = one tight
    cluster) the old limit()-head init seeds every centroid inside one
    cluster; the hash-sample init covers all of them. Also asserts the
    sample is invariant to repartitioning (block layout independence)."""
    import ray.data

    from meilisearch_thai_ray.stages.ann import (
        hash_sample_matrix, kmeans_fit_distributed)

    rng = np.random.default_rng(5)
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]])
    # SORTED by cluster: the first 512 rows all belong to cluster 0
    vecs = np.concatenate([
        centers[i] + rng.normal(0, 0.05, size=(512, 2)) for i in range(4)])
    t = pa.table({
        "vec_id": pa.array(np.arange(len(vecs)), pa.int64()),
        "embedding": pa.array([v.tolist() for v in vecs],
                              pa.list_(pa.float64())),
    })
    ds = ray.data.from_arrow(t)

    sample = hash_sample_matrix(ds, 256)
    # corpus-wide: every true cluster contributes to the sample
    for c in centers:
        assert (np.linalg.norm(sample - c, axis=1) < 1.0).any()
    # block-layout invariance
    sample2 = hash_sample_matrix(ds.repartition(8), 256)
    assert np.array_equal(np.sort(sample, axis=0), np.sort(sample2, axis=0))

    cents = kmeans_fit_distributed(ds, k=4, iters=6)
    # every true center has a fitted centroid nearby — impossible from a
    # head-block sample (all four seeds would sit in cluster 0)
    for c in centers:
        assert (np.linalg.norm(cents - c, axis=1) < 1.0).any()


def test_cluster_for_verify_preserves_pair_set(ray_session):
    """_cluster_for_verify only reorders candidate pairs (narrow id windows
    per verify batch); the pair SET is untouched."""
    import ray.data

    from meilisearch_thai_ray.pipelines.dedup_pipelines import (
        _cluster_for_verify)

    rng = np.random.default_rng(11)
    a = rng.integers(0, 1_000_000, size=9000).astype(np.int64)
    b = a + rng.integers(1, 1_000, size=9000).astype(np.int64)
    t = pa.table({"a": pa.array(a), "b": pa.array(b)})
    cand = ray.data.from_arrow(t).materialize()
    out = _cluster_for_verify(cand, 9000)
    got = pa.concat_tables([bt for bt in out.iter_batches(
        batch_format="pyarrow")])
    assert set(zip(got["a"].to_pylist(), got["b"].to_pylist())) == \
        set(zip(a.tolist(), b.tolist()))


def test_semdedup_planted(ray_session, tmp_path):
    """SemDeDup drops planted near-identical vectors (keeping the lowest
    vec_id) and keeps everything else, at any cluster count — the planted
    pair always lands in ONE cluster because the clones are near-identical
    points in embedding space."""
    import pyarrow.parquet as pq

    from meilisearch_thai_ray.pipelines.dedup_pipelines import semdedup

    rng = np.random.default_rng(7)
    base = rng.standard_normal((60, 16)).astype(np.float32)
    dups = base[:6] + rng.standard_normal((6, 16)).astype(np.float32) * 0.005
    mat = np.vstack([base, dups])
    ids = list(range(60)) + [200 + i for i in range(6)]
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(
        pa.table({"vec_id": pa.array(ids, pa.int64()),
                  "embedding": pa.array([list(map(float, v)) for v in mat],
                                        pa.list_(pa.float32()))}),
        str(d / "embeddings.parquet"),
    )
    for k in (2, 8):
        kept = semdedup(str(d), k=k, threshold=0.95).to_pandas()
        assert sorted(kept["vec_id"]) == list(range(60)), k
        # cluster assignment of kept rows is a valid centroid index
        assert kept["cluster"].between(0, k - 1).all()


def test_semdedup_loser_rule_chain(ray_session, tmp_path):
    """The documented loser rule: any vector similar to a LOWER id drops.
    For a chain a~b, b~c (a !~ c is impossible with cosine>=0.95 identical
    vectors, so use exact copies): copies all drop, original stays."""
    import pyarrow.parquet as pq

    from meilisearch_thai_ray.pipelines.dedup_pipelines import semdedup

    rng = np.random.default_rng(3)
    base = rng.standard_normal((20, 8)).astype(np.float32)
    mat = np.vstack([base, base[3:4], base[3:4]])  # two exact copies of id 3
    ids = list(range(20)) + [50, 51]
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(
        pa.table({"vec_id": pa.array(ids, pa.int64()),
                  "embedding": pa.array([list(map(float, v)) for v in mat],
                                        pa.list_(pa.float32()))}),
        str(d / "embeddings.parquet"),
    )
    kept = semdedup(str(d), k=2, threshold=0.99).to_pandas()
    assert sorted(kept["vec_id"]) == list(range(20))


def test_pq_adc_recall_vs_bruteforce(ray_session, tmp_path):
    """PQ/ADC top-k recalls most of the brute-force top-k, and the encoded
    corpus is m bytes/vector. sub_dim=2 codebooks on 16-dim vectors with
    256 codes are near-lossless on 400 points, so recall@10 should be
    high — assert a conservative floor plus determinism."""
    import pyarrow.parquet as pq

    from meilisearch_thai_ray.pipelines.simple_text import (
        ann_cosine_topk, ann_pq_topk)

    rng = np.random.default_rng(5)
    mat = rng.standard_normal((400, 16)).astype(np.float32)
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(
        pa.table({"vec_id": pa.array(range(400), pa.int64()),
                  "embedding": pa.array([list(map(float, v)) for v in mat],
                                        pa.list_(pa.float32()))}),
        str(d / "embeddings.parquet"),
    )
    exact = set(ann_cosine_topk(str(d), k=10)["vec_id"].to_pylist())
    approx1 = ann_pq_topk(str(d), k=10, m=8)
    approx2 = ann_pq_topk(str(d), k=10, m=8)
    assert approx1.equals(approx2)  # deterministic end to end
    got = set(approx1["vec_id"].to_pylist())
    assert len(exact & got) >= 7, (exact, got)
    # the query vector itself (vec_id 0) must rank first
    assert approx1["vec_id"][0].as_py() == 0


def test_ivfpq_composed_recall_and_full_probe_identity(ray_session,
                                                       tmp_path):
    """IVF+PQ composition (r3 verdict #5): at nprobe == nlist the
    list-pruned read covers everything, so the result must EQUAL flat ADC
    bit-for-bit (same deterministic codebooks); at nprobe < nlist the
    scan covers only the probed lists yet still recalls most of the flat
    ADC top-k (clustered corpus: the query's neighbors share its list)."""
    import pyarrow.parquet as pq

    from meilisearch_thai_ray.pipelines.simple_text import (
        ann_ivfpq_topk, ann_pq_topk)

    rng = np.random.default_rng(9)
    # clustered corpus: 8 well-separated centers, 50 points each — IVF
    # pruning is meaningful (neighbors co-locate in a list)
    centers = rng.standard_normal((8, 16)) * 6
    mat = np.vstack([c + rng.standard_normal((50, 16)) * 0.5
                     for c in centers]).astype(np.float32)
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(
        pa.table({"vec_id": pa.array(range(400), pa.int64()),
                  "embedding": pa.array([list(map(float, v)) for v in mat],
                                        pa.list_(pa.float32()))}),
        str(d / "embeddings.parquet"),
    )
    flat = ann_pq_topk(str(d), k=10, m=8)
    full = ann_ivfpq_topk(str(d), k=10, m=8, nlist=8, nprobe=8)
    assert full.equals(flat)  # full probe == flat ADC, exactly
    pruned = ann_ivfpq_topk(str(d), k=10, m=8, nlist=8, nprobe=2)
    hit = set(pruned["vec_id"].to_pylist()) & set(flat["vec_id"].to_pylist())
    assert len(hit) >= 8, (pruned, flat)
    assert pruned["vec_id"][0].as_py() == 0  # the query vector ranks first


def _write_q7_fixture(d, n_orders=400, lines_per_order=5):
    """Synthetic 5-table fixture where EVERY order belongs to a pair-nation
    customer and most lineitems ship from pair-nation suppliers — so under
    tiny blocks nearly every orderkey run spans a block boundary."""
    import pyarrow.parquet as pq

    rng = np.random.default_rng(11)
    pq.write_table(pa.table({
        "n_nationkey": pa.array([0, 1, 2], pa.int32()),
        "n_name": pa.array(["NATION_0", "NATION_1", "NATION_2"]),
        "n_regionkey": pa.array([0, 0, 0], pa.int32())}),
        str(d / "nation.parquet"))
    n_supp = 10
    pq.write_table(pa.table({
        "s_suppkey": pa.array(range(1, n_supp + 1), pa.int64()),
        "s_name": pa.array([f"S{i}" for i in range(n_supp)]),
        "s_nationkey": pa.array(
            (rng.integers(0, 3, n_supp)).astype("int32"), pa.int32()),
        "s_acctbal": pa.array([0.0] * n_supp)}),
        str(d / "supplier.parquet"))
    n_cust = 40
    pq.write_table(pa.table({
        "c_custkey": pa.array(range(1, n_cust + 1), pa.int64()),
        "c_name": pa.array([f"C{i}" for i in range(n_cust)]),
        "c_nationkey": pa.array(
            (rng.integers(1, 3, n_cust)).astype("int32"), pa.int32()),
        "c_acctbal": pa.array([0.0] * n_cust),
        "c_mktsegment": pa.array(["SEG"] * n_cust)}),
        str(d / "customer.parquet"))
    okeys = np.arange(1, n_orders + 1, dtype=np.int64)
    pq.write_table(pa.table({
        "o_orderkey": pa.array(okeys),
        "o_custkey": pa.array(rng.integers(1, n_cust + 1, n_orders),
                              pa.int64()),
        "o_orderstatus": pa.array(["O"] * n_orders),
        "o_totalprice": pa.array(np.zeros(n_orders)),
        "o_orderdate": pa.array([pd.Timestamp("1996-06-01")] * n_orders,
                                pa.timestamp("us")),
        "o_orderpriority": pa.array(["1-URGENT"] * n_orders)}),
        str(d / "orders.parquet"))
    lk = np.repeat(okeys, lines_per_order)
    n_li = lk.size
    ship = pd.to_datetime(rng.choice(
        ["1995-03-01", "1996-07-01", "1997-11-30"], n_li))
    pq.write_table(pa.table({
        "l_orderkey": pa.array(lk),
        "l_partkey": pa.array(np.ones(n_li, np.int64)),
        "l_suppkey": pa.array(rng.integers(1, n_supp + 1, n_li), pa.int64()),
        "l_linenumber": pa.array(np.ones(n_li, np.int32)),
        "l_quantity": pa.array(np.ones(n_li)),
        "l_extendedprice": pa.array(
            np.round(rng.uniform(100, 2000, n_li), 2)),
        "l_discount": pa.array(np.round(rng.uniform(0, 0.1, n_li), 2)),
        "l_tax": pa.array(np.zeros(n_li)),
        "l_returnflag": pa.array(["N"] * n_li),
        "l_linestatus": pa.array(["O"] * n_li),
        "l_shipdate": pa.array(ship, pa.timestamp("us"))}),
        str(d / "lineitem.parquet"))


def test_q7_boundary_merge_under_tiny_blocks(ray_session, tmp_path):
    """Q7 bilateral volume: with ~hundred-row sort blocks, most orderkey
    runs split across blocks, so the answer flows through the raw-edge
    driver merge — it must still match DuckDB's 6-way join cell for cell."""
    import ray.data

    from meilisearch_thai_ray.pipelines.olap import SQL, nation_volume

    d = tmp_path / "sf"
    d.mkdir()
    _write_q7_fixture(d)
    ctx = ray.data.DataContext.get_current()
    saved = ctx.target_max_block_size
    ctx.target_max_block_size = 8 * 1024
    try:
        got = nation_volume(str(d)).to_pandas()
    finally:
        ctx.target_max_block_size = saved
    con2 = duckdb.connect()
    for t in ["nation", "supplier", "customer", "orders", "lineitem"]:
        con2.execute(f"CREATE VIEW {t} AS SELECT * "
                     f"FROM read_parquet('{d}/{t}.parquet')")
    exp = con2.execute(SQL["q7_nation_volume"]).fetchdf()
    assert len(got) > 0  # the fixture guarantees bilateral volume
    pd.testing.assert_frame_equal(got.reset_index(drop=True),
                                  exp.reset_index(drop=True),
                                  check_dtype=False)


def test_q15_reports_all_tied_winners(ray_session, tmp_path):
    """Two suppliers engineered to the same rounded quarterly revenue: the
    argmax must return BOTH rows (Q15's scalar-subquery tie semantics),
    matching DuckDB."""
    import pyarrow.parquet as pq

    from meilisearch_thai_ray.pipelines.olap import SQL, top_supplier

    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(pa.table({
        "s_suppkey": pa.array([1, 2, 3], pa.int64()),
        "s_name": pa.array(["SA", "SB", "SC"]),
        "s_nationkey": pa.array([0, 0, 0], pa.int32()),
        "s_acctbal": pa.array([0.0, 0.0, 0.0])}),
        str(d / "supplier.parquet"))
    # suppliers 1 and 2 tie at 3000.00 (two lineitems each), 3 trails
    pq.write_table(pa.table({
        "l_orderkey": pa.array([1, 1, 2, 2, 3], pa.int64()),
        "l_suppkey": pa.array([1, 1, 2, 2, 3], pa.int64()),
        "l_extendedprice": pa.array([1000.0, 2000.0, 1500.0, 1500.0, 10.0]),
        "l_discount": pa.array([0.0] * 5),
        "l_shipdate": pa.array([pd.Timestamp("1996-02-01")] * 5,
                               pa.timestamp("us"))}),
        str(d / "lineitem.parquet"))
    got = top_supplier(str(d)).to_pandas()
    con2 = duckdb.connect()
    for t in ["supplier", "lineitem"]:
        con2.execute(f"CREATE VIEW {t} AS SELECT * "
                     f"FROM read_parquet('{d}/{t}.parquet')")
    exp = con2.execute(SQL["q15_top_supplier"]).fetchdf()
    assert list(got["s_suppkey"]) == [1, 2]
    pd.testing.assert_frame_equal(got.reset_index(drop=True),
                                  exp.reset_index(drop=True),
                                  check_dtype=False)


def test_q17_threshold_is_strict_and_exact(ray_session, tmp_path):
    """Quantities sit EXACTLY at 0.2*avg for one part (excluded — strict <)
    and just under for another (included). Integral sums make the threshold
    bit-exact on both sides, so the comparison cannot drift from DuckDB."""
    import pyarrow.parquet as pq

    from meilisearch_thai_ray.pipelines.olap import SQL, small_qty_revenue

    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(pa.table({
        "p_partkey": pa.array([1, 2], pa.int64()),
        "p_name": pa.array(["pa", "pb"]),
        "p_brand": pa.array(["Brand#3", "Brand#3"]),
        "p_type": pa.array(["T", "T"]),
        "p_size": pa.array([1, 1], pa.int32()),
        "p_retailprice": pa.array([0.0, 0.0])}),
        str(d / "part.parquet"))
    # part 1: qtys [10,10,10,10,10] -> avg 10, 0.2*avg = 2; qty 2 row is AT
    # the threshold (excluded), qty 1 row under it (included, price 111.0)
    pq.write_table(pa.table({
        "l_orderkey": pa.array(range(8), pa.int64()),
        "l_partkey": pa.array([1] * 5 + [1, 1, 2], pa.int64()),
        "l_quantity": pa.array([10.0, 10.0, 10.0, 10.0, 10.0,
                                2.0, 1.0, 5.0]),
        "l_extendedprice": pa.array([9e9] * 5 + [5e8, 111.0, 222.0])}),
        str(d / "lineitem.parquet"))
    got = small_qty_revenue(str(d)).to_pandas()
    con2 = duckdb.connect()
    for t in ["part", "lineitem"]:
        con2.execute(f"CREATE VIEW {t} AS SELECT * "
                     f"FROM read_parquet('{d}/{t}.parquet')")
    exp = con2.execute(SQL["q17_small_qty_revenue"]).fetchdf()
    pd.testing.assert_frame_equal(got.reset_index(drop=True),
                                  exp.reset_index(drop=True),
                                  check_dtype=False)
    assert got["avg_yearly"][0] == round(111.0 / 7.0, 2)


def test_dsir_weights_separate_target_from_raw(ray_session, tmp_path):
    """DSIR log-weights (Xie et al. 2023): documents drawn from the target
    vocabulary must score higher than raw-vocabulary documents, a held-out
    doc mixing both lands between, and the pipeline is deterministic."""
    import pyarrow.parquet as pq

    from meilisearch_thai_ray.pipelines.training_data import dsir_weights

    rng = np.random.default_rng(7)
    t_vocab = [f"tw{i}" for i in range(50)]
    r_vocab = [f"rw{i}" for i in range(50)]

    def doc(vocab, n=40):
        return " ".join(rng.choice(vocab, n))

    rows = []
    for i in range(30):
        rows.append((i, "en", doc(t_vocab)))            # target slice
    for i in range(30, 60):
        rows.append((i, "de", doc(r_vocab)))            # raw slice
    rows.append((60, "de", doc(t_vocab, 20) + " " + doc(r_vocab, 20)))
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "text": pa.array([r[2] for r in rows]),
        "lang": pa.array([r[1] for r in rows]),
        "source": pa.array(["s"] * len(rows)),
        "n_chars": pa.array([len(r[2]) for r in rows], pa.int64())}),
        str(d / "documents.parquet"))
    w1 = dsir_weights(str(d)).to_pandas().set_index("doc_id")["dsir_logw"]
    w2 = dsir_weights(str(d)).to_pandas().set_index("doc_id")["dsir_logw"]
    assert w1.equals(w2)
    per_tok = w1 / dsir_weights(str(d)).to_pandas().set_index(
        "doc_id")["n_tokens"]
    t_min = per_tok.loc[:29].min()
    r_max = per_tok.loc[30:59].max()
    mixed = per_tok.loc[60]
    assert t_min > 0 > r_max          # signs separate the distributions
    assert r_max < mixed < t_min      # the mixture lands strictly between


def test_temperature_mix_flattens_skewed_sources(ray_session, tmp_path):
    """alpha=0.5 on a 1600-vs-100 skew: the dominant source downsamples
    toward sqrt-proportional share, the tail keeps everything, and the
    result matches the DuckDB oracle bit-for-bit."""
    import pyarrow.parquet as pq

    from meilisearch_thai_ray.pipelines.training_data import (
        SQL, temperature_mix)

    n_big, n_small = 1600, 100
    n = n_big + n_small
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": pa.array(["x"] * n),
        "lang": pa.array(["en"] * n),
        "source": pa.array(["big"] * n_big + ["small"] * n_small),
        "n_chars": pa.array([1] * n, pa.int64())}),
        str(d / "documents.parquet"))
    got = temperature_mix(str(d)).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    con2 = duckdb.connect()
    con2.execute(f"CREATE VIEW documents AS SELECT * "
                 f"FROM read_parquet('{d}/documents.parquet')")
    exp = con2.execute(SQL["k18_temperature_mix"]).fetchdf().sort_values(
        "doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    kept = got.groupby("source").size()
    assert kept["small"] == n_small  # tail capped at keep-all
    # big's target share: N * sqrt(c_big) / (sqrt(c_big) + sqrt(c_small));
    # md5 fractions are uniform, so the kept count lands near it
    import math

    z = math.sqrt(n_big) + math.sqrt(n_small)
    target_big = n * math.sqrt(n_big) / z
    assert abs(kept["big"] - target_big) < 0.05 * n_big
    # deterministic: second run identical
    again = temperature_mix(str(d)).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, again)


def test_curate_gopher_gate_filters_differently(ray_session, tmp_path):
    """quality="gopher" vs "simple": a 30-word stop-word-free doc passes
    the simple repetition gate but fails Gopher (stop_hits < 2 and
    word_count < 50); a long English doc passes both; both modes then share
    the dedup stages. Output matches the d7d DuckDB oracle."""
    import pyarrow.parquet as pq

    from meilisearch_thai_ray.pipelines.curate import SQL, curated_docs

    # good docs: >= 50 words, all-distinct (passes the repetition gate),
    # 5 stop-word hits, ~6-char mean word length -> pass BOTH gates
    good = ["the be to of and " + " ".join(f"tok{d}w{i:03d}"
                                           for i in range(60))
            for d in range(6)]
    # 30 distinct words, zero stop hits: pass simple (dup fraction 0,
    # wc >= 20) but FAIL gopher (wc < 50 and stop_hits < 2)
    no_stops = [" ".join(f"x{d}y{i:02d}" for i in range(30))
                for d in range(4)]
    texts = good + no_stops
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts),
        "lang": pa.array(["en"] * len(texts)),
        "source": pa.array(["s"] * len(texts)),
        "n_chars": pa.array([len(t) for t in texts], pa.int64())}),
        str(d / "documents.parquet"))
    simple = set(curated_docs(str(d)).to_pandas()["doc_id"])
    gopher = set(curated_docs(str(d), quality="gopher")
                 .to_pandas()["doc_id"])
    assert set(range(6)) <= simple and set(range(6, 10)) <= simple
    assert gopher <= set(range(6))        # gopher drops the stop-free docs
    con2 = duckdb.connect()
    con2.execute(f"CREATE VIEW documents AS SELECT * "
                 f"FROM read_parquet('{d}/documents.parquet')")
    exp = set(con2.execute(SQL["d7d_curate_gopher"]).fetchdf()["doc_id"])
    assert gopher == exp


def test_curate_survives_all_docs_filtered(ray_session, tmp_path):
    """A corpus the quality gate fully rejects must yield an EMPTY curated
    set, not crash in the run-scan on schemaless empty blocks (regression:
    keep_first_per_run KeyError 'tag')."""
    import pyarrow.parquet as pq

    from meilisearch_thai_ray.pipelines.curate import curated_docs

    texts = ["tiny doc"] * 5  # < MIN_WORDS: stage 1 drops everything
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array(range(5), pa.int64()),
        "text": pa.array(texts),
        "lang": pa.array(["en"] * 5),
        "source": pa.array(["s"] * 5),
        "n_chars": pa.array([len(t) for t in texts], pa.int64())}),
        str(d / "documents.parquet"))
    out = curated_docs(str(d)).to_pandas()
    assert len(out) == 0


def test_text_chunks_cover_every_word_with_overlap(ray_session, tmp_path):
    """Chunk windows: full coverage of every word index, stride-sized
    overlap between consecutive chunks, exact reconstruction of each
    window, and short docs yield exactly one whole-doc chunk."""
    import pyarrow.parquet as pq

    from meilisearch_thai_ray.pipelines.training_data import text_chunks

    texts = {
        0: " ".join(f"w{i}" for i in range(150)),   # 150 words: 4 chunks
        1: " ".join(f"w{i}" for i in range(64)),    # == window: 2 chunks
        2: "short doc only",                        # 3 words: 1 chunk
    }
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array(sorted(texts), pa.int64()),
        "text": pa.array([texts[k] for k in sorted(texts)]),
        "lang": pa.array(["en"] * 3),
        "source": pa.array(["s"] * 3),
        "n_chars": pa.array([len(texts[k]) for k in sorted(texts)],
                            pa.int64())}),
        str(d / "documents.parquet"))
    out = text_chunks(str(d), window=64, stride=48).to_pandas()
    g = out.groupby("doc_id")
    assert g.size().to_dict() == {0: -(-150 // 48), 1: 2, 2: 1}
    for doc_id, text in texts.items():
        words = text.split(" ")
        rows = out[out.doc_id == doc_id].sort_values("chunk_id")
        covered = set()
        for _, r in rows.iterrows():
            start = r.chunk_id * 48
            expect = words[start:start + 64]
            assert r.chunk == " ".join(expect)
            assert r.n_words == len(expect)
            covered.update(range(start, start + len(expect)))
        assert covered == set(range(len(words)))


def test_funnel_stages_partial_and_cross_block(ray_session, tmp_path):
    """One user per funnel depth (0..4), including an out-of-ORDER user
    (purchase before signup completes only stage 1) and a heavy user whose
    events straddle many tiny sort blocks — the transition-map composition
    must agree with DuckDB's ordered-subsequence oracle."""
    import pyarrow.parquet as pq
    import ray.data

    from meilisearch_thai_ray.pipelines.window_ops import (
        SQL, funnel_stages)

    rows = []  # (user, minute, event_type)
    rows += [(0, 0, "error")]                                  # stage 0
    rows += [(1, 0, "signup")]                                 # stage 1
    rows += [(2, 0, "signup"), (2, 1, "view")]                 # stage 2
    rows += [(3, 0, "signup"), (3, 1, "view"), (3, 2, "click")]  # stage 3
    rows += [(4, i, e) for i, e in enumerate(
        ["signup", "error", "view", "view", "click", "purchase"])]  # 4
    # order matters: purchase/click BEFORE signup must not count
    rows += [(5, 0, "purchase"), (5, 1, "click"), (5, 2, "signup")]  # 1
    # heavy user: 600 noise events, the real funnel hidden at positions
    # spread across the whole span (spans many 8 KiB blocks)
    noise = [(6, i, "error") for i in range(600)]
    noise[50] = (6, 50, "signup")
    noise[250] = (6, 250, "view")
    noise[450] = (6, 450, "click")
    noise[599] = (6, 599, "purchase")                          # stage 4
    rows += noise
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(pa.table({
        "event_id": pa.array(range(len(rows)), pa.int64()),
        "ts": pa.array([pd.Timestamp("2025-01-01")
                        + pd.Timedelta(minutes=m) for _u, m, _e in rows],
                       pa.timestamp("us")),
        "user_id": pa.array([u for u, _m, _e in rows], pa.int64()),
        "event_type": pa.array([e for _u, _m, e in rows]),
        "value": pa.array([0.0] * len(rows)),
        "props": pa.array(["{}"] * len(rows))}),
        str(d / "events.parquet"))
    ctx = ray.data.DataContext.get_current()
    saved = ctx.target_max_block_size
    ctx.target_max_block_size = 8 * 1024
    try:
        got = funnel_stages(str(d)).to_pandas()
    finally:
        ctx.target_max_block_size = saved
    con2 = duckdb.connect()
    con2.execute(f"CREATE VIEW events AS SELECT * "
                 f"FROM read_parquet('{d}/events.parquet')")
    exp = con2.execute(SQL["a21_funnel_stages"]).fetchdf()
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    assert dict(zip(got["stage"], got["n_users"])) == {
        0: 1, 1: 2, 2: 1, 3: 1, 4: 2}


def test_knn_graph_matches_numpy_oracle(ray_session):
    """Blocked-matmul k-NN graph at sf0.001 (forced multi-block) == numpy
    full-matrix top-k with the same (cos desc, neighbor asc) tie rule —
    every row, every rank."""
    import pyarrow.parquet as pq

    from meilisearch_thai_ray.pipelines.dedup_pipelines import knn_graph

    k = 5
    out = knn_graph(SF, k=k, n_blocks=4).to_pandas()
    t = pq.read_table(f"{SF}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    ids = t["vec_id"].to_numpy()
    mat = np.stack(t["embedding"].to_pylist()).astype(np.float64)
    order = np.argsort(ids)
    ids, mat = ids[order], mat[order]
    unit = mat / np.linalg.norm(mat, axis=1)[:, None]
    cos = unit @ unit.T
    np.fill_diagonal(cos, -np.inf)
    got = out.sort_values(["vec_id", "rank"]).reset_index(drop=True)
    assert len(got) == len(ids) * k
    for row_i in range(len(ids)):
        keys = np.lexsort((ids, -cos[row_i]))[:k]
        sub = got[got["vec_id"] == ids[row_i]]
        assert list(sub["neighbor_id"]) == [int(ids[j]) for j in keys]
        assert np.allclose(sub["cos"].to_numpy(),
                           np.round(cos[row_i, keys], 6))
