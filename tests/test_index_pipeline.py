"""End-to-end distributed build tests: byte-identity, rank-identity, resume.

Mirrors SURVEY.md §5 'Our test plan': (2) per-url byte-identity of extracted
text vs the oracle kernel; (3) rank-identity of distributed BM25 top-k vs the
single-node oracle; (4) kill/resume -> byte-identical shards."""

import hashlib
import json
import os
import shutil

import pyarrow.dataset as pads
import pytest

from meilisearch_thai_ray.config import EngineConfig
from meilisearch_thai_ray.fixtures.pages import generate_pages, write_pages_parquet
from meilisearch_thai_ray.fixtures.queries import QUERY_FIXTURES
from meilisearch_thai_ray.index.build import build_index, build_shards
from meilisearch_thai_ray.index.search import SearchEngine
from meilisearch_thai_ray.kernel import DocumentTokenizer, html_to_text
from meilisearch_thai_ray.kernel.bm25 import BM25Oracle

N_PAGES = 300
CFG = EngineConfig(num_shards=4)


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("idx")
    pages_dir = str(root / "pages")
    out = str(root / "index")
    write_pages_parquet(pages_dir, N_PAGES, rows_per_file=64)
    meta = build_index(pages_dir, out, CFG, num_salts=2, batch_size=64)
    return pages_dir, out, meta


@pytest.fixture(scope="module")
def docs_table(built):
    _, out, _ = built
    return pads.dataset(os.path.join(out, "docs")).to_table()


@pytest.fixture(scope="module")
def oracle(docs_table):
    return BM25Oracle(
        list(zip(docs_table["doc_id"].to_pylist(), docs_table["terms"].to_pylist()))
    )


@pytest.fixture(scope="module")
def tok():
    return DocumentTokenizer(CFG)


def test_extraction_byte_identity(built, docs_table):
    """Distributed extracted text == kernel html_to_text, byte-for-byte per url."""
    pages = generate_pages(N_PAGES)
    kernel_text = {
        pages["url"][i].as_py(): html_to_text(pages["html"][i].as_py())
        for i in range(N_PAGES)
    }
    urls = docs_table["url"].to_pylist()
    texts = docs_table["text"].to_pylist()
    assert len(urls) == N_PAGES
    for u, t in zip(urls, texts):
        assert t == kernel_text[u], f"extraction mismatch for {u}"
    # generator ground truth agrees too
    gen_text = {pages["url"][i].as_py(): pages["text"][i].as_py() for i in range(N_PAGES)}
    for u, t in zip(urls, texts):
        assert t == gen_text[u]


def test_tokenization_identity(built, docs_table, tok):
    """Distributed terms == kernel tokenize+index_terms per url."""
    for i in range(docs_table.num_rows):
        text = docs_table["text"][i].as_py()
        expect = tok.index_terms(tok.tokenize(text))
        assert docs_table["terms"][i].as_py() == expect
        assert docs_table["token_count"][i].as_py() == len(expect)


def test_stats_match_oracle(built, oracle):
    _, out, meta = built
    assert meta["n_docs"] == oracle.n_docs
    assert meta["avgdl"] == pytest.approx(oracle.avgdl, abs=1e-12)
    # every phase build_index ran records its wall time in its done-file
    mdir = os.path.join(out, "_manifest")
    done = sorted(f for f in os.listdir(mdir) if f.endswith(".done"))
    assert done == ["dict.done", "docs.done", "shards.done", "stats.done"]
    for f in done:
        with open(os.path.join(mdir, f)) as fh:
            wall = json.load(fh)["wall_s"]
        assert isinstance(wall, float) and wall >= 0.0, f


def test_df_matches_oracle(built, oracle):
    _, out, _ = built
    eng = SearchEngine(out)
    for term in ["อาหาร", "เทคโนโลยี", "machine", "สาหร่ายวากาเมะ", "nonexistentterm"]:
        assert eng.df(term) == oracle.df(term), term


def test_rank_identity_all_fixture_queries(built, oracle, tok):
    """Top-10 doc_ids AND float64 scores identical: oracle == score_topk ==
    MaxScore."""
    _, out, _ = built
    eng = SearchEngine(out)
    nonempty = 0
    for q in QUERY_FIXTURES:
        terms = tok.index_terms(tok.tokenize(q["query"]))
        o = oracle.top_k(terms, 10)
        assert eng.score_topk(terms, 10) == o, f"score_topk mismatch for {q['qid']}"
        loaded = eng._weighted(terms)
        if loaded:
            m = eng._score_maxscore(loaded, 10)
            assert m == o, f"maxscore mismatch for {q['qid']}"
        nonempty += bool(o)
    assert nonempty >= 25  # the fixture set must actually exercise the index


def test_empty_and_stop_only_queries(built):
    _, out, _ = built
    eng = SearchEngine(out)
    assert eng.search("zzzzqqqq") == []
    assert eng.search("และหรือแต่") == []  # stop words only -> no terms
    assert eng.search("") == []


def _hash_tree(d: str) -> dict[str, str]:
    out = {}
    for root, _dirs, files in os.walk(d):
        for f in files:
            p = os.path.join(root, f)
            out[os.path.relpath(p, d)] = hashlib.sha256(open(p, "rb").read()).hexdigest()
    return out


def test_resume_byte_identical(built):
    """Kill-after-partial-build simulation: delete the phase marker and one
    part file; resume must rewrite ONLY the missing partition with identical
    bytes and leave the rest untouched."""
    _, out, meta = built
    shards_dir = os.path.join(out, "shards")
    before = _hash_tree(shards_dir)
    # simulate a crash mid-phase
    os.remove(os.path.join(out, "_manifest", "shards.done"))
    victim = sorted(before)[0]
    os.remove(os.path.join(shards_dir, victim))
    parts = build_shards(os.path.join(out, "docs"), out, CFG, meta, num_salts=2)
    after = _hash_tree(shards_dir)
    assert after == before
    # lineage recorded the resumed run too (rows appended per partition)
    assert any(not p.get("skipped") for p in parts)
    resumed = [p for p in parts if p["ts"] >= max(q["ts"] for q in parts) - 60]
    assert resumed


def test_scores_survive_salt_change(built, oracle, tok):
    """Same corpus built with different salting (num_salts=1) must produce the
    exact same scores — partitioning must not leak into results."""
    pages_dir, _, _ = built
    out2 = os.path.join(os.path.dirname(pages_dir), "index_salt1")
    shutil.rmtree(out2, ignore_errors=True)
    build_index(pages_dir, out2, CFG, num_salts=1, batch_size=96)
    eng = SearchEngine(out2)
    for q in QUERY_FIXTURES[:12]:
        terms = tok.index_terms(tok.tokenize(q["query"]))
        assert eng.score_topk(terms, 10) == oracle.top_k(terms, 10), q["qid"]


def test_prefix_expansion(built):
    _, out, _ = built
    eng = SearchEngine(out)
    ex = eng.expand_prefix("สาหร่าย")
    assert "สาหร่ายวากาเมะ" in ex or "สาหร่าย" in ex
    assert eng.expand_prefix("") == []
    assert eng.expand_prefix("zzzz") == []
    # with k >= corpus, prefix search covers every exact-term result
    base = {d for d, _ in eng.score_topk(eng.query_terms("อาหาร"), 1000)}
    pref = {d for d, _ in eng.score_topk_prefix(eng.query_terms("อาหาร"),
                                                1000)}
    assert base <= pref


def test_compute_stats_then_build_shards_records_num_salts(built, tmp_path):
    """compute_stats + build_shards(num_salts=2) into a fresh directory (the
    simple_text sequence, no build_index) records the salt count in
    meta.json, where index_stats and the serving actors read it."""
    import meilisearch_thai_ray.index.build as b
    from meilisearch_thai_ray.index.maintenance import index_stats

    _, out, _meta = built
    out2 = str(tmp_path / "index")
    docs_dir = os.path.join(out2, "docs")
    shutil.copytree(os.path.join(out, "docs"), docs_dir)
    m = b.compute_stats(docs_dir, out2, CFG)
    b.build_shards(docs_dir, out2, CFG, m, num_salts=2)
    with open(os.path.join(out2, "meta.json")) as f:
        assert json.load(f)["num_salts"] == 2
    assert index_stats(out2)["numSalts"] == 2
    assert _hash_tree(os.path.join(out2, "shards")) == _hash_tree(
        os.path.join(out, "shards"))


def test_matching_strategy_all(built, oracle, tok):
    """matchingStrategy='all' == oracle intersection semantics, scores intact."""
    _, out, _ = built
    eng = SearchEngine(out)
    checked = 0
    for q in QUERY_FIXTURES:
        terms = tok.index_terms(tok.tokenize(q["query"]))
        a = eng.score_topk(terms, 10, match="all")
        o = oracle.top_k_all(terms, 10)
        assert a == o, q["qid"]
        any_hits = eng.score_topk(terms, 10)
        assert set(d for d, _ in a) <= {d for d, _ in any_hits} or len(any_hits) == 10
        checked += bool(a)
    assert checked >= 5  # multi-term AND still matches somewhere in the corpus


def _dict_vocab(index_dir: str) -> list[tuple[str, int]]:
    """Every (term, df) of the index's sorted term dictionary."""
    import pyarrow.dataset as pads

    t = pads.dataset(os.path.join(index_dir, "termdict")).to_table(
        columns=["term", "df"])
    return list(zip(t["term"].to_pylist(), t["df"].to_pylist()))


def test_matching_strategy_frequency(built):
    """'frequency' drops the highest-df word; 'last' drops the trailing one.

    Meilisearch matchingStrategy="frequency" (v1.5+) semantics: all words
    required, the least informative (highest document frequency) word is
    removed first when the conjunction is empty."""
    _, out, _ = built
    eng = SearchEngine(out)
    vocab = sorted(_dict_vocab(out), key=lambda x: -x[1])
    found = None
    for hi, dh in vocab[:40]:
        for lo, dl in vocab[-200:]:
            if dl <= 0 or dl >= dh:
                continue
            if eng.query_terms(f"{hi} {lo}") != [hi, lo]:
                continue  # pair doesn't round-trip the query tokenizer
            if eng.score_topk([hi, lo], 10, match="all"):
                continue  # co-occurs somewhere: drop order unobservable
            found = (hi, lo)
            break
        if found:
            break
    assert found, "no disjoint df-ordered term pair in fixture corpus"
    hi, lo = found
    freq = eng.search_matching(f"{hi} {lo}", strategy="frequency")
    last = eng.search_matching(f"{hi} {lo}", strategy="last")
    assert freq and freq == eng.score_topk([lo], 10, match="all")
    assert last and last == eng.score_topk([hi], 10, match="all")
    assert freq != last
    # a word absent from the corpus can never satisfy the conjunction:
    # it drops before any real word regardless of position
    ghost = eng.search_matching(f"zzqqxxv {hi}", strategy="frequency")
    assert ghost == eng.score_topk([hi], 10, match="all")


def test_matching_strategy_backfill(built):
    """backfill=True reproduces Meilisearch's full relaxation: buckets
    accumulate until k hits, docs matching MORE words always rank above
    docs matching fewer, earlier-bucket docs are never re-emitted."""
    _, out, _ = built
    eng = SearchEngine(out)
    vocab = sorted(_dict_vocab(out), key=lambda x: -x[1])
    # a two-word query whose conjunction is NON-empty but smaller than k:
    # backfill must append the relaxed bucket's docs after it
    found = None
    for hi, _dh in vocab[:60]:
        for lo, dl in vocab:
            if lo == hi or dl <= 0:
                continue
            if eng.query_terms(f"{hi} {lo}") != [hi, lo]:
                continue
            both = eng.score_topk([hi, lo], 50, match="all")
            only = eng.score_topk([hi], 50, match="all")
            if 0 < len(both) < 10 and len(only) > len(both):
                found = (hi, lo, both, only)
                break
        if found:
            break
    assert found, "need a partial-overlap pair in the fixture corpus"
    hi, lo, both, only = found
    got = eng.search_matching(f"{hi} {lo}", strategy="last", k=10,
                              backfill=True)
    # prefix = the full conjunction bucket, order intact
    assert got[:len(both)] == both[:10]
    # the rest come from the relaxed bucket ({hi} alone), no duplicates
    taken = {d for d, _ in both}
    tail_expect = [(d, s) for d, s in only if d not in taken]
    assert got[len(both):] == tail_expect[:10 - len(both)]
    assert len({d for d, _ in got}) == len(got)
    # default (no backfill) is unchanged: first non-empty bucket only
    assert eng.search_matching(f"{hi} {lo}", strategy="last", k=10) == \
        both[:10]
    # frequency + backfill also accumulates (ghost word drops first)
    gotf = eng.search_matching(f"zzqqxxv {hi}", strategy="frequency",
                               k=10, backfill=True)
    assert gotf == eng.score_topk([hi], 10, match="all")


def test_matching_strategy_last(built):
    """'last' drops trailing terms until something matches."""
    _, out, _ = built
    eng = SearchEngine(out)
    # append garbage term: 'all' fails, 'last' recovers by dropping it
    hits_all = eng.search_matching("อาหาร zzzzqq", strategy="all")
    hits_last = eng.search_matching("อาหาร zzzzqq", strategy="last")
    assert hits_all == []
    assert hits_last and hits_last == eng.score_topk(["อาหาร"], 10, match="all")
    assert eng.search_matching("qqqq zzzz", strategy="last") == []


def test_matching_strategy_frequency_ranks_words_by_live_docs(built,
                                                              tmp_path):
    """'frequency' ranks words by the docs they still match: a word whose
    every doc is tombstoned drops first, even when its raw df is the
    lower one (raw df counts deleted postings)."""
    from meilisearch_thai_ray.index.maintenance import delete_docs

    _, out, _ = built
    eng = SearchEngine(out)
    vocab = sorted(_dict_vocab(out), key=lambda x: -x[1])
    found = None
    for hi, dh in vocab[:40]:
        for lo, dl in vocab[-200:]:
            if 0 < dl < dh and eng.query_terms(f"{lo} {hi}") == [lo, hi] \
                    and not eng.score_topk([hi, lo], 10, match="all"):
                found = (hi, lo)
                break
        if found:
            break
    assert found, "no disjoint df-ordered term pair in fixture corpus"
    hi, lo = found
    copy = str(tmp_path / "index")
    shutil.copytree(out, copy)
    delete_docs(copy, [d for d, _ in eng.score_topk([lo], 1 << 20)])
    dead = SearchEngine(copy)
    assert dead.df(lo) < dead.df(hi) and not dead.score_topk([lo], 10)
    want = dead.score_topk([hi], 10, match="all")
    assert want and want == eng.score_topk([hi], 10, match="all")
    assert dead.search_matching(f"{lo} {hi}", strategy="frequency") == want


def test_score_docs_topk_planted_neighbour(built):
    """Scoring given docs finds a posting whose id rounds, as a float64,
    to the same value as a lower posting beside it (ids are uint64)."""
    import numpy as np

    from meilisearch_thai_ray.index.search import _Segment

    _, out, _ = built
    eng = SearchEngine(out)
    a = 1 << 57  # float64 spacing here is 32: a and a + 2 round alike
    ids = np.array([a, a + 2], np.uint64)
    seg = _Segment(ids, np.array([0.5, 1.0]))
    eng._seg_cache["zzplanted"] = [seg]
    want = eng._score_exhaustive([("zzplanted", 1.0, 2.0, [seg])], 10)
    assert want == [(a + 2, 2.0), (a, 1.0)]
    assert eng.score_docs_topk(["zzplanted"], ids, 10) == \
        eng.score_topk(["zzplanted"], 10)


def test_tokenize_api_shape(tok):
    from meilisearch_thai_ray.kernel.tokenize import tokenize_api

    r = tokenize_api("สาหร่ายวากาเมะอร่อย", tokenizer=tok)
    assert r["original_text"] == "สาหร่ายวากาเมะอร่อย"
    assert "สาหร่ายวากาเมะ" in r["tokens"]
    assert len(r["word_boundaries"]) == len(r["tokens"]) + 1
    assert r["word_boundaries"][0] == 0
    assert r["word_boundaries"][-1] == len(r["original_text"])


def test_batch_size_invariance(built):
    """Different task partitioning (batch_size) must produce byte-identical
    shards — the single-node stand-in for 'identical at any cluster size'."""
    pages_dir, out, _ = built
    out2 = os.path.join(os.path.dirname(pages_dir), "index_bs32")
    shutil.rmtree(out2, ignore_errors=True)
    build_index(pages_dir, out2, CFG, num_salts=2, batch_size=32)
    assert _hash_tree(os.path.join(out2, "shards")) == _hash_tree(
        os.path.join(out, "shards")
    )

def test_dead_letter_failed_docs(ray_session, tmp_path):
    """Corrupt pages become status='failed' rows (dead letter), never a raised
    task: the build completes, N/avgdl exclude failed docs, failed_docs()
    exposes the errors, and search serves the good docs."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from meilisearch_thai_ray.index.maintenance import failed_docs

    good_html = [
        b"<html><body><p>wakame seaweed salad recipe</p></body></html>",
        "<html><body><p>สาหร่ายวากาเมะ อร่อยมาก</p></body></html>".encode(),
        b"<html><body><p>ray data pipelines scale horizontally</p></body></html>",
    ]
    urls = [f"https://ex.th/{i}" for i in range(5)]
    htmls = good_html + [None, None]  # two corrupt pages
    pages_dir = tmp_path / "pages"
    pages_dir.mkdir()
    pq.write_table(
        pa.table({
            "url": pa.array(urls, pa.string()),
            "html": pa.array(htmls, pa.binary()),
            "lang": pa.array(["mixed"] * 5, pa.string()),
        }),
        str(pages_dir / "part-0.parquet"),
    )
    out = str(tmp_path / "index")
    meta = build_index(str(pages_dir), out, CFG, num_salts=1, batch_size=64)
    assert meta["n_docs"] == 3  # failed docs excluded from N
    dead = failed_docs(out)
    assert dead.num_rows == 2
    assert all(e for e in dead["error"].to_pylist())  # error messages recorded
    eng = SearchEngine(out)
    assert eng.search("wakame")  # good docs still searchable
    # the failed docs contributed no postings
    assert all(not eng.segments(t) for t in ["none"])
    # a negative-only query (placeholder search) lists the live docs only:
    # neither dead-letter rows nor deleted docs
    from meilisearch_thai_ray.index.maintenance import delete_docs
    from meilisearch_thai_ray.pipelines.search_proxy import SearchProxy

    docs_path = os.path.join(out, "docs")
    good = sorted(
        set(pads.dataset(docs_path).to_table(columns=["doc_id"])["doc_id"]
            .to_pylist()) - set(dead["doc_id"].to_pylist()))
    assert len(good) == 3

    def placeholder_ids():
        proxy = SearchProxy(SearchEngine(out), docs_path=docs_path)
        return [h["doc_id"] for h in proxy.search("-zzznotaword", k=10)]

    assert placeholder_ids() == good
    delete_docs(out, [good[0]])
    assert placeholder_ids() == good[1:]


def test_resume_layout_mismatch_discards_partials(built, tmp_path):
    """A crashed shards phase resumed with a DIFFERENT num_salts must discard
    the stale salt files (their (shard, salt) derivation differs) and produce
    output byte-identical to a fresh build at the new layout."""
    pages_dir, out, _meta = built
    import shutil

    from meilisearch_thai_ray.index.build import shards_layout

    # fresh reference build at num_salts=1
    ref = str(tmp_path / "ref")
    build_index(pages_dir, ref, CFG, num_salts=1, batch_size=64)

    # clone the completed num_salts=2 index, simulate a crash mid-shards
    crashed = str(tmp_path / "crashed")
    shutil.copytree(out, crashed)
    os.remove(os.path.join(crashed, "_manifest", "shards.done"))
    # resume with num_salts=1: stale salt-0001 files MUST NOT be trusted
    build_index(pages_dir, crashed, CFG, num_salts=1, batch_size=64)
    assert shards_layout(crashed)["num_salts"] == 1
    ref_shards = _hash_tree(os.path.join(ref, "shards"))
    got_shards = _hash_tree(os.path.join(crashed, "shards"))
    assert ref_shards == got_shards


def test_completed_layout_mismatch_raises(built, tmp_path):
    """Rebuilding a COMPLETED index with a different layout is an error, not a
    silent meta rewrite."""
    pages_dir, out, _meta = built
    import shutil

    clone = str(tmp_path / "clone")
    shutil.copytree(out, clone)
    with pytest.raises(ValueError, match="layout"):
        build_index(pages_dir, clone, CFG, num_salts=3, batch_size=64)

def test_term_dict_sorted_and_prefix_parity(built):
    """The sorted term dictionary exists, is globally sorted, sums salted
    segment dfs, and its pruned range read returns EXACTLY what the full
    shard scan returns for prefix expansion."""
    import pyarrow.dataset as pads

    _pages, out, _meta = built
    d = os.path.join(out, "termdict")
    t = pads.dataset(d).to_table()
    terms = t["term"].to_pylist()
    assert terms == sorted(terms) and len(terms) == len(set(terms))
    eng = SearchEngine(out)
    # df in dict == engine df (sums across salts)
    import random

    rng = random.Random(5)
    for term in rng.sample(terms, min(20, len(terms))):
        assert t["df"][terms.index(term)].as_py() == eng.df(term)
    # prefix parity: dictionary path vs full shard scan
    for prefix in ["ส", "วา", "x", "a", "ทะ"]:
        via_dict = eng.expand_prefix(prefix, limit=10)
        cands = []
        for shard in range(eng.num_shards):
            for term, segs in eng._load_shard(shard).items():
                if term.startswith(prefix):
                    cands.append((-sum(s[0] for s in segs), term))
        cands.sort()
        assert via_dict == [x for _, x in cands[:10]], prefix


def test_term_dict_resume(built, tmp_path):
    """dict phase is independently resumable (marker deleted -> rebuilt
    byte-identical)."""
    import shutil

    _pages, out, _meta = built
    clone = str(tmp_path / "clone")
    shutil.copytree(out, clone)
    from meilisearch_thai_ray.index.build import build_term_dict

    before = _hash_tree(os.path.join(clone, "termdict"))
    os.remove(os.path.join(clone, "_manifest", "dict.done"))
    build_term_dict(clone)
    assert _hash_tree(os.path.join(clone, "termdict")) == before


def test_stats_and_dict_ray_branch_match_local_scan(built, tmp_path,
                                                    monkeypatch):
    """With RAY_AGG_BYTES at 0 the stats and dict phases take their Ray
    branch; it yields the in-process scan's (term, df, cf) rows, typo arrays
    and corpus stats."""
    import numpy as np

    import meilisearch_thai_ray.index.build as b

    _pages, out, _meta = built
    clone = str(tmp_path / "clone")
    shutil.copytree(out, clone)
    for phase in ("stats", "dict"):
        os.remove(os.path.join(clone, "_manifest", f"{phase}.done"))
    monkeypatch.setattr(b, "RAY_AGG_BYTES", 0)
    meta = b.compute_stats(os.path.join(clone, "docs"), clone, CFG)
    b.build_term_dict(clone)

    def rows(index_dir):
        t = pads.dataset(os.path.join(index_dir, "termdict")).to_table()
        return list(zip(*(t[c].to_pylist() for c in ("term", "df", "cf"))))

    assert rows(clone) == rows(out)
    for f in ("hash.npy", "row.npy"):
        assert np.array_equal(np.load(os.path.join(clone, "typodict", f)),
                              np.load(os.path.join(out, "typodict", f))), f
    with open(os.path.join(out, "meta.json")) as f:
        ref = json.load(f)
    assert (meta["n_docs"], meta["sum_dl"]) == (ref["n_docs"], ref["sum_dl"])

POS_CFG = EngineConfig(num_shards=4, store_positions=True)


@pytest.fixture(scope="module")
def pos_index(ray_session, tmp_path_factory):
    """English corpus where token adjacency == substring-with-single-spaces,
    so the positional path can be cross-checked against substring truth."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    root = tmp_path_factory.mktemp("posidx")
    pages = root / "pages"
    pages.mkdir()
    texts = [
        "red fox jumps over the fence",
        "fox red jumps scrambled order here",
        "the quick red fox red fox again",
        "unrelated words entirely different content",
        "red stop fox separated by stopword",  # 'stop' is not a stop word; adjacency broken
        "ends with red fox",
    ]
    urls = [f"https://pos.ex/{i}" for i in range(len(texts))]
    pq.write_table(
        pa.table({
            "url": pa.array(urls, pa.string()),
            "html": pa.array([f"<p>{t}</p>".encode() for t in texts], pa.binary()),
            "lang": pa.array(["en"] * len(texts), pa.string()),
        }),
        str(pages / "p.parquet"),
    )
    out = str(root / "index")
    build_index(str(pages), out, POS_CFG, num_salts=2, batch_size=64)
    return out, texts, urls


def test_phrase_topk_token_adjacency(pos_index):
    from meilisearch_thai_ray.functions.hashing import doc_id_from_url

    out, texts, urls = pos_index
    eng = SearchEngine(out)
    assert eng.has_positions
    hits = eng.phrase_topk("red fox", k=10)
    got = {d for d, _ in hits}
    expect = {doc_id_from_url(urls[i]) for i, t in enumerate(texts)
              if "red fox" in t}
    assert got == expect and len(expect) == 3
    # scrambled order is NOT a phrase hit
    assert doc_id_from_url(urls[1]) not in got
    # word between breaks adjacency
    assert doc_id_from_url(urls[4]) not in got
    # phrase ranking is BM25 over the phrase terms, (-score, doc_id) sorted
    scores = [s for _, s in hits]
    assert scores == sorted(scores, reverse=True)


def test_phrase_positional_matches_substring_truth(pos_index):
    """On a single-space English corpus, positional phrase results ==
    substring results for every bigram of the corpus vocabulary."""
    from meilisearch_thai_ray.functions.hashing import doc_id_from_url

    out, texts, urls = pos_index
    eng = SearchEngine(out)
    vocab = sorted({w for t in texts for w in t.split()})
    import itertools

    checked = 0
    for a, b in itertools.islice(itertools.product(vocab, vocab), 400):
        phrase = f"{a} {b}"
        got = {d for d, _ in eng.phrase_topk(phrase, k=20)}
        # word-boundary-aware truth (plain substring would false-match
        # "by stop" inside "by stopword")
        expect = {doc_id_from_url(urls[i]) for i, t in enumerate(texts)
                  if f" {phrase} " in f" {t} "}
        assert got == expect, phrase
        checked += 1
    assert checked >= 390


def test_phrase_positional_thai_compound(ray_session, tmp_path):
    """Thai no-whitespace phrase + compound-part queries work positionally."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from meilisearch_thai_ray.functions.hashing import doc_id_from_url

    pages = tmp_path / "pages"
    pages.mkdir()
    texts = [
        "สาหร่ายวากาเมะอร่อยมาก",       # compound + following word, no spaces
        "อร่อยมากสาหร่ายวากาเมะ",       # reversed order
        "สาหร่ายวากาเมะ คือ อาหาร",
    ]
    urls = [f"https://th.ex/{i}" for i in range(len(texts))]
    pq.write_table(
        pa.table({
            "url": pa.array(urls, pa.string()),
            "html": pa.array([f"<p>{t}</p>".encode() for t in texts], pa.binary()),
            "lang": pa.array(["th"] * len(texts), pa.string()),
        }),
        str(pages / "p.parquet"),
    )
    out = str(tmp_path / "index")
    build_index(str(pages), out, POS_CFG, num_salts=1, batch_size=64)
    eng = SearchEngine(out)
    hits = {d for d, _ in eng.phrase_topk("สาหร่ายวากาเมะอร่อย", k=10)}
    assert doc_id_from_url(urls[0]) in hits
    assert doc_id_from_url(urls[1]) not in hits  # reversed != phrase
    # compound PART leads the phrase: part rides the parent position
    hits2 = {d for d, _ in eng.phrase_topk("วากาเมะอร่อย", k=10)}
    assert doc_id_from_url(urls[0]) in hits2


def test_shard_bytes_independent_of_batch_layout(ray_session, tmp_path):
    """The posting exchange writes the same shard bytes (positions included)
    whatever the postings' block layout: build_shards from one docs table
    at postings batch_size 4096 and 7."""
    from meilisearch_thai_ray.index.build import build_docs, compute_stats

    pages = str(tmp_path / "pages")
    write_pages_parquet(pages, 80, rows_per_file=40)
    docs_dir = build_docs(pages, str(tmp_path / "docs"), POS_CFG, batch_size=48)
    hashes = []
    for batch_size in (4096, 7):
        out = str(tmp_path / f"idx_{batch_size}")
        meta = compute_stats(docs_dir, out, POS_CFG)
        build_shards(docs_dir, out, POS_CFG, meta, num_salts=2,
                     batch_size=batch_size)
        hashes.append(_hash_tree(os.path.join(out, "shards")))
    assert hashes[0] and hashes[0] == hashes[1]


def test_proxy_phrase_prefers_positional(pos_index):
    from meilisearch_thai_ray.functions.hashing import doc_id_from_url
    from meilisearch_thai_ray.pipelines.search_proxy import SearchProxy

    out, texts, urls = pos_index
    p = SearchProxy(SearchEngine(out))  # no docs_path: positional path only
    hits = p.search_phrase("red fox", k=10)
    assert {d for d, _ in hits} == {
        doc_id_from_url(urls[i]) for i, t in enumerate(texts) if "red fox" in t
    }

def test_layout_guard_covers_store_positions(built, tmp_path):
    """Resuming with a flipped store_positions must not trust stale parts
    (positions are baked into the salt files' bytes)."""
    pages_dir, out, _meta = built
    import shutil

    clone = str(tmp_path / "clone")
    shutil.copytree(out, clone)
    with pytest.raises(ValueError, match="layout"):
        build_index(pages_dir, clone,
                    EngineConfig(num_shards=CFG.num_shards, store_positions=True),
                    num_salts=2, batch_size=64)


def test_maxscore_identical_to_exhaustive(built):
    """Vectorized MaxScore returns EXACTLY the exhaustive top-k (ids and
    bit-identical scores) on every fixture query."""
    from meilisearch_thai_ray.fixtures.queries import QUERY_FIXTURES

    _pages, out, _meta = built
    eng = SearchEngine(out)
    checked = 0
    for q in QUERY_FIXTURES:
        terms = eng.query_terms(q["query"])
        if not terms:
            continue
        loaded = eng._weighted(terms)
        if not loaded:
            continue
        a = eng._score_exhaustive(loaded, 10)
        assert eng._score_maxscore(loaded, 10) == a, q["qid"]
        checked += bool(a)
    assert checked >= 20


def test_maxscore_prunes_skewed_synthetic():
    """On a rare+common skewed query MaxScore actually prunes (the common
    term goes non-essential) and still matches exhaustive bit-for-bit —
    also when the rare term repeats three times: weight 3 is not a power
    of two, so (w*idf)*tfn and w*(idf*tfn) round apart."""
    import numpy as np

    from meilisearch_thai_ray.index.search import SearchEngine, _Segment
    from meilisearch_thai_ray.kernel.bm25 import idf as _idf

    eng = SearchEngine.__new__(SearchEngine)
    eng._dead = set()
    eng._dead_arr = None

    N = 200_000

    def seg(df, seed):
        r = np.random.default_rng(seed)
        ids = np.sort(r.choice(N, size=df, replace=False)).astype(np.uint64)
        return _Segment(ids, r.uniform(0.4, 1.6, size=df))

    for w in (1.0, 3.0):
        loaded = sorted([
            ("aaa_rare", w, _idf(N, 500), [seg(500, 3)]),
            ("mmm_common", 1.0, _idf(N, 100_000), [seg(100_000, 1)]),
        ])
        a = eng._score_exhaustive(loaded, 10)
        assert len(a) == 10
        assert eng._score_maxscore(loaded, 10) == a, w


def test_maxscore_scores_once_when_rare_subset_is_every_term(monkeypatch):
    """When the rare terms' covering subset (a df-5 term holds fewer than k
    docs) already takes in every term, MaxScore returns that subset's exact
    top-k: score_topk runs exhaustive scoring once, not twice, and the hits
    equal exhaustive's."""
    import numpy as np

    from meilisearch_thai_ray.index.search import SearchEngine, _Segment

    N = 200_000
    eng = SearchEngine.__new__(SearchEngine)
    eng._dead_arr = None
    eng.n_docs = N
    r = np.random.default_rng(7)
    eng._seg_cache = {
        t: [_Segment(np.sort(r.choice(N, size=df, replace=False))
                     .astype(np.uint64), r.uniform(0.4, 1.6, size=df))]
        for t, df in (("aaa_rare", 5), ("mmm_common", 150_000))}
    terms = ["aaa_rare", "mmm_common"]
    want = eng._score_exhaustive(eng._weighted(terms), 10)
    calls = []
    real = eng._score_exhaustive

    def spy(loaded, k, **kw):
        calls.append(sum(s.n for *_x, segs in loaded for s in segs))
        return real(loaded, k, **kw)

    monkeypatch.setattr(eng, "_score_exhaustive", spy)
    assert eng.score_topk(terms, 10) == want
    assert calls == [150_005]


def _warc_bytes(records):
    out = []
    for rtype, url, body in records:
        http = (b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n\r\n"
                + body) if rtype == "response" else body
        head = (f"WARC/1.0\r\nWARC-Type: {rtype}\r\n"
                f"WARC-Target-URI: {url}\r\n"
                f"Content-Length: {len(http)}\r\n").encode()
        out.append(head + b"\r\n" + http + b"\r\n\r\n")
    return b"".join(out)


def test_warc_source_parses_and_builds(ray_session, tmp_path):
    """WARC records (plain + gzip members, response + non-response) parse
    to page rows and feed build_index end-to-end: the Thai doc is
    searchable in the resulting index."""
    import gzip

    from meilisearch_thai_ray.config import EngineConfig
    from meilisearch_thai_ray.index.build import build_index
    from meilisearch_thai_ray.index.search import SearchEngine
    from meilisearch_thai_ray.sources.warc import (
        iter_warc_records, read_warc_pages)

    thai = "<html><body><p>สาหร่ายวากาเมะ อร่อยมาก</p></body></html>"
    recs = [
        ("warcinfo", "", b"software: test"),
        ("response", "http://a.example/1", thai.encode()),
        ("request", "http://a.example/1", b"GET / HTTP/1.1"),
        ("response", "http://a.example/2",
         b"<html><body><p>plain english page about nothing</p></body></html>"),
    ]
    raw = _warc_bytes(recs)
    d = tmp_path / "warc"
    d.mkdir()
    (d / "crawl-00000.warc").write_bytes(raw)
    # second file: two gzip members concatenated (the CC on-disk layout)
    (d / "crawl-00001.warc.gz").write_bytes(
        gzip.compress(_warc_bytes([recs[1]]))
        + gzip.compress(_warc_bytes([recs[3]])))

    # record framing round-trips
    parsed = list(iter_warc_records(raw))
    assert [h["warc-type"] for h, _ in parsed] == \
        ["warcinfo", "response", "request", "response"]

    pages = read_warc_pages(str(d)).to_pandas()
    assert len(pages) == 4  # responses only: 2 + 2
    assert set(pages["url"]) == {"http://a.example/1", "http://a.example/2"}
    assert all(b"HTTP/1.1" not in h for h in pages["html"])  # headers cut

    pages_dir = tmp_path / "pages"
    read_warc_pages(str(d)).write_parquet(str(pages_dir))
    out = tmp_path / "index"
    build_index(str(pages_dir), str(out), EngineConfig(num_shards=4),
                num_salts=1, batch_size=16)
    hits = SearchEngine(str(out)).search("สาหร่ายวากาเมะ")
    assert len(hits) >= 1


def test_warc_stream_matches_strict_oracle():
    """The streaming parser yields record-for-record what the in-memory
    framing oracle yields on a well-formed archive."""
    import io

    from meilisearch_thai_ray.sources.warc import (
        iter_warc_records, iter_warc_stream)

    raw = _warc_bytes([
        ("warcinfo", "", b"software: test"),
        ("response", "http://a.example/1", b"<html>one</html>"),
        ("request", "http://a.example/1", b"GET / HTTP/1.1"),
        ("response", "http://a.example/2", b"<html>two\r\n\r\nbody</html>"),
    ])
    strict = list(iter_warc_records(raw))
    streamed = list(iter_warc_stream(io.BufferedReader(io.BytesIO(raw))))
    assert all(kind == "ok" for kind, _, _ in streamed)
    assert [(h, p) for _, h, p in streamed] == strict


def test_warc_corrupt_records_dead_letter_not_task_failure(
        ray_session, tmp_path):
    """Corrupt records become STATUS rows (the extract dead-letter
    contract), never task failures: garbage between records resyncs to the
    next record, a truncated gzip tail ends the file with one dead letter,
    and the default (ok-only) pages still build and search end-to-end."""
    import gzip

    from meilisearch_thai_ray.config import EngineConfig
    from meilisearch_thai_ray.index.build import build_index
    from meilisearch_thai_ray.index.search import SearchEngine
    from meilisearch_thai_ray.sources.warc import read_warc_pages

    thai = "<html><body><p>สาหร่ายวากาเมะ อร่อยมาก</p></body></html>"
    good1 = _warc_bytes([("response", "http://x.example/1", thai.encode())])
    good2 = _warc_bytes([("response", "http://x.example/2",
                          b"<html>fine page</html>")])
    d = tmp_path / "warc"
    d.mkdir()
    # file A: good record, garbage bytes, good record (resync case)
    (d / "a.warc").write_bytes(
        good1 + b"GARBAGE NOT A RECORD\r\nmore noise\r\n" + good2)
    # file B: two gzip members, the second truncated mid-member
    (d / "b.warc.gz").write_bytes(
        gzip.compress(good2) + gzip.compress(good1 * 20)[:40])
    # file C: a record with an unparseable Content-Length
    (d / "c.warc").write_bytes(
        b"WARC/1.0\r\nWARC-Type: response\r\n"
        b"WARC-Target-URI: http://x.example/3\r\n"
        b"Content-Length: banana\r\n\r\nbody\r\n\r\n" + good1)

    full = read_warc_pages(str(d), include_failed=True).to_pandas()
    failed = full[full["status"] == "failed"]
    ok = full[full["status"] == "completed"]
    assert len(failed) >= 3  # one per corruption site, none fatal
    assert all(u.startswith("warc-error://") for u in failed["url"])
    assert all(e for e in failed["error"])
    # every well-formed record still parsed (2 in A, 1 in B, 1 in C)
    assert sorted(ok["url"]) == [
        "http://x.example/1", "http://x.example/1",
        "http://x.example/2", "http://x.example/2"]

    # default view drops dead letters and keeps the build schema
    pages = read_warc_pages(str(d)).to_pandas()
    assert list(pages.columns) == ["url", "html", "lang"]
    assert len(pages) == 4
    pages_dir = tmp_path / "pages"
    read_warc_pages(str(d)).write_parquet(str(pages_dir))
    out = tmp_path / "index"
    build_index(str(pages_dir), str(out), EngineConfig(num_shards=2),
                num_salts=1, batch_size=16)
    assert len(SearchEngine(str(out)).search("สาหร่ายวากาเมะ")) >= 1


def test_warc_dir_read_skips_non_archive_files(ray_session, tmp_path):
    """A directory walk reads archive names only: derived files kept next
    to the archives (a stray parquet, a shard layout) yield no dead-letter
    rows."""
    import gzip

    import pyarrow as pa
    import pyarrow.parquet as pq

    from meilisearch_thai_ray.sources.warc import read_warc_pages

    recs = [("response", "http://s.example/1", b"<html>one</html>"),
            ("response", "http://s.example/2", b"<html>two</html>")]
    d = tmp_path / "warc"
    (d / "_prior_shards" / "shard=0").mkdir(parents=True)
    (d / "a.warc").write_bytes(_warc_bytes(recs[:1]))
    (d / "b.warc.gz").write_bytes(gzip.compress(_warc_bytes(recs[1:])))
    stray = pa.table({"url": ["http://s.example/1"], "digest": ["x"]})
    pq.write_table(stray, str(d / "stray.parquet"))
    pq.write_table(stray, str(d / "_prior_shards" / "shard=0" / "p.parquet"))

    full = read_warc_pages(str(d), include_failed=True).to_pandas()
    assert (full["status"] == "completed").all()
    assert sorted(full["url"]) == ["http://s.example/1", "http://s.example/2"]


def test_proximity_topk_min_window_ranking(pos_index):
    """proximity_topk: cost == (minimal token window covering every query
    term) - n_terms, validated against a brute-force scan of the raw texts;
    scattered-term docs rank below adjacent ones regardless of tf."""
    from meilisearch_thai_ray.functions.hashing import doc_id_from_url

    out, texts, urls = pos_index
    eng = SearchEngine(out)
    terms = ["red", "fox"]
    hits = eng.proximity_topk(terms, k=10)
    assert hits, "red+fox co-occur in several fixture docs"

    def brute_cost(text: str) -> int | None:
        toks = text.split()
        occ = [(i, t) for i, t in enumerate(toks) if t in terms]
        if {t for _, t in occ} != set(terms):
            return None
        best = None
        for i, (pi, ti) in enumerate(occ):
            seen = {ti}
            for pj, tj in occ[i + 1:]:
                seen.add(tj)
                if len(seen) == len(terms):
                    span = pj - pi + 1
                    best = span if best is None else min(best, span)
                    break
        return best - len(terms)

    expected = {doc_id_from_url(u): brute_cost(t)
                for u, t in zip(urls, texts)}
    expected = {d: c for d, c in expected.items() if c is not None}
    got = {d: c for d, c, _s in hits}
    assert got == expected
    costs = [c for _d, c, _s in hits]
    assert costs == sorted(costs)  # primary sort: proximity cost
    # 'red stop fox' (cost 1) must rank below every adjacent (cost 0) doc
    scattered = doc_id_from_url("https://pos.ex/4")
    assert got[scattered] == 1
    assert hits[-1][0] == scattered or hits[-1][1] == 1
    # single-term degenerates to BM25 order at cost 0
    one = eng.proximity_topk(["fox"], k=10)
    assert [d for d, c, _ in one] == [d for d, _ in eng.score_topk(["fox"], k=10, match="all")]
    assert all(c == 0 for _, c, _ in one)


def test_proxy_proximity_ranking_option(pos_index):
    """SearchOptions.proximity_ranking: the scattered-terms doc drops below
    every adjacent doc even when plain BM25 ranks it higher; option is a
    no-op when the engine lacks positions or a sort is set."""
    from meilisearch_thai_ray.functions.hashing import doc_id_from_url
    from meilisearch_thai_ray.pipelines.search_proxy import (
        SearchOptions, SearchProxy)

    out, texts, urls = pos_index
    proxy = SearchProxy(SearchEngine(out))
    plain = proxy.search("red fox", k=10)
    prox = proxy.search("red fox", k=10,
                        options=SearchOptions(limit=10,
                                              proximity_ranking=True))
    assert {h["doc_id"] for h in plain} == {h["doc_id"] for h in prox}
    scattered = doc_id_from_url("https://pos.ex/4")  # 'red stop fox'
    r_prox = [h["doc_id"] for h in prox]
    assert r_prox.index(scattered) == len(r_prox) - 1
    # explicit sort outranks proximity (rules-chain order): same as sort-only
    s_opts = SearchOptions(limit=10, proximity_ranking=True,
                           sort=["doc_id:asc"])
    s_only = SearchOptions(limit=10, sort=["doc_id:asc"])
    assert [h["doc_id"] for h in proxy.search("red fox", options=s_opts)] == \
        [h["doc_id"] for h in proxy.search("red fox", options=s_only)]


def test_doc_partitioned_phrase_and_proximity_equal_local(pos_index):
    """Doc-partitioned serving of the positional features: phrase_topk is
    bit-identical to the local engine (scores included); proximity_topk
    with a covering pool reproduces the local ranking exactly."""
    from meilisearch_thai_ray.index.serving import (
        DocPartitionedSearchService)

    out, _texts, _urls = pos_index
    eng = SearchEngine(out)
    svc = DocPartitionedSearchService(out, num_servers=2)
    try:
        assert len(svc.servers) == 2  # num_salts=2: genuinely partitioned
        for phrase in ["red fox", "quick red fox", "fox red",
                       "nonexistent words", "red"]:
            assert svc.phrase_topk(phrase, k=10) == \
                eng.phrase_topk(phrase, k=10), phrase
        local = eng.proximity_topk(["red", "fox"], k=10, pool=10_000)
        served = svc.proximity_topk(["red", "fox"], k=10, pool=10_000)
        assert served == local
        assert svc.proximity_topk(["red", "zzz_missing"], k=5) == []
    finally:
        svc.shutdown()


def test_phrase_trigram_and_slot_boundaries(pos_index):
    """Longer phrases through the vectorized key-intersection matcher:
    3- and 4-slot phrases, plus the slot-boundary edge (a later slot's
    term occurring at a token position EARLIER than its slot index must
    not alias another candidate's keys)."""
    from meilisearch_thai_ray.functions.hashing import doc_id_from_url

    out, texts, urls = pos_index
    eng = SearchEngine(out)

    def expect_ids(phrase):
        return {doc_id_from_url(urls[i]) for i, t in enumerate(texts)
                if f" {phrase} " in f" {t} "}

    for phrase in ["red fox jumps", "quick red fox", "the quick red fox",
                   "fox jumps over the", "jumps over the fence",
                   "fox red jumps", "red fox again"]:
        got = {d for d, _ in eng.phrase_topk(phrase, k=20)}
        assert got == expect_ids(phrase), phrase
    # doc 2 ("the quick red fox red fox again"): 'fox' occurs at slot
    # index < its phrase slot for "red fox again" — the alignment filter,
    # not key wraparound, must decide the match
    assert {d for d, _ in eng.phrase_topk("red fox again", k=20)} == \
        {doc_id_from_url(urls[2])}


def test_phrase_match_docs_brute_force_parity(pos_index):
    """phrase_match_docs (one position gather + phrase keys) returns, for
    every probe phrase, exactly the docs whose raw text holds the phrase
    as consecutive tokens (in this corpus token adjacency ==
    substring-with-single-spaces), sorted by doc_id."""
    from meilisearch_thai_ray.functions.hashing import doc_id_from_url

    out, texts, urls = pos_index
    eng = SearchEngine(out)
    vocab = sorted({w for t in texts for w in t.split()})
    probes = [f"{a} {b}" for a in vocab[:6] for b in vocab[:6]]
    probes += ["red fox jumps", "the quick red fox", "fox red"]
    checked = 0
    for phrase in probes:
        seq = eng.phrase_seq(phrase)
        if len(seq) < 2:
            continue
        want = sorted(doc_id_from_url(u) for u, t in zip(urls, texts)
                      if f" {' '.join(seq)} " in f" {t} ")
        assert eng.phrase_match_docs(seq) == want, phrase
        checked += bool(want)
    assert checked >= 5


def test_doc_partitioned_replicas_identical_and_concurrent(pos_index):
    """num_replicas multiplies throughput but must never change results:
    every query answered identically across many round-robined calls, and
    concurrent client threads (the serving-load shape) see exact results."""
    import threading

    from meilisearch_thai_ray.index.serving import (
        DocPartitionedSearchService)

    out, _texts, _urls = pos_index
    eng = SearchEngine(out)
    svc = DocPartitionedSearchService(out, num_servers=2, num_replicas=3)
    try:
        assert len(svc.replica_sets) == 3
        terms = eng.query_terms("red fox")
        want = eng.search("red fox", k=10)
        for _ in range(6):  # cycles every replica twice
            assert svc.score_topk(terms, k=10) == want
        errs: list = []

        def hammer():
            try:
                for _ in range(10):
                    assert svc.score_topk(terms, k=10) == want
                    assert svc.phrase_topk("red fox", k=10) == \
                        eng.phrase_topk("red fox", k=10)
            except Exception as e:  # surfaced after join
                errs.append(e)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errs
    finally:
        svc.shutdown()


def test_wet_source_reads_conversion_records(ray_session, tmp_path):
    """WET archives (WARC framing, conversion records, plain-text payload)
    read through read_wet_pages: conversion records only, text verbatim,
    and the text survives the extract kernel unchanged (identity on
    tag-free text) so the build path is uniform with WARC."""
    import gzip

    from meilisearch_thai_ray.kernel.extract import html_to_text
    from meilisearch_thai_ray.sources.warc import (read_warc_pages,
                                                   read_wet_pages)

    thai = "สาหร่ายวากาเมะ อร่อยมาก\nบรรทัดที่สอง"
    recs = [
        ("warcinfo", "", b"software: wet-test"),
        ("conversion", "http://a.example/1", thai.encode()),
        ("conversion", "http://a.example/2", b"plain english text"),
        ("response", "http://a.example/3", b"<html>never here</html>"),
    ]
    d = tmp_path / "wet"
    d.mkdir()
    (d / "crawl-00000.warc.wet.gz").write_bytes(
        gzip.compress(_warc_bytes(recs)))

    pages = read_wet_pages(str(d)).to_pandas()
    assert set(pages["url"]) == {"http://a.example/1", "http://a.example/2"}
    got = pages.set_index("url").loc["http://a.example/1", "html"]
    assert got == thai.encode()  # payload verbatim, no HTTP stripping
    assert html_to_text(got) == html_to_text(thai.encode())
    assert "สาหร่ายวากาเมะ" in html_to_text(got)

    # the same archive read as WARC sees only the response record
    warc_pages = read_warc_pages(str(d)).to_pandas()
    assert set(warc_pages["url"]) == {"http://a.example/3"}


def test_wet_payload_starting_with_http_is_not_truncated(ray_session,
                                                         tmp_path):
    """A WET conversion payload is extracted TEXT, not an HTTP message — a
    page about HTTP whose extracted text begins with 'HTTP/' and contains
    a blank line must pass through verbatim (header stripping applies only
    to response records, decided per record). Regression test for the
    round-3 advice finding on sources/warc.py."""
    import gzip

    from meilisearch_thai_ray.sources.warc import read_wet_pages

    tricky = (b"HTTP/1.1 is a protocol revision.\r\n"
              b"Headers end at a blank line:\r\n\r\n"
              b"this tail must survive in the WET payload")
    recs = [
        ("conversion", "http://h.example/doc", tricky),
        # a response record in the same archive still gets stripped when
        # both types are accepted (_warc_bytes adds the HTTP header block)
        ("response", "http://h.example/page", b"<p>body</p>"),
    ]
    d = tmp_path / "wet_http"
    d.mkdir()
    (d / "c.warc.wet.gz").write_bytes(gzip.compress(_warc_bytes(recs)))

    wet = read_wet_pages(str(d)).to_pandas().set_index("url")
    assert wet.loc["http://h.example/doc", "html"] == tricky

    from meilisearch_thai_ray.sources.warc import read_warc_pages
    both = read_warc_pages(
        str(d), record_types=("response", "conversion")).to_pandas()
    by_url = both.set_index("url")
    assert by_url.loc["http://h.example/doc", "html"] == tricky
    assert by_url.loc["http://h.example/page", "html"] == b"<p>body</p>"


def test_ordinal_maps_from_docs_scan(tmp_path):
    """The shards phase's ordinal maps: each salt's docs minus dead
    letters, sorted by doc id, a doc id on two rows kept once with its
    smaller length, and a salt without docs empty."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from meilisearch_thai_ray.index.build import build_ordinals
    from meilisearch_thai_ray.index.codec import load_ordinals

    docs = tmp_path / "docs"
    docs.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array([8, 2, 6, 4, 8, 10], pa.int64()),
        "token_count": pa.array([5, 3, 0, 7, 4, 9], pa.int32()),
        "status": ["ok", "ok", "failed", "ok", "ok", "ok"],
    }), str(docs / "part-0.parquet"))
    out = str(tmp_path / "out")
    build_ordinals(str(docs), out, 2)
    ids, dl = load_ordinals(out, 0)
    assert ids.dtype == np.uint64 and dl.dtype == np.uint32
    assert ids.tolist() == [2, 4, 8, 10] and dl.tolist() == [3, 7, 4, 9]
    assert all(a.size == 0 for a in load_ordinals(out, 1))


def test_duplicate_doc_id_block_max_bounds_decoded_tfn(ray_session, tmp_path):
    """A URL fetched twice with different lengths puts one doc id on two
    docs rows. Its map row keeps the smaller length, and every block_max
    is the largest tfn of the block's postings as decode reads them back
    (lengths from the map), so it bounds every decoded score."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from meilisearch_thai_ray.functions.hashing import doc_id_from_url
    from meilisearch_thai_ray.index.codec import (decode_segment,
                                                  load_ordinals, tfn_scores)

    texts = ["alpha beta gamma delta epsilon zeta eta theta", "alpha beta",
             "alpha gamma", "beta delta alpha", "alpha"]
    urls = ["https://dup.ex/a"] * 2 + [f"https://dup.ex/{i}" for i in range(3)]
    pages = tmp_path / "pages"
    pages.mkdir()
    pq.write_table(pa.table({
        "url": pa.array(urls, pa.string()),
        "html": pa.array([f"<p>{t}</p>".encode() for t in texts], pa.binary()),
        "lang": pa.array(["en"] * len(texts), pa.string()),
    }), str(pages / "p.parquet"))
    out = str(tmp_path / "index")
    cfg = EngineConfig(num_shards=2, posting_block=2)
    meta = build_index(str(pages), out, cfg, num_salts=2, batch_size=64)
    dup = doc_id_from_url(urls[0])
    ids, dl = load_ordinals(out, dup % 2)
    row = int(np.searchsorted(ids, np.uint64(dup)))
    assert ids[row] == dup and int(dl[row]) == 2
    assert int((ids == np.uint64(dup)).sum()) == 1
    n_blocks = 0
    for salt in range(2):
        t = pads.dataset(os.path.join(out, "shards"), partitioning="hive"
                         ).to_table(filter=pads.field("salt") == salt)
        for i in range(t.num_rows):
            _, tfs, dls = decode_segment(
                t["docs_bin"][i].as_py(), t["tfs_bin"][i].as_py(),
                t["n_docs"][i].as_py(), load_ordinals(out, salt))
            tfn = tfn_scores(tfs, dls, meta["avgdl"], cfg.k1, cfg.b)
            starts = np.arange(0, tfn.size, cfg.posting_block)
            bm = np.asarray(t["block_max"][i].as_py())
            assert bm.tobytes() == np.maximum.reduceat(tfn, starts).tobytes()
            n_blocks += bm.size
    assert n_blocks
