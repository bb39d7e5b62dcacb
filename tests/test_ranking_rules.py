"""Meilisearch ranking-rules chain (r3 verdict #2/#3/#4): attribute,
exactness, and typo-count bucket ordering, built from the positional index.

Reference semantics: settings_manager.py:140 rules order words -> typo ->
proximity -> attribute -> sort -> exactness; searchableAttributes order
[title, content] (settings_manager.py:81-86)."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from meilisearch_thai_ray.config import EngineConfig
from meilisearch_thai_ray.index.build import build_index
from meilisearch_thai_ray.index.search import SearchEngine, min_window_costs
from meilisearch_thai_ray.pipelines.search_proxy import (SearchOptions,
                                                         SearchProxy)

CFG = EngineConfig(num_shards=4, store_positions=True)


def _page(title: str, body: str) -> bytes:
    return (f"<html><head><title>{title}</title></head>"
            f"<body><h1>{title}</h1><p>{body}</p></body></html>").encode()


@pytest.fixture(scope="module")
def rules_index(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("rulesidx")
    pages = root / "pages"
    pages.mkdir()
    docs = [
        # attribute: A has 'salmon' ONLY in the title; B has it 5x in the
        # body (stronger BM25) under an unrelated title
        ("salmon special menu",
         "today the kitchen offers various seasonal dishes with rice and "
         "vegetables plus soup and dessert for every guest visiting"),
        ("boring page title",
         "salmon dishes salmon plates salmon bowls salmon sets salmon"),
        # typo: C matches 'grilled' exactly once; D contains only the
        # 1-typo form many times
        ("plain cooking note", "we grilled the corn over charcoal"),
        ("typo heavy page",
         "grilied fish grilied pork grilied beef grilied duck grilied"),
        # exactness: E has the exact in-order phrase, F the same two words
        # adjacent but scrambled (same proximity window cost)
        ("phrase doc", "a red fox dinner was served"),
        ("scrambled doc", "a fox red dinner was served"),
    ]
    urls = [f"https://rules.ex/{i}" for i in range(len(docs))]
    pq.write_table(
        pa.table({
            "url": pa.array(urls, pa.string()),
            "html": pa.array([_page(t, b) for t, b in docs], pa.binary()),
            "lang": pa.array(["en"] * len(docs), pa.string()),
        }),
        str(pages / "p.parquet"),
    )
    out = str(root / "index")
    build_index(str(pages), out, CFG, num_salts=2, batch_size=64)
    return out, urls


def _doc_of(url: str) -> int:
    from meilisearch_thai_ray.functions.hashing import doc_id_from_url

    return doc_id_from_url(url)


def test_title_tc_recorded_and_prefix_verified(rules_index):
    import pyarrow.dataset as pads

    out, urls = rules_index
    t = pads.dataset(f"{out}/docs").to_table(
        columns=["url", "title_tc", "text"]).to_pylist()
    by_url = {r["url"]: r for r in t}
    r = by_url["https://rules.ex/0"]
    assert r["title_tc"] == 3  # 'salmon special menu'
    assert r["text"].startswith("salmon special menu")
    # every fixture page has a title rendered first
    assert all(r["title_tc"] > 0 for r in t)


def test_html_title_kernel():
    from meilisearch_thai_ray.kernel.extract import html_title

    assert html_title(b"<html><head><title> A &amp; B </title></head>"
                      b"<body>x</body></html>") == "A & B"
    assert html_title(b"<p>no title here</p>") == ""
    assert html_title("<TITLE>คั่น\nบรรทัด</TITLE>".encode()) == \
        "คั่น บรรทัด"
    # commented-out titles don't count
    assert html_title(b"<!--<title>ghost</title>--><title>real</title>") \
        == "real"


def test_attribute_rule_title_beats_stronger_body_hit(rules_index):
    out, urls = rules_index
    proxy = SearchProxy(SearchEngine(out), docs_path=f"{out}/docs")
    title_doc = _doc_of("https://rules.ex/0")
    body_doc = _doc_of("https://rules.ex/1")

    base = [h["doc_id"] for h in proxy.search("salmon", k=10)]
    # sanity: plain BM25/proxy ranking favors the 5x body hit
    assert base.index(body_doc) < base.index(title_doc)

    ranked = [h["doc_id"] for h in proxy.search(
        "salmon", options=SearchOptions(limit=10, ranking_rules=True))]
    assert ranked.index(title_doc) < ranked.index(body_doc)


def test_typo_bucket_orders_exact_above_expanded(rules_index):
    out, urls = rules_index
    proxy = SearchProxy(SearchEngine(out), docs_path=f"{out}/docs")
    exact_doc = _doc_of("https://rules.ex/2")
    typo_doc = _doc_of("https://rules.ex/3")

    opts = SearchOptions(limit=10, ranking_rules=True,
                         matching_strategy="frequency",
                         typo_tolerance=True)
    ranked = [h["doc_id"] for h in proxy.search("grilled", options=opts)]
    assert exact_doc in ranked and typo_doc in ranked
    assert ranked.index(exact_doc) < ranked.index(typo_doc)


def _details(out, query, **opts):
    proxy = SearchProxy(SearchEngine(out), docs_path=f"{out}/docs")
    hits = proxy.search(query, options=SearchOptions(
        limit=10, ranking_rules=True, show_ranking_score_details=True,
        matching_strategy="any", **opts))
    return {h["doc_id"]: (h["_rankingScoreDetails"]["words"]["matchedWords"],
                          h["_rankingScoreDetails"]["typo"]["typoCount"])
            for h in hits}


def test_rules_chain_typo_credit_uses_request_thresholds(rules_index):
    """Under oneTypo=3 the 4-char 'rica' retrieves 'rice' (doc 0), and
    the chain credits that hit with the word at one typo."""
    out, urls = rules_index
    det = _details(out, "rica", typo_tolerance=True, typo_settings={
        "minWordSizeForTypos": {"oneTypo": 3}})
    assert det[_doc_of(urls[0])] == (1, 1)


def test_rules_chain_typo_credit_respects_disable_on_words(rules_index):
    """'fish' retrieves doc 3, which holds 'grilied', a 1-typo derivation
    of 'grilled': credited by default, not when 'grilled' is listed in
    disableOnWords."""
    out, urls = rules_index
    typo_doc = _doc_of(urls[3])
    assert _details(out, "grilled fish")[typo_doc] == (2, 1)
    det = _details(out, "grilled fish",
                   typo_settings={"disableOnWords": ["grilled"]})
    assert det[typo_doc] == (1, 0)


def test_rules_chain_typo_credit_off_without_typo_tolerance(rules_index):
    out, urls = rules_index
    det = _details(out, "grilled fish", typo_tolerance=False)
    assert det[_doc_of(urls[3])] == (1, 0)


def test_exactness_orders_phrase_above_scrambled(rules_index):
    out, urls = rules_index
    proxy = SearchProxy(SearchEngine(out), docs_path=f"{out}/docs")
    phrase_doc = _doc_of("https://rules.ex/4")
    scram_doc = _doc_of("https://rules.ex/5")

    # both docs match both words with the same minimal window cost, so
    # words/typo/proximity/attribute all tie — exactness decides
    eng = SearchEngine(out)
    gathered = eng.doc_term_positions([phrase_doc, scram_doc], ["red", "fox"])
    assert all((counts > 0).all() for counts, _flat in gathered.values())
    costs = min_window_costs(list(gathered.values()), 2)
    assert costs[0] == costs[1]

    ranked = [h["doc_id"] for h in proxy.search(
        "red fox", options=SearchOptions(limit=10, ranking_rules=True))]
    assert ranked.index(phrase_doc) < ranked.index(scram_doc)


def test_rules_chain_off_by_default(rules_index):
    out, urls = rules_index
    proxy = SearchProxy(SearchEngine(out), docs_path=f"{out}/docs")
    a = [h["doc_id"] for h in proxy.search("salmon", k=10)]
    b = [h["doc_id"] for h in proxy.search(
        "salmon", options=SearchOptions(limit=10))]
    assert a == b  # default options leave the boosted ranking untouched


def test_bm25f_weight_one_reproduces_bm25(rules_index):
    """title_weight=1.0 collapses the field weighting: bm25f_topk must
    reproduce score_topk's scores and order exactly."""
    import numpy as np

    out, urls = rules_index
    eng = SearchEngine(out)
    plain = eng.score_topk(["salmon"], k=10)
    f1 = eng.bm25f_topk(["salmon"], k=10, title_weight=1.0)
    assert [d for d, _ in f1] == [d for d, _ in plain]
    for (d1, s1), (d2, s2) in zip(f1, plain):
        assert np.isclose(s1, s2, rtol=1e-6), (d1, s1, s2)


def _bm25f_per_doc(eng, out, terms, title_weight):
    """The scalar per-doc, per-term BM25F loop over the pool's docs — the
    reference for bm25f_topk, which scores all docs per term at once."""
    docs = pq.read_table(f"{out}/docs", columns=[
        "doc_id", "title_tc", "token_count"]).to_pylist()
    meta = {r["doc_id"]: (r["title_tc"] or 0, r["token_count"]) for r in docs}
    hits = []
    for d, _ in eng.score_topk(terms, k=100):
        boundary, dl = meta[d]
        knorm = eng.k1 * (1.0 - eng.b + eng.b * dl / eng.avgdl)
        s = 0.0
        for t, w, idf_t, _segs in eng._weighted(terms):
            pos = eng.doc_term_positions([d], [t])[t][1].tolist()
            if pos:
                tf_title = sum(p < boundary for p in pos)
                tfw = (len(pos) - tf_title) + title_weight * tf_title
                s += w * idf_t * tfw * (eng.k1 + 1.0) / (tfw + knorm)
        hits.append((d, s))
    return sorted(hits, key=lambda h: (-h[1], h[0]))[:10]


def test_bm25f_title_weight_lifts_title_hits(rules_index):
    out, urls = rules_index
    eng = SearchEngine(out)
    title_doc = _doc_of("https://rules.ex/0")
    body_doc = _doc_of("https://rules.ex/1")
    base = [d for d, _ in eng.bm25f_topk(["salmon"], k=10,
                                         title_weight=1.0)]
    assert base.index(body_doc) < base.index(title_doc)  # 5x body tf wins
    boosted = [d for d, _ in eng.bm25f_topk(["salmon"], k=10,
                                            title_weight=8.0)]
    assert boosted.index(title_doc) < boosted.index(body_doc)
    for terms in (["salmon"], ["salmon", "grilled", "salmon"], ["red", "fox"]):
        for w in (1.0, 2.0, 8.0):
            assert eng.bm25f_topk(terms, k=10, title_weight=w) == \
                _bm25f_per_doc(eng, out, terms, w), (terms, w)


def test_proxy_frequency_drops_highest_df_word(rules_index):
    """matchingStrategy='frequency' (Meilisearch v1.5): all words required;
    when the conjunction is empty the highest-df word drops first — unlike
    'last', which drops the trailing word regardless of informativeness."""
    out, urls = rules_index
    proxy = SearchProxy(SearchEngine(out), docs_path=f"{out}/docs")
    charcoal_doc = _doc_of("https://rules.ex/2")
    salmon_docs = {_doc_of("https://rules.ex/0"), _doc_of("https://rules.ex/1")}

    # 'salmon' df=2, 'charcoal' df=1, no doc has both
    freq = {h["doc_id"] for h in proxy.search(
        "salmon charcoal",
        options=SearchOptions(limit=10, matching_strategy="frequency"))}
    assert freq == {charcoal_doc}  # salmon (higher df) dropped first
    last = {h["doc_id"] for h in proxy.search(
        "salmon charcoal",
        options=SearchOptions(limit=10, matching_strategy="last"))}
    assert last == salmon_docs  # trailing word dropped instead

    # a satisfiable conjunction drops nothing
    both = {h["doc_id"] for h in proxy.search(
        "salmon dishes",
        options=SearchOptions(limit=10, matching_strategy="frequency"))}
    assert both == salmon_docs

    with pytest.raises(ValueError):
        SearchOptions(matching_strategy="fuzzy")
